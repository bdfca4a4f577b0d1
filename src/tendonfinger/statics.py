"""
Static equilibrium of the coupled finger under external load.

The loaded finger rests at the minimum of its total potential over the
three joint angles: link gravity, the elastic energy of every tendon and
the external load's potential. `solve_static` finds it by Newton steps on
the analytic gradient and Hessian from the rigid-tendon pose; the energy
module's oracle minimizes the same potential by a grid search and so
checks the solver.

Tendon stretch model: the actuating tendon's routed length changes by
R1 * (theta_hat_1 - theta_1) relative to the prescribed displacement;
each coupling tendon spans two adjacent guide cylinders, so it stretches
only on the differential motion R_i * d_i - R_{i-1} * d_{i-1} with
d_i = theta_hat_i - theta_i. Extension-group stretches are the mirror
image. A slack tendon (negative stretch) stores no energy. Hooke's law
T = (E A / L) * stretch gives each tendon's tension.

Tensions are found by three sequential scalar moment balances, distal to
proximal: the distal link alone about joint 3, the distal two links about
joint 2, and the whole chain about joint 1. Each joint's tendon acts
tangentially on its guide cylinder, and a coupling tendon leaves adjacent
guide cylinders along their internal common tangent, so the distal
tension re-enters the next proximal balance with the proximal guide
radius as its arm and opposite sense. The balances collapse to the
cascade T_k = T_{k+1} + |M_k| / R_k. Its joint torques are J^T T for the
stretch Jacobian J, the elastic part of the potential's gradient, so at
the minimum the cascade's tensions are the pose's Hooke tensions.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GeometryInfeasible,
    NoConvergence,
    TendonFingerError,
    TensionInfeasible,
)
from .model import (
    Configuration,
    ExternalLoad,
    FingerGeometry,
    FingertipState,
    TendonGroup,
    TendonSpec,
    coupling_angles,
    fingertip_state,
    link_pose,
)

DEFAULT_THRESHOLD = 1e-6
DEFAULT_MAX_ITERATIONS = 100

_NEG_TOL = 1e-9


@dataclass(frozen=True)
class TensionSet:
    """Tendon tensions of the active group, all non-negative."""

    t1: float
    t2: float
    t3: float
    active_group: TendonGroup

    def __post_init__(self):
        if min(self.t1, self.t2, self.t3) < 0.0:
            raise ValueError("a stretched tendon cannot push (negative tension)")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.t1, self.t2, self.t3)

    def __iter__(self):
        return iter(self.as_tuple())


@dataclass(frozen=True)
class WrapGeometry:
    """Wrap angles of the coupling tendons and their geometric rest lengths."""

    alpha2: float
    alpha3: float
    alpha2_0: float
    alpha3_0: float
    rest_length_2: float
    rest_length_3: float


@dataclass(frozen=True)
class IterationRecord:
    """One Newton step's pose with the active group's Hooke tensions."""

    index: int
    theta: tuple[float, float, float]
    fingertip_y: float
    tensions: tuple[float, float, float]
    elongated_lengths: tuple[float, float, float]
    residual: float | None


@dataclass(frozen=True)
class StaticSolution:
    """Converged static configuration with its tension state and trace."""

    configuration: Configuration
    tensions: TensionSet
    fingertip: FingertipState
    deflection_y: float
    iterations: int
    residual: float
    rest_lengths: tuple[float, float, float]
    elongated_lengths: tuple[float, float, float]
    trace: tuple[IterationRecord, ...] = field(repr=False, default=())


def wrap_angles(config: Configuration, geom: FingerGeometry) -> WrapGeometry:
    """Wrap angles at the current pose and the zero-pose rest lengths.

    alpha_3 = pi - arccos((R2 + R3) / L2) - theta_3 and the joint-2
    analogue; rest lengths follow from the zero-pose wrap angles as
    L_T = (alpha_0 - cot(alpha_0)) * (R_prox + R_dist).
    """
    r1, r2, r3 = geom.guide_radii
    l1, l2, _ = geom.link_lengths
    theta = config.theta

    pairs = []
    for span, radii_sum, th in ((l1, r1 + r2, theta[1]), (l2, r2 + r3, theta[2])):
        if span <= 0.0:
            raise GeometryInfeasible("link span is zero; wrap angle undefined")
        c = radii_sum / span
        if not 0.0 <= c < 1.0:
            raise GeometryInfeasible(
                f"wrap ratio {c:.4f} outside [0, 1); guide circles overlap the span"
            )
        alpha0 = math.pi - math.acos(c)
        alpha = _wrap_angle(alpha0, th)
        rest = (alpha0 - 1.0 / math.tan(alpha0)) * radii_sum
        if rest <= 0.0:
            raise GeometryInfeasible("non-positive tendon rest length")
        pairs.append((alpha, alpha0, rest))

    (a2, a20, lt2), (a3, a30, lt3) = pairs
    return WrapGeometry(
        alpha2=a2, alpha3=a3, alpha2_0=a20, alpha3_0=a30,
        rest_length_2=lt2, rest_length_3=lt3,
    )


def _wrap_angle(alpha0: float, theta: float) -> float:
    """Wrap angle alpha_0 - theta of a coupling tendon whose zero-pose
    wrap angle is alpha_0; raises GeometryInfeasible outside (0, pi)."""
    alpha = alpha0 - theta
    if alpha <= 0.0 or alpha >= math.pi:
        raise GeometryInfeasible(
            f"wrap angle {alpha:.4f} rad outside (0, pi) at theta = {theta:.4f}"
        )
    return alpha


_ZERO_POSE = Configuration(q=0.0, theta=(0.0, 0.0, 0.0))


def coupling_rest_lengths(geom: FingerGeometry) -> tuple[float, float]:
    """Geometric rest lengths of the two coupling tendons (joints 2 and 3)."""
    wrap = wrap_angles(_ZERO_POSE, geom)
    return wrap.rest_length_2, wrap.rest_length_3


def wrap_moment(normal_force: float, lever: float, theta: float, alpha: float) -> float:
    """Closed form of the distributed-normal-load moment integral.

    Integrand normal_force * lever * sin(t) over t in [theta, alpha + theta],
    which evaluates to normal_force * lever * (cos(theta) - cos(alpha + theta)).
    """
    return normal_force * lever * (math.cos(theta) - math.cos(alpha + theta))


def net_external_moments(
    config: Configuration, geom: FingerGeometry, load: ExternalLoad
) -> np.ndarray:
    """Moment about each joint of gravity plus the external load, shape (3,).

    Entry k sums contributions acting on the subchain distal of joint k+1:
    the external moment, the external force at its application point, and
    the weights of links k+1..3 at their centers of mass.
    """
    return np.array(pose_moments(link_pose(config.theta, geom), geom, load))


def pose_moments(pose, geom: FingerGeometry, load: ExternalLoad):
    """`net_external_moments` as a float triple, from a `link_pose` result.

    Each term is the 2-D cross product (r - J_k) x F in the order
    r_x F_y - r_y F_x; a weight is the force (0, -m_i g). Its zero x term
    stays: it decides the sign of a zero moment, and so of a zero tension.
    """
    points, coms = pose
    fx, fy = load.force
    if load.application_point is None:
        px, py = points[3]
    else:
        px, py = load.application_point
    weights = [(-m) * geom.gravity_accel for m in geom.link_masses]
    moments = []
    for k in range(3):
        jx, jy = points[k]
        m = load.moment + ((px - jx) * fy - (py - jy) * fx)
        for i in range(k, 3):
            cx, cy = coms[i]
            m += (cx - jx) * weights[i] - (cy - jy) * 0.0
        moments.append(m)
    return tuple(moments)


def _restraint_sign(moments, tol: float = 1e-12) -> float:
    """+1 when the flexion group must restrain the load, -1 for extension.

    Decided by the distal-most non-zero net moment; an unloaded finger
    defaults to the flexion group.
    """
    for m in (moments[2], moments[1], moments[0]):
        if abs(m) > tol:
            return 1.0 if m < 0.0 else -1.0
    return 1.0


def _group_for_sign(sign: float) -> TendonGroup:
    return TendonGroup.FLEXION if sign > 0.0 else TendonGroup.EXTENSION


def _cascade(moments, geom: FingerGeometry, sign: float) -> tuple[float, float, float]:
    r1, r2, r3 = geom.guide_radii
    t3 = -moments[2] / (sign * r3)
    t2 = t3 - moments[1] / (sign * r2)
    t1 = t2 - moments[0] / (sign * r1)
    return (float(t1), float(t2), float(t3))


def solve_tensions(
    config: Configuration,
    geom: FingerGeometry,
    load: ExternalLoad,
    *,
    group: TendonGroup | None = None,
) -> TensionSet:
    """Tendon tensions balancing the load at a fixed configuration.

    Solves the three moment balances sequentially (joint 3, then 2, then
    1). The active group is chosen from the sign of the net external
    moment unless forced via `group`; if no single group yields
    non-negative tensions the load is not holdable and TensionInfeasible
    is raised.
    """
    moments = pose_moments(link_pose(config.theta, geom), geom, load)
    return _tensions_for(moments, geom, group)


def _tensions_for(moments, geom, group) -> TensionSet:
    """`solve_tensions` for the net moments `moments`."""
    if group is not None:
        signs = (1.0,) if group is TendonGroup.FLEXION else (-1.0,)
    else:
        first = _restraint_sign(moments)
        signs = (first, -first)

    scale = 1.0 + max(map(abs, moments)) / min(geom.guide_radii)
    last = None
    for sign in signs:
        ts = _cascade(moments, geom, sign)
        last = ts
        t1, t2, t3 = ts
        if min(ts) >= -_NEG_TOL * scale:
            return TensionSet(max(t1, 0.0), max(t2, 0.0), max(t3, 0.0),
                              active_group=_group_for_sign(sign))
    raise TensionInfeasible(
        f"no single tendon group holds this load (best tensions {last})"
    )


def group_specs(
    specs, group: TendonGroup
) -> tuple[TendonSpec, TendonSpec, TendonSpec]:
    """The three tendons of one group, ordered by index."""
    trio = sorted((s for s in specs if s.group is group), key=lambda s: s.index)
    if len(trio) != 3 or [s.index for s in trio] != [1, 2, 3]:
        raise ValueError(f"need exactly tendons 1..3 of group {group.value}")
    return tuple(trio)


def elongate_tendons(
    tensions,
    specs: tuple[TendonSpec, TendonSpec, TendonSpec],
    wrap: WrapGeometry,
) -> tuple[float, float, float]:
    """Stretched lengths L' = L * (1 + T / (E A)) of three tendons under
    `tensions` (a TensionSet or a triple of non-negative tensions).

    The actuating tendon uses its configured rest length; the coupling
    tendons use the geometric rest lengths carried by `wrap`.
    """
    t1, t2, t3 = tensions
    s1, s2, s3 = specs
    return (
        s1.rest_length * (1.0 + t1 / s1.axial_stiffness),
        wrap.rest_length_2 * (1.0 + t2 / s2.axial_stiffness),
        wrap.rest_length_3 * (1.0 + t3 / s3.axial_stiffness),
    )


class _PotentialModel:
    """The total potential of one load case at displacement q, from plain
    floats: the per-pose gradient and Hessian of the solver and the
    oracle's polish, and the oracle's batched box evaluation.

    Everything but `load` and `attach_local` is load-free: `with_load`
    shares it, with the `boxes` memo of load-free box landscapes, among
    the load cases of one report or sweep."""

    def __init__(self, geom: FingerGeometry, specs, load: ExternalLoad, q: float):
        self.geom = geom
        self.q = q
        self.nominal = coupling_angles(q, geom)
        self.nominal_pose = link_pose(self.nominal.theta, geom)
        self.g = geom.gravity_accel
        self.wrap0 = wrap_angles(_ZERO_POSE, geom)
        lt2, lt3 = self.wrap0.rest_length_2, self.wrap0.rest_length_3
        self.trios = {group: group_specs(specs, group) for group in TendonGroup}
        self.k_flex = _stiffness(self.trios[TendonGroup.FLEXION], lt2, lt3)
        self.k_ext = _stiffness(self.trios[TendonGroup.EXTENSION], lt2, lt3)

        # Joint k lifts every link j >= k: link j's own centre of mass by
        # frac_j L_j, and each later link's by L_j.
        m1, m2, m3 = geom.link_masses
        f1, f2, f3 = geom.com_fractions
        self.lifted = (m1 * f1 + (m2 + m3), m2 * f2 + m3, m3 * f3)
        self.boxes = {}
        self._apply(load)

    def with_load(self, load: ExternalLoad) -> "_PotentialModel":
        """This model under `load`: it shares every load-free field and
        the `boxes` memo, and recomputes only `load` and `attach_local`."""
        model = copy.copy(self)
        model._apply(load)
        return model

    def _apply(self, load: ExternalLoad) -> None:
        self.load = load
        if load.application_point is None:
            self.attach_local = None
        else:
            # Resolve the fixed base-frame point into the distal-link frame
            # at the nominal pose; it then rides with the link.
            t1, t2, t3 = self.nominal.theta
            jx, jy = self.nominal_pose[0][2]
            rx = load.application_point[0] - jx
            ry = load.application_point[1] - jy
            phi3 = (t1 + t2) + t3
            c, s = math.cos(-phi3), math.sin(-phi3)
            self.attach_local = (c * rx - s * ry, s * rx + c * ry)

    def stretches(self, t1, t2, t3):
        """Unclamped flexion-side stretches of the three tendons at joint
        angles t1, t2, t3; the extension side is their negative. Tendon 1
        depends on t1 only, tendon 2 on t1 and t2, tendon 3 on t2 and t3."""
        h1, h2, h3 = self.nominal.theta
        r1, r2, r3 = self.geom.guide_radii
        rd1 = (h1 - t1) * r1
        rd2 = (h2 - t2) * r2
        rd3 = (h3 - t3) * r3
        return rd1, rd2 - rd1, rd3 - rd2

    def load_at(self, theta, pose) -> ExternalLoad:
        """The load at joint angles `theta`, whose `link_pose` is `pose`:
        its application point moves with the distal link, as in the
        potential."""
        if self.attach_local is None:
            return self.load
        t1, t2, t3 = theta
        jx, jy = pose[0][2]
        phi3 = (t1 + t2) + t3
        c, s = math.cos(phi3), math.sin(phi3)
        ax, ay = self.attach_local
        return ExternalLoad(force=self.load.force, moment=self.load.moment,
                            application_point=(jx + c * ax - s * ay,
                                               jy + s * ax + c * ay))

    def wrap_at(self, theta) -> tuple[float, float]:
        """Wrap angles (alpha_2, alpha_3) of the coupling tendons at joint
        angles `theta`; raises GeometryInfeasible outside (0, pi)."""
        return (_wrap_angle(self.wrap0.alpha2_0, theta[1]),
                _wrap_angle(self.wrap0.alpha3_0, theta[2]))

    def tensions(self, theta, group: TendonGroup) -> tuple[float, float, float]:
        """Hooke tensions of one group's three tendons at one pose."""
        s1, s2, s3 = self.stretches(*theta)
        if group is TendonGroup.FLEXION:
            k1, k2, k3 = self.k_flex
            return (k1 * max(s1, 0.0), k2 * max(s2, 0.0), k3 * max(s3, 0.0))
        k1, k2, k3 = self.k_ext
        return (k1 * max(-s1, 0.0), k2 * max(-s2, 0.0), k3 * max(-s3, 0.0))

    def gradient_hessian(self, theta):
        """Analytic gradient (3,) and Hessian (3 x 3) of the total potential
        at one pose, as plain-float tuples.

        Elastic: tendon i pulls with J_i^T T_i and stiffens by
        J^T diag(k_i) J, J = d(stretch)/d(theta); a zero stretch counts as
        taut in both groups, so the unloaded pose keeps a positive-definite
        Hessian, and the gradient takes the taut side's one-sided
        derivative (a clamped stretch pulls with zero tension). Gravity and
        the load reach joint k through every link j >= k, so their
        Hessian entry (k, l) sums over j >= max(k, l): a tail sum, added
        from the distal link inwards.
        """
        t1, t2, t3 = theta
        s1, s2, s3 = self.stretches(t1, t2, t3)
        kf1, kf2, kf3 = self.k_flex
        ke1, ke2, ke3 = self.k_ext
        n1 = kf1 * max(s1, 0.0) - ke1 * max(-s1, 0.0)
        n2 = kf2 * max(s2, 0.0) - ke2 * max(-s2, 0.0)
        n3 = kf3 * max(s3, 0.0) - ke3 * max(-s3, 0.0)
        k1 = (kf1 if s1 >= 0.0 else 0.0) + (ke1 if s1 <= 0.0 else 0.0)
        k2 = (kf2 if s2 >= 0.0 else 0.0) + (ke2 if s2 <= 0.0 else 0.0)
        k3 = (kf3 if s3 >= 0.0 else 0.0) + (ke3 if s3 <= 0.0 else 0.0)

        phi1 = t1
        phi2 = t1 + t2
        phi3 = phi2 + t3
        c1, c2, c3 = math.cos(phi1), math.cos(phi2), math.cos(phi3)
        sn1, sn2, sn3 = math.sin(phi1), math.sin(phi2), math.sin(phi3)
        L1, L2, L3 = self.geom.link_lengths
        w1, w2, w3 = self.lifted
        # Per-link x and y extents of the load's lever; on the distal link
        # they reach the attach point.
        ex1, ex2, ex3 = L1 * c1, L2 * c2, L3 * c3
        ey1, ey2, ey3 = L1 * sn1, L2 * sn2, L3 * sn3
        if self.attach_local is not None:
            ax, ay = self.attach_local
            ex3 = c3 * ax - sn3 * ay
            ey3 = sn3 * ax + c3 * ay

        lift3 = L3 * c3 * w3
        lift2 = lift3 + L2 * c2 * w2
        lift1 = lift2 + L1 * c1 * w1
        drop3 = L3 * sn3 * w3
        drop2 = drop3 + L2 * sn2 * w2
        drop1 = drop2 + L1 * sn1 * w1
        x2 = ex3 + ex2
        x1 = x2 + ex1
        y2 = ey3 + ey2
        y1 = y2 + ey1

        g = self.g
        fx, fy = self.load.force
        moment = self.load.moment
        R1, R2, R3 = self.geom.guide_radii
        # d(stretch_i)/d(theta_k): actuating tendon -R1 on joint 1; coupling
        # tendon i couples joints i-1 (+R_{i-1}) and i (-R_i).
        grad = (
            R1 * (n2 - n1) + g * lift1 - (fx * -y1 + fy * x1) - moment,
            R2 * (n3 - n2) + g * lift2 - (fx * -y2 + fy * x2) - moment,
            -R3 * n3 + g * lift3 - (fx * -ey3 + fy * ex3) - moment,
        )
        # The gravity and load Hessian entries (k, l) are tail[max(k, l)].
        tail1 = -g * drop1 + fx * x1 + fy * y1
        tail2 = -g * drop2 + fx * x2 + fy * y2
        tail3 = -g * drop3 + fx * ex3 + fy * ey3
        hess = (
            (R1 * R1 * (k1 + k2) + tail1, -R1 * R2 * k2 + tail2, tail3),
            (-R1 * R2 * k2 + tail2, R2 * R2 * (k2 + k3) + tail2,
             -R2 * R3 * k3 + tail3),
            (tail3, -R2 * R3 * k3 + tail3, R3 * R3 * k3 + tail3),
        )
        return grad, hess

    def axis_components(self, t1, t2, t3):
        """Gravity, elastic and load potentials at joint angles t1, t2, t3.

        Plain floats give one pose's potentials as floats, by math's sine
        and cosine. Arrays broadcast against each other, and each term is
        computed only on the angles it depends on: a search box passes
        its per-axis samples shaped (n, 1, 1), (1, n, 1) and (1, 1, n).
        Every point is computed with the operations, in the order, of a
        per-row evaluation, so its value does not depend on the shapes.
        """
        gravity, elastic, pieces = self.load_free(t1, t2, t3)
        return gravity, elastic, self.load_term(pieces)

    def load_free(self, t1, t2, t3):
        """The load-free part of `axis_components`: gravity, elastic and
        the distal link's pose pieces (x_j3, y2, c3, s3, phi3) that
        `load_term` reads."""
        if isinstance(t1, np.ndarray):
            sin, cos, clamp = np.sin, np.cos, np.maximum
        else:
            sin, cos, clamp = math.sin, math.cos, max
        l1, l2, l3 = self.geom.link_lengths
        m1, m2, m3 = self.geom.link_masses
        f1, f2, f3 = self.geom.com_fractions
        fl1, fl2, fl3 = f1 * l1, f2 * l2, f3 * l3
        phi1 = t1
        phi2 = phi1 + t2
        phi3 = phi2 + t3
        s1, s2, s3 = sin(phi1), sin(phi2), sin(phi3)
        c1, c2, c3 = cos(phi1), cos(phi2), cos(phi3)

        y1 = l1 * s1
        y2 = y1 + l2 * s2
        gravity = self.g * (
            m1 * (0.0 + fl1 * s1) + m2 * (y1 + fl2 * s2) + m3 * (y2 + fl3 * s3)
        )

        def spring(k_flex, k_ext, flex):
            taut, slack = clamp(flex, 0.0), clamp(-flex, 0.0)
            return k_flex * (taut * taut) + k_ext * (slack * slack)

        e1, e2, e3 = map(spring, self.k_flex, self.k_ext, self.stretches(t1, t2, t3))
        elastic = 0.5 * (e1 + e2 + e3)

        x_j3 = l1 * c1 + l2 * c2
        return gravity, elastic, (x_j3, y2, c3, s3, phi3)

    def fingertip(self, pieces):
        """Fingertip (px, py) of the pose `load_free` split into `pieces`."""
        x_j3, y2, c3, s3, _ = pieces
        l3 = self.geom.link_lengths[2]
        return x_j3 + l3 * c3, y2 + l3 * s3

    def load_term(self, pieces, tip=None):
        """The load potential of the pose `load_free` split into `pieces`.
        A load without an attach point acts at the fingertip, which `tip`
        passes in when it is already known."""
        x_j3, y2, c3, s3, phi3 = pieces
        if self.attach_local is None:
            px, py = self.fingertip(pieces) if tip is None else tip
        else:
            ax, ay = self.attach_local
            px = x_j3 + c3 * ax - s3 * ay
            py = y2 + s3 * ax + c3 * ay
        fx, fy = self.load.force
        return -(fx * px + fy * py) - self.load.moment * phi3

    def components(self, thetas: np.ndarray):
        """Gravity, elastic and load potentials for (N, 3) angle triples."""
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        return self.axis_components(thetas[:, 0], thetas[:, 1], thetas[:, 2])

    def energy(self, theta) -> float:
        """Total potential at one pose, from a triple of plain floats."""
        g, e, l = self.axis_components(*theta)
        return g + e + l


def _stiffness(trio, lt2, lt3) -> tuple[float, float, float]:
    """E A / L of one group's three tendons."""
    s1, s2, s3 = trio
    return (s1.axial_stiffness / s1.rest_length, s2.axial_stiffness / lt2,
            s3.axial_stiffness / lt3)


def _newton_step(grad, hess):
    """The Newton step -H^-1 grad by a closed-form LDL^T factorization of
    the 3 x 3 Hessian, or None when the Hessian is not positive definite."""
    (h00, h01, h02), (_, h11, h12), (_, _, h22) = hess
    d0 = h00
    if not d0 > 0.0:
        return None
    l10, l20 = h01 / d0, h02 / d0
    d1 = h11 - l10 * h01
    if not d1 > 0.0:
        return None
    l21 = (h12 - l20 * h01) / d1
    d2 = h22 - l20 * h02 - l21 * l21 * d1
    if not d2 > 0.0:
        return None
    g0, g1, g2 = grad
    y0 = -g0
    y1 = -g1 - l10 * y0
    y2 = -g2 - l20 * y0 - l21 * y1
    x2 = y2 / d2
    x1 = y1 / d1 - l21 * x2
    x0 = y0 / d0 - l10 * x1 - l20 * x2
    return (x0, x1, x2)


def solve_static(
    q: float,
    geom: FingerGeometry,
    specs,
    load: ExternalLoad,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> StaticSolution:
    """Loaded equilibrium at displacement q: the minimum of the potential.

    Newton steps on the potential's analytic gradient and Hessian start
    at the rigid-tendon pose theta_i = q / R_i and stop once the vertical
    fingertip movement between two steps is at most `threshold`, so at
    least two steps run. The active group is frozen once, from the net
    moment at that pose; the solution's tensions are its tangent cascade
    at the converged pose. Raises GeometryInfeasible when a coupling
    tendon cannot wrap its guides at the rigid or at the converged pose,
    and NoConvergence, with the steps' trace, after `max_iterations`
    steps or at a Hessian that is not positive definite.
    """
    return _solve(_PotentialModel(geom, specs, load, q), threshold, max_iterations)


def _solve(model: _PotentialModel, threshold: float,
           max_iterations: int) -> StaticSolution:
    """`solve_static` on a built potential model."""
    if threshold <= 0.0:
        raise ValueError("threshold must be > 0")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")

    geom, load, nominal, wrap0 = model.geom, model.load, model.nominal, model.wrap0
    model.wrap_at(nominal.theta)  # refuses a rigid pose the tendons cannot wrap
    pose = model.nominal_pose
    y_nominal = pose[0][3][1]

    group = _group_for_sign(_restraint_sign(pose_moments(pose, geom, load)))
    trio = model.trios[group]
    rest = (trio[0].rest_length, wrap0.rest_length_2, wrap0.rest_length_3)

    theta = nominal.theta
    y_prev = None
    last_residual = math.inf
    trace: list[IterationRecord] = []

    for k in range(1, max_iterations + 1):
        step = _newton_step(*model.gradient_hessian(theta))
        if step is None:
            raise NoConvergence(
                f"Hessian not positive definite before step {k}", trace=trace
            )
        theta = (theta[0] + step[0], theta[1] + step[1], theta[2] + step[2])
        cfg = Configuration(q=nominal.q, theta=theta)
        pose = link_pose(theta, geom)
        tensions = model.tensions(theta, group)

        y_k = pose[0][3][1]
        residual = abs(y_k - y_prev) if y_prev is not None else None
        trace.append(IterationRecord(
            index=k, theta=theta, fingertip_y=y_k,
            tensions=tensions,
            elongated_lengths=elongate_tendons(tensions, trio, wrap0),
            residual=residual,
        ))

        if residual is not None:
            if residual <= threshold:
                model.wrap_at(theta)  # and a solved one
                moments = pose_moments(pose, geom, model.load_at(theta, pose))
                tensions = _tensions_for(moments, geom, group)
                return StaticSolution(
                    configuration=cfg,
                    tensions=tensions,
                    fingertip=fingertip_state(pose[0], geom),
                    deflection_y=y_nominal - y_k,
                    iterations=k,
                    residual=residual,
                    rest_lengths=rest,
                    elongated_lengths=elongate_tendons(tensions, trio, wrap0),
                    trace=tuple(trace),
                )
            last_residual = residual
        y_prev = y_k

    raise NoConvergence(
        f"residual {last_residual:.3e} m above threshold {threshold:.3e} m "
        f"after {max_iterations} iterations",
        trace=trace,
    )


@dataclass(frozen=True)
class SweepRow:
    payload_kg: float
    deflection_m: float
    stiffness_n_per_m: float
    iterations: int
    status: str


def stiffness_sweep(
    geom: FingerGeometry,
    specs,
    q: float,
    payloads,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> list[SweepRow]:
    """Deflection and secant stiffness for a list of tip payloads (kg).

    Each payload hangs at the fingertip and is solved as `solve_static`
    would, on one potential model whose load-free state is built for the
    first payload and shared by the rest (`_PotentialModel.with_load`). A
    failing row is recorded with its error message and the sweep
    continues.
    """
    rows: list[SweepRow] = []
    base = None
    for m in payloads:
        if m < 0.0:
            rows.append(SweepRow(m, math.nan, math.nan, 0, "error: negative payload"))
            continue
        load = ExternalLoad.tip_payload(m, geom.gravity_accel)
        try:
            if base is None:
                base = _PotentialModel(geom, specs, load, q)
            sol = _solve(base.with_load(load), threshold, max_iterations)
        except TendonFingerError as exc:
            rows.append(SweepRow(m, math.nan, math.nan, 0,
                                 f"error: {exc.__class__.__name__}: {exc}"))
            continue
        force = m * geom.gravity_accel
        if sol.deflection_y != 0.0:
            stiffness = force / sol.deflection_y
        else:
            stiffness = math.nan if force != 0.0 else 0.0
        rows.append(SweepRow(m, sol.deflection_y, stiffness, sol.iterations, "ok"))
    return rows


SWEEP_CSV_HEADER = "payload_kg,deflection_mm,stiffness_N_per_m,iterations,status"


def sweep_to_csv(rows) -> str:
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.payload_kg:.3f},{r.deflection_m * 1e3:.6f},"
            f"{r.stiffness_n_per_m:.6f},{r.iterations},{r.status}"
        )
    return "\n".join(lines) + "\n"


def trace_to_list(trace) -> list[dict]:
    """JSON-ready view of a solve's iteration records."""
    return [
        {
            "iteration": rec.index,
            "theta_rad": list(rec.theta),
            "fingertip_y_m": rec.fingertip_y,
            "tensions_n": list(rec.tensions),
            "elongated_lengths_m": list(rec.elongated_lengths),
            "residual_m": rec.residual,
        }
        for rec in trace
    ]


def solution_to_dict(sol: StaticSolution) -> dict:
    """JSON-ready view of a solution; SI fields are authoritative,
    mm/deg fields are derived at output time."""
    theta = sol.configuration.theta
    return {
        "q_m": sol.configuration.q,
        "theta_rad": list(theta),
        "theta_deg": [math.degrees(t) for t in theta],
        "active_group": sol.tensions.active_group.value,
        "tensions_n": list(sol.tensions.as_tuple()),
        "fingertip_m": list(sol.fingertip.position),
        "fingertip_mm": [v * 1e3 for v in sol.fingertip.position],
        "deflection_y_m": sol.deflection_y,
        "deflection_y_mm": sol.deflection_y * 1e3,
        "iterations": sol.iterations,
        "residual_m": sol.residual,
        "rest_lengths_m": list(sol.rest_lengths),
        "rest_lengths_mm": [v * 1e3 for v in sol.rest_lengths],
        "elongated_lengths_m": list(sol.elongated_lengths),
        "elongated_lengths_mm": [v * 1e3 for v in sol.elongated_lengths],
        "trace": trace_to_list(sol.trace),
    }
