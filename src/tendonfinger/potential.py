"""
The elastic model: the finger's total potential over its three joint
angles, shared by the static solver and the energy oracle.

The potential is link gravity plus the elastic energy of every tendon
plus the external load's potential. `PotentialModel.energy` sums them at
one pose from the pose's points (`link_pose`, `PotentialModel.load_point`),
as the local proof and the oracle's tangent balance read them; only the
Newton driver computes its iterates' link cosines and sines inline. The
load acts at one point of the distal link, the fingertip (L3, -0.0) where
it gives none (`PotentialModel.attach_local`).

Tendon stretch model: the actuating tendon's routed length changes by
R1 * (theta_hat_1 - theta_1) relative to the prescribed displacement;
each coupling tendon spans two adjacent guide cylinders, so it stretches
only on the differential motion R_i * d_i - R_{i-1} * d_{i-1} with
d_i = theta_hat_i - theta_i. Extension-group stretches are the mirror
image. A slack tendon (negative stretch) stores no energy. Hooke's law
T = (E A / L) * stretch gives each tendon's tension, where a coupling
tendon's rest length L is fixed by the zero-pose wrap geometry. So at
each index one tendon is taut: the flexion tendon where the
flexion-side stretch is >= 0, the extension tendon where it is < 0.

Newton steps: `PotentialModel.newton_steps` is the one driver of the
static solver and the energy oracle, each of which adds its own checks
and stop rule. It takes `ldl_step` of `derivatives` (the gradient and
upper Hessian) at every iterate, written out in local floats so that a
step makes no call; tests pin the driver to that reference bit for bit.

Certificates: the elastic energy is a sum of convex springs of stretches
that are affine in the joint angles, so it is strongly convex; gravity and
the load bend the potential by a bounded amount. Where the first outweighs
the second everywhere, the potential has one minimum (the global proof).
Where it does not, the Hessian at one pose and how fast it can change
bound it on a ball about that pose (the local proof,
`PotentialModel.local_certificate`). Either way the distance of a pose
from the minimum is bounded by the gradient there
(`PotentialModel.fingertip_bound`).
"""

from __future__ import annotations

import math
from math import cos, isfinite, sin
from typing import NamedTuple

from .errors import GeometryInfeasible, NoConvergence
from .model import (
    ExternalLoad,
    FingerGeometry,
    TendonGroup,
    TendonSpec,
    coupling_angles,
    link_pose,
)


class WrapGeometry(NamedTuple):
    """Zero-pose wrap angles of the coupling tendons and their geometric
    rest lengths."""

    alpha2_0: float
    alpha3_0: float
    rest_length_2: float
    rest_length_3: float

    def angles_at(self, theta) -> tuple[float, float]:
        """Wrap angles alpha_i = alpha_i0 - theta_i of the coupling tendons
        at joint angles `theta`; raises GeometryInfeasible outside (0, pi)."""
        angles = []
        for alpha0, th in ((self.alpha2_0, theta[1]), (self.alpha3_0, theta[2])):
            alpha = alpha0 - th
            if alpha <= 0.0 or alpha >= math.pi:
                raise GeometryInfeasible(
                    f"wrap angle {alpha:.4f} rad outside (0, pi) at theta = {th:.4f}"
                )
            angles.append(alpha)
        return tuple(angles)


def zero_pose_wrap(geom: FingerGeometry) -> WrapGeometry:
    """Wrap geometry of the coupling tendons at the straight pose.

    alpha_0 = pi - arccos((R_prox + R_dist) / span) for the joint-2 and
    joint-3 tendons; rest lengths follow as
    L_T = (alpha_0 - cot(alpha_0)) * (R_prox + R_dist), positive since
    alpha_0 lies in [pi/2, pi).
    """
    r1, r2, r3 = geom.guide_radii
    l1, l2, _ = geom.link_lengths
    pairs = []
    for span, radii_sum in ((l1, r1 + r2), (l2, r2 + r3)):
        if span <= 0.0:
            raise GeometryInfeasible("link span is zero; wrap angle undefined")
        c = radii_sum / span
        if not 0.0 <= c < 1.0:
            raise GeometryInfeasible(
                f"wrap ratio {c:.4f} outside [0, 1); guide circles overlap the span"
            )
        alpha0 = math.pi - math.acos(c)
        pairs.append((alpha0, (alpha0 - 1.0 / math.tan(alpha0)) * radii_sum))
    (a20, lt2), (a30, lt3) = pairs
    return WrapGeometry(alpha2_0=a20, alpha3_0=a30, rest_length_2=lt2, rest_length_3=lt3)


def group_specs(
    specs, group: TendonGroup
) -> tuple[TendonSpec, TendonSpec, TendonSpec]:
    """The three tendons of one group, ordered by index."""
    trio = sorted((s for s in specs if s.group is group), key=lambda s: s.index)
    if len(trio) != 3 or [s.index for s in trio] != [1, 2, 3]:
        raise ValueError(f"need exactly tendons 1..3 of group {group.value}")
    return tuple(trio)


def _stiffness(trio, lt2, lt3) -> tuple[float, float, float]:
    """E A / L of one group's three tendons."""
    s1, s2, s3 = trio
    return (s1.axial_stiffness / s1.rest_length, s2.axial_stiffness / lt2,
            s3.axial_stiffness / lt3)


# Unit roundoff of IEEE double precision: one rounding changes a value by
# at most this fraction of it.
UNIT_ROUNDOFF = 2.0 ** -53
# Rounding units that the certified fingertip bound adds as its floor
# (see `PotentialModel.fingertip_bound`).
FLOOR_ROUNDINGS = 64


def elastic_hessian(radii, k):
    """Upper entries (h00, h01, h02, h11, h12, h22) of J^T diag(k) J, the
    elastic Hessian of springs of stiffness k on the three stretches.

    J = d(stretch)/d(theta) is lower bidiagonal (-R1 on joint 1; +R_{i-1}
    and -R_i for tendon i), so the matrix is tridiagonal."""
    r1, r2, r3 = radii
    k1, k2, k3 = k
    return (r1 * r1 * (k1 + k2), -r1 * r2 * k2, 0.0,
            r2 * r2 * (k2 + k3), -r2 * r3 * k3, r3 * r3 * k3)


def min_eigenvalue(h00, h01, h02, h11, h12, h22) -> float:
    """Smallest eigenvalue of the symmetric 3 x 3 matrix with these upper
    entries, never overestimated.

    The eigenvalue lambda comes from the trigonometric closed form. The
    result is then lowered by 2 delta, where delta starts at 16 rounding
    units of the matrix's Frobenius norm. The matrix shifted by
    lambda - delta must pass the LDL^T positivity test of `ldl_step`,
    or delta doubles. A passing test proves lambda_min >= lambda - delta
    up to the factorization's backward error, a few rounding units of the
    norm, which the second delta covers. A zero matrix, or one whose
    entries overflow the closed form, gives -inf.
    """
    q = (h00 + h11 + h22) / 3.0
    d0, d1, d2 = h00 - q, h11 - q, h22 - q
    off = h01 * h01 + h12 * h12 + h02 * h02
    p = math.sqrt((d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * off) / 6.0)
    lam = q
    if p > 0.0:
        det = (d0 * d1 * d2 + 2.0 * h01 * h12 * h02
               - d0 * h12 * h12 - d1 * h02 * h02 - d2 * h01 * h01)
        cube = 2.0 * p * p * p
        # A spread whose cube underflows leaves the angle unknown; r = -1
        # takes the closed form's lowest value, q - 2p.
        r = min(max(det / cube, -1.0), 1.0) if cube > 0.0 else -1.0
        lam = q + 2.0 * p * math.cos(math.acos(r) / 3.0 + 2.0 * math.pi / 3.0)
    delta = 16.0 * UNIT_ROUNDOFF * math.sqrt(
        h00 * h00 + h11 * h11 + h22 * h22 + 2.0 * off)
    while 0.0 < delta < math.inf:
        s = lam - delta
        if ldl_step(0.0, 0.0, 0.0, h00 - s, h01, h02, h11 - s, h12, h22 - s) is not None:
            return lam - 2.0 * delta
        delta *= 2.0
    return -math.inf


class PotentialModel:
    """The total potential of one load case at displacement q
    (`nominal.q`), from plain floats: the one Newton driver of the solver
    and the oracle (`newton_steps`), its reference (`derivatives` and
    `ldl_step`), and the oracle's proofs.

    A model is not changed after it is built. Everything but `load`,
    `attach_local` and the load's share of the certificates
    (`load_curvature`, `load_lipschitz`, `moment_scale`) is load-free and
    immutable, so `with_load` shares it among the load cases of one
    report or sweep.
    `sides` holds, per tendon index, the flexion and extension tendons'
    E A / L and specs, so that `tensions` picks each index's taut tendon
    in one pass."""

    def __init__(self, geom: FingerGeometry, specs, load: ExternalLoad, q: float):
        self.geom = geom
        self.nominal = coupling_angles(q, geom)
        self.nominal_pose = link_pose(self.nominal.theta, geom)
        self.g = geom.gravity_accel
        self.wrap0 = zero_pose_wrap(geom)
        self.wrap0.angles_at(self.nominal.theta)  # refuses an unwrappable rigid pose
        lt2, lt3 = self.wrap0.rest_length_2, self.wrap0.rest_length_3
        flex = group_specs(specs, TendonGroup.FLEXION)
        ext = group_specs(specs, TendonGroup.EXTENSION)
        self.k_flex = _stiffness(flex, lt2, lt3)
        self.k_ext = _stiffness(ext, lt2, lt3)
        self.sides = tuple(zip(self.k_flex, self.k_ext, flex, ext))

        # Joint k lifts every link j >= k: link j's own centre of mass by
        # frac_j L_j, and each later link's by L_j.
        m1, m2, m3 = geom.link_masses
        f1, f2, f3 = geom.com_fractions
        self.lifted = (m1 * f1 + (m2 + m3), m2 * f2 + m3, m3 * f3)
        # mu_e: the elastic energy's strong-convexity modulus, load-free.
        self.elastic_convexity = min_eigenvalue(*elastic_hessian(
            geom.guide_radii, map(min, self.k_flex, self.k_ext)))
        self._apply(load)

    def with_load(self, load: ExternalLoad) -> "PotentialModel":
        """This model under `load`: a copy that shares every load-free
        field, all of them immutable, and computes only `load`,
        `attach_local` and the load's share of the certificate."""
        model = object.__new__(type(self))
        model.__dict__.update(self.__dict__)
        model._apply(load)
        return model

    def _apply(self, load: ExternalLoad) -> None:
        self.load = load
        if load.application_point is None:
            # The fingertip: with -0.0, `load_point` gives `link_pose`'s
            # tip bit for bit, signed zeros included, where L3 > 0.
            self.attach_local = (self.geom.link_lengths[2], -0.0)
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
        # |tail_k| <= b_k at every pose: link j's weight lifts by at most
        # g lifted_j L_j and the force turns by at most |F| l_j, where l_3
        # reaches the attach point. The moment adds no curvature.
        l1, l2, l3 = self.geom.link_lengths
        reach = math.hypot(*self.attach_local)
        f = math.hypot(*load.force)
        w1, w2, w3 = self.lifted
        b3 = self.g * w3 * l3 + f * reach
        b2 = b3 + (self.g * w2 * l2 + f * l2)
        b1 = b2 + (self.g * w1 * l1 + f * l1)
        # The bound matrix tail[max(k, l)] holds b1 once, b2 three times and
        # b3 five times; 16 rounding units keep B from falling short.
        self.load_curvature = (1.0 + 16.0 * UNIT_ROUNDOFF) * math.sqrt(
            b1 * b1 + 3.0 * (b2 * b2) + 5.0 * (b3 * b3))
        # |d tail_m / d theta_i| <= b_max(m, i), so the entry (k, l) moves
        # by at most b_max(k, l, i) per radian of theta_i: the index
        # triples with largest index 1, 2 and 3 number 1, 7 and 19. L bounds
        # the Frobenius norm of that Hessian's change per radian.
        self.load_lipschitz = (1.0 + 16.0 * UNIT_ROUNDOFF) * math.sqrt(
            b1 * b1 + 7.0 * (b2 * b2) + 19.0 * (b3 * b3))
        self.moment_scale = b1 + abs(load.moment)

    @property
    def convexity(self) -> float:
        """mu = mu_e - B: the potential is mu-strongly convex where it is
        positive."""
        return self.elastic_convexity - self.load_curvature

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

    def load_point(self, theta, pose) -> tuple[float, float]:
        """Base-frame (x, y) where the load's force acts at joint angles
        `theta`, whose `link_pose` is `pose`: `attach_local` carried by the
        distal link, as in the potential. A fingertip load's point is the
        pose's tip."""
        t1, t2, t3 = theta
        jx, jy = pose[0][2]
        phi3 = (t1 + t2) + t3
        c, s = math.cos(phi3), math.sin(phi3)
        ax, ay = self.attach_local
        return jx + c * ax - s * ay, jy + s * ax + c * ay

    def tensions(self, theta):
        """Hooke tensions of the taut tendon at each index at one pose,
        with their groups and specs: flexion where the stretch is >= 0,
        extension where it is < 0, the sign rule of `derivatives`'
        net tensions. Returns (tensions, groups, specs), three triples;
        every tension is >= 0."""
        flex, ext = TendonGroup.FLEXION, TendonGroup.EXTENSION
        s1, s2, s3 = self.stretches(*theta)
        (kf1, ke1, fs1, es1), (kf2, ke2, fs2, es2), (kf3, ke3, fs3, es3) = self.sides
        t1, g1, p1 = (kf1 * s1, flex, fs1) if s1 >= 0.0 else (ke1 * -s1, ext, es1)
        t2, g2, p2 = (kf2 * s2, flex, fs2) if s2 >= 0.0 else (ke2 * -s2, ext, es2)
        t3, g3, p3 = (kf3 * s3, flex, fs3) if s3 >= 0.0 else (ke3 * -s3, ext, es3)
        return (t1, t2, t3), (g1, g2, g3), (p1, p2, p3)

    def derivatives(self, t1, t2, t3, c1, c2, c3, sn1, sn2, sn3):
        """Gradient and upper Hessian of the total potential at joint angles
        t1, t2, t3 with link-angle cosines c1..c3 and sines sn1..sn3, as
        nine flat floats (g0, g1, g2, h00, h01, h02, h11, h12, h22).

        Elastic: tendon i pulls with J_i^T T_i and stiffens by
        J^T diag(k_i) J, J = d(stretch)/d(theta); a zero stretch counts as
        taut in both groups, so the unloaded pose keeps a positive-definite
        Hessian, and the gradient takes the taut side's one-sided
        derivative (a clamped stretch pulls with zero tension). Gravity and
        the load reach joint k through every link j >= k, so their
        Hessian entry (k, l) sums over j >= max(k, l): a tail sum, added
        from the distal link inwards.

        This is the reference that `newton_steps` writes out inline, and
        tests pin the two bit for bit; no solve calls it.
        """
        s1, s2, s3 = self.stretches(t1, t2, t3)
        kf1, kf2, kf3 = self.k_flex
        ke1, ke2, ke3 = self.k_ext
        n1 = kf1 * max(s1, 0.0) - ke1 * max(-s1, 0.0)
        n2 = kf2 * max(s2, 0.0) - ke2 * max(-s2, 0.0)
        n3 = kf3 * max(s3, 0.0) - ke3 * max(-s3, 0.0)
        k1 = (kf1 if s1 >= 0.0 else 0.0) + (ke1 if s1 <= 0.0 else 0.0)
        k2 = (kf2 if s2 >= 0.0 else 0.0) + (ke2 if s2 <= 0.0 else 0.0)
        k3 = (kf3 if s3 >= 0.0 else 0.0) + (ke3 if s3 <= 0.0 else 0.0)

        L1, L2, L3 = self.geom.link_lengths
        w1, w2, w3 = self.lifted
        # Per-link x and y extents of the load's lever; on the distal link
        # they reach the attach point.
        ax, ay = self.attach_local
        ex1, ex2, ex3 = L1 * c1, L2 * c2, c3 * ax - sn3 * ay
        ey1, ey2, ey3 = L1 * sn1, L2 * sn2, sn3 * ax + c3 * ay

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
        # The gravity and load Hessian entries (k, l) are tail[max(k, l)].
        tail1 = -g * drop1 + fx * x1 + fy * y1
        tail2 = -g * drop2 + fx * x2 + fy * y2
        tail3 = -g * drop3 + fx * ex3 + fy * ey3
        # d(stretch_i)/d(theta_k): actuating tendon -R1 on joint 1; coupling
        # tendon i couples joints i-1 (+R_{i-1}) and i (-R_i).
        return (
            R1 * (n2 - n1) + g * lift1 - (fx * -y1 + fy * x1) - moment,
            R2 * (n3 - n2) + g * lift2 - (fx * -y2 + fy * x2) - moment,
            -R3 * n3 + g * lift3 - (fx * -ey3 + fy * ex3) - moment,
            R1 * R1 * (k1 + k2) + tail1, -R1 * R2 * k2 + tail2, tail3,
            R2 * R2 * (k2 + k3) + tail2, -R2 * R3 * k3 + tail3,
            R3 * R3 * k3 + tail3,
        )

    def newton_steps(self, theta):
        """The Newton iterates of the potential from joint angles `theta`:
        the one driver of the solver and the oracle, which add their own
        checks and stop rules.

        Each step yields one flat tuple (t1, t2, t3, c1, c2, c3, s1, s2,
        s3, d1, d2, d3): the new iterate, its link cosines and sines
        (`link_trig`) and the step d that reached it. The step is
        `ldl_step` of `derivatives` at the last iterate, written out in
        local floats operation for operation (`max(s, 0.0)` as
        `0.0 if s < 0.0 else s`), so every iterate equals that
        reference's bit for bit; the model's constants are read once per
        run. The driver never stops by itself. It raises NoConvergence,
        steps numbered from 1, at a Hessian that is not positive definite
        and at a step to a non-finite angle.
        """
        h1, h2, h3 = self.nominal.theta
        R1, R2, R3 = self.geom.guide_radii
        L1, L2, L3 = self.geom.link_lengths
        kf1, kf2, kf3 = self.k_flex
        ke1, ke2, ke3 = self.k_ext
        w1, w2, w3 = self.lifted
        g = self.g
        fx, fy = self.load.force
        moment = self.load.moment
        ax, ay = self.attach_local
        # Products that `derivatives` forms first, by left-to-right order.
        r11, r22, r33 = R1 * R1, R2 * R2, R3 * R3
        r12, r23, neg_r3, neg_g = -R1 * R2, -R2 * R3, -R3, -g
        t1, t2, t3 = theta
        phi2 = t1 + t2
        phi3 = phi2 + t3
        c1, c2, c3 = cos(t1), cos(phi2), cos(phi3)
        sn1, sn2, sn3 = sin(t1), sin(phi2), sin(phi3)
        k = 1
        while True:
            # `stretches` and the net tensions and taut stiffnesses.
            rd1 = (h1 - t1) * R1
            rd2 = (h2 - t2) * R2
            rd3 = (h3 - t3) * R3
            s1, s2, s3 = rd1, rd2 - rd1, rd3 - rd2
            n1 = kf1 * (0.0 if s1 < 0.0 else s1) - ke1 * (0.0 if s1 > 0.0 else -s1)
            n2 = kf2 * (0.0 if s2 < 0.0 else s2) - ke2 * (0.0 if s2 > 0.0 else -s2)
            n3 = kf3 * (0.0 if s3 < 0.0 else s3) - ke3 * (0.0 if s3 > 0.0 else -s3)
            k1 = (kf1 if s1 >= 0.0 else 0.0) + (ke1 if s1 <= 0.0 else 0.0)
            k2 = (kf2 if s2 >= 0.0 else 0.0) + (ke2 if s2 <= 0.0 else 0.0)
            k3 = (kf3 if s3 >= 0.0 else 0.0) + (ke3 if s3 <= 0.0 else 0.0)

            # `derivatives`' gravity and load terms.
            ex1, ex2, ex3 = L1 * c1, L2 * c2, c3 * ax - sn3 * ay
            ey1, ey2, ey3 = L1 * sn1, L2 * sn2, sn3 * ax + c3 * ay
            lift3 = L3 * c3 * w3
            lift2 = lift3 + ex2 * w2
            lift1 = lift2 + ex1 * w1
            drop3 = L3 * sn3 * w3
            drop2 = drop3 + ey2 * w2
            drop1 = drop2 + ey1 * w1
            x2 = ex3 + ex2
            x1 = x2 + ex1
            y2 = ey3 + ey2
            y1 = y2 + ey1
            tail1 = neg_g * drop1 + fx * x1 + fy * y1
            tail2 = neg_g * drop2 + fx * x2 + fy * y2
            tail3 = neg_g * drop3 + fx * ex3 + fy * ey3
            g0 = R1 * (n2 - n1) + g * lift1 - (fx * -y1 + fy * x1) - moment
            g1 = R2 * (n3 - n2) + g * lift2 - (fx * -y2 + fy * x2) - moment
            g2 = neg_r3 * n3 + g * lift3 - (fx * -ey3 + fy * ex3) - moment
            h00 = r11 * (k1 + k2) + tail1
            h01 = r12 * k2 + tail2
            h11 = r22 * (k2 + k3) + tail2
            h12 = r23 * k3 + tail3
            h22 = r33 * k3 + tail3

            # `ldl_step`, with h02 = tail3.
            if not h00 > 0.0:
                break
            l10, l20 = h01 / h00, tail3 / h00
            e1 = h11 - l10 * h01
            if not e1 > 0.0:
                break
            l21 = (h12 - l20 * h01) / e1
            e2 = h22 - l20 * tail3 - l21 * l21 * e1
            if not e2 > 0.0:
                break
            v0 = -g0
            v1 = -g1 - l10 * v0
            v2 = -g2 - l20 * v0 - l21 * v1
            d3 = v2 / e2
            d2 = v1 / e1 - l21 * d3
            d1 = v0 / h00 - l10 * d2 - l20 * d3

            t1, t2, t3 = t1 + d1, t2 + d2, t3 + d3
            if not (isfinite(t1) and isfinite(t2) and isfinite(t3)):
                raise NoConvergence(f"Newton step {k} gave a non-finite joint angle")
            # `link_trig` of the new iterate.
            phi2 = t1 + t2
            phi3 = phi2 + t3
            c1, c2, c3 = cos(t1), cos(phi2), cos(phi3)
            sn1, sn2, sn3 = sin(t1), sin(phi2), sin(phi3)
            yield t1, t2, t3, c1, c2, c3, sn1, sn2, sn3, d1, d2, d3
            k += 1
        raise NoConvergence(f"Hessian not positive definite before step {k}")

    def local_certificate(self, theta, gradient_norm):
        """The local proof at joint angles `theta`, where the potential's
        gradient has norm `gradient_norm`: (lam, radius, modulus). Where
        lam > 0 the potential is lam/2-strongly convex on the ball of
        `radius` about `theta`; `modulus` is lam/2 where that ball holds a
        minimum, which is then its only one, and None where it may not.

        - rho = min_i |s_i| / ||grad s_i||, the distance to the nearest
          plane where a stretch s_i changes sign (norms R1, hypot(R1, R2)
          and hypot(R2, R3)). Within rho the elastic Hessian is the
          constant J^T diag(k_taut) J of the tendons taut at `theta`.
        - The gravity and load Hessian comes from the pose's points
          (`link_pose`, `load_point`), not from `derivatives`: entry (k, l) is
          tail_max(k, l), tail_k = F . (p - J_k) - g sum_{j >= k} m_j
          (y_cj - y_Jk), and it moves by at most `load_lipschitz` (L) in
          Frobenius norm per radian.
        - lam is `min_eigenvalue` of their sum at `theta`, lowered by
          FLOOR_ROUNDINGS rounding units of B + trace(J^T diag(k_taut) J),
          which covers the rounding of the computed entries.
        - radius = min(rho, lam / (2 L)), so the Hessian stays at least
          lam - L radius >= lam/2 on the ball.
        Where gradient_norm + 64u S < lam radius / 2 (64u S covers a
        computed gradient's rounding, see `fingertip_bound`), the minimum
        of the potential over the ball lies within 2 gradient_norm / lam
        of `theta`, inside the ball: a stationary point, and the ball's
        only one (Nesterov, Introductory Lectures on Convex Optimization,
        2004, section 1.2.4).
        """
        r1, r2, r3 = self.geom.guide_radii
        s1, s2, s3 = self.stretches(*theta)
        rho = min(abs(s1) / r1, abs(s2) / math.hypot(r1, r2),
                  abs(s3) / math.hypot(r2, r3))
        elastic = elastic_hessian(self.geom.guide_radii, [
            kf if s > 0.0 else ke
            for kf, ke, s in zip(self.k_flex, self.k_ext, (s1, s2, s3))])
        pose = link_pose(theta, self.geom)
        points, coms = pose
        px, py = self.load_point(theta, pose)
        fx, fy = self.load.force
        masses = self.geom.link_masses
        t1, t2, t3 = (
            fx * (px - jx) + fy * (py - jy)
            - self.g * sum(m * (c[1] - jy) for m, c in zip(masses[k:], coms[k:]))
            for k, (jx, jy) in enumerate(points[:3]))
        lam = min_eigenvalue(*(e + t for e, t in zip(elastic, (t1, t2, t3, t2, t3, t3))))
        lam -= FLOOR_ROUNDINGS * UNIT_ROUNDOFF * (
            self.load_curvature + elastic[0] + elastic[3] + elastic[5])
        radius = rho
        if self.load_lipschitz > 0.0:
            radius = min(rho, lam / (2.0 * self.load_lipschitz))
        slack = FLOOR_ROUNDINGS * UNIT_ROUNDOFF * self.moment_scale
        proven = lam > 0.0 and gradient_norm + slack < 0.5 * lam * radius
        return lam, radius, 0.5 * lam if proven else None

    def fingertip_bound(self, gradient_norm, mu):
        """Certified bound (m) on the distance from the fingertip of a pose
        whose potential gradient has norm `gradient_norm` to the fingertip
        of the minimum that a proof of strong-convexity modulus `mu`
        covers; None when `mu` is None or not positive. `mu` is the global
        `convexity`, or a `local_certificate`'s modulus for a pose in its
        ball.

        Global proof: the elastic energy is a sum of springs, each at least
        min(k_flex, k_ext)-strongly convex in its stretch, so it is
        `elastic_convexity`-strongly convex in theta (mu_e). Every entry
        (k, l) of the gravity and load Hessian is tail[max(k, l)], at most
        b_max(k, l) in size, so that Hessian's norm is at most the bound
        matrix's Frobenius norm, `load_curvature` (B). The potential is
        then mu-strongly convex on all of R^3, mu = mu_e - B = `convexity`,
        and its minimum theta* is unique. Either proof gives
        ||theta - theta*|| <= ||grad U(theta)|| / mu on the region where it
        holds (Boyd & Vandenberghe, Convex Optimization, 2004, section
        9.1.2). The fingertip moves at most `lever` per radian, the
        Frobenius norm of a bound on its Jacobian: column k of
        d(tip)/d(theta) is at most the length of links k..3.

        The bound adds a floor of FLOOR_ROUNDINGS rounding units u of
        total_length + 2 lever S / mu, S = b_1 + |M| (`moment_scale`),
        for what the exact bound does not see in computed numbers:
        - A computed fingertip coordinate sums three link terms. A link's
          angle sums up to three joint angles (two roundings of an angle
          below 8 rad: 16u times the link length), its sine or cosine is
          within 2u, the product adds u and the two sums 2u of the total
          length: 21u of total_length. Two fingertips and two coordinates
          give under sqrt(2) 42u < 64u of total_length.
        - A computed gradient component sums up to eight moment and
          tension terms, each about S or, for a tension term near an
          equilibrium, up to 4S (it balances the moments distal of its
          joint, scaled by radius ratios below 2): under 32u S per
          component and 64u S in norm. That error counts twice, in the
          given gradient's norm and in the compared pose's own gradient,
          which a converged Newton run leaves at rounding level; lever / mu
          turns each into a fingertip distance.
        """
        if mu is None or not mu > 0.0:
            return None
        l1, l2, l3 = self.geom.link_lengths
        lever = math.sqrt((l1 + l2 + l3) ** 2 + (l2 + l3) ** 2 + l3 * l3)
        floor = FLOOR_ROUNDINGS * UNIT_ROUNDOFF * (
            self.geom.total_length + 2.0 * lever * self.moment_scale / mu)
        return lever * gradient_norm / mu + floor

    def energy(self, theta) -> float:
        """Total potential at one pose, from a triple of plain floats: the
        links' weights at their centres of mass, the tendons' springs and
        the load at its point, from the pose's points (`link_pose`,
        `load_point`)."""
        pose = link_pose(theta, self.geom)
        _, ((_, y1), (_, y2), (_, y3)) = pose
        m1, m2, m3 = self.geom.link_masses
        gravity = self.g * (m1 * y1 + m2 * y2 + m3 * y3)

        def spring(k_flex, k_ext, flex):
            taut, slack = max(flex, 0.0), max(-flex, 0.0)
            return k_flex * (taut * taut) + k_ext * (slack * slack)

        e1, e2, e3 = map(spring, self.k_flex, self.k_ext, self.stretches(*theta))
        px, py = self.load_point(theta, pose)
        fx, fy = self.load.force
        t1, t2, t3 = theta
        load = -(fx * px + fy * py) - self.load.moment * ((t1 + t2) + t3)
        return gravity + 0.5 * (e1 + e2 + e3) + load


def link_trig(t1, t2, t3):
    """Cosines and sines (c1, c2, c3, s1, s2, s3) of the link angles t1,
    t1 + t2 and (t1 + t2) + t3, summed in `link_pose`'s order: what
    `derivatives` takes after the joint angles. The driver computes them
    inline; the remaining callers are tests that feed `derivatives`."""
    phi2 = t1 + t2
    phi3 = phi2 + t3
    return (math.cos(t1), math.cos(phi2), math.cos(phi3),
            math.sin(t1), math.sin(phi2), math.sin(phi3))


def ldl_step(g0, g1, g2, h00, h01, h02, h11, h12, h22):
    """The Newton step -H^-1 g by a closed-form LDL^T factorization of the
    symmetric 3 x 3 Hessian given by its upper entries, or None when it is
    not positive definite. `PotentialModel.newton_steps` writes it out
    inline; `min_eigenvalue` uses it as its positivity test."""
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
    y0 = -g0
    y1 = -g1 - l10 * y0
    y2 = -g2 - l20 * y0 - l21 * y1
    x2 = y2 / d2
    x1 = y1 / d1 - l21 * x2
    x0 = y0 / d0 - l10 * x1 - l20 * x2
    return (x0, x1, x2)
