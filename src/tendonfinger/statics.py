"""
Static equilibrium of the coupled finger under external load.

Tensions are found by three sequential scalar moment balances, distal to
proximal: the distal link alone about joint 3, the distal two links about
joint 2, and the whole chain about joint 1. Each joint's tendon acts
tangentially on its guide cylinder, so its own-joint moment arm is the
guide radius.

Two formulations of the coupling-tendon feedback on the proximal
balances are available:

  "tangent"        A coupling tendon leaves adjacent guide cylinders
                   along their internal common tangent, so the distal
                   tension re-enters the next proximal balance with the
                   proximal guide radius as its arm and opposite sense.
                   The balances collapse to the cascade
                   T_k = T_{k+1} + |M_k| / R_k. Default.

  "wrap-integral"  The distal tension keeps its own-joint arm and the
                   distributed normal load on the distal guide is
                   integrated with the link length as lever
                   (wrap_moment below). Kept for comparison reports; at
                   realistic loads it produces runaway proximal tensions
                   (see the oracle-check report).

Tendon elasticity closes the loop: tensions stretch the active-group
tendons (Hooke), each joint gives way by its own tendon's stretch / R_i
against the restraint, and tensions are re-solved at the corrected
configuration until the vertical fingertip movement between passes drops
below a threshold. Note the per-joint give-way: this reproduces the
validated load-deflection behavior, but it is not the stationary point
of the coupled-path elastic energy that the energy module minimizes; the
oracle-check report quantifies the difference.
"""

from __future__ import annotations

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
DIVERGENCE_STREAK = 5

_NEG_TOL = 1e-9

TENSION_MODELS = ("tangent", "wrap-integral")


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
        alpha = alpha0 - th
        if alpha <= 0.0 or alpha >= math.pi:
            raise GeometryInfeasible(
                f"wrap angle {alpha:.4f} rad outside (0, pi) at theta = {th:.4f}"
            )
        rest = (alpha0 - 1.0 / math.tan(alpha0)) * radii_sum
        if rest <= 0.0:
            raise GeometryInfeasible("non-positive tendon rest length")
        pairs.append((alpha, alpha0, rest))

    (a2, a20, lt2), (a3, a30, lt3) = pairs
    return WrapGeometry(
        alpha2=a2, alpha3=a3, alpha2_0=a20, alpha3_0=a30,
        rest_length_2=lt2, rest_length_3=lt3,
    )


def coupling_rest_lengths(geom: FingerGeometry) -> tuple[float, float]:
    """Geometric rest lengths of the two coupling tendons (joints 2 and 3)."""
    wrap = wrap_angles(Configuration(q=0.0, theta=(0.0, 0.0, 0.0)), geom)
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


def _cascade(
    moments,
    config: Configuration,
    geom: FingerGeometry,
    sign: float,
    model: str,
) -> tuple[float, float, float]:
    r1, r2, r3 = geom.guide_radii
    l1, l2, _ = geom.link_lengths
    t3 = -moments[2] / (sign * r3)
    if model == "tangent":
        t2 = t3 - moments[1] / (sign * r2)
        t1 = t2 - moments[0] / (sign * r1)
    else:
        wrap = wrap_angles(config, geom)
        th = config.theta
        t2 = (-moments[1] / sign - t3 * r3
              + wrap_moment(t3, l2, th[2], wrap.alpha3)) / r2
        t1 = (-moments[0] / sign - t2 * r2
              + wrap_moment(t2, l1, th[1], wrap.alpha2)) / r1
    return (float(t1), float(t2), float(t3))


def solve_tensions(
    config: Configuration,
    geom: FingerGeometry,
    load: ExternalLoad,
    *,
    model: str = "tangent",
    group: TendonGroup | None = None,
) -> TensionSet:
    """Tendon tensions balancing the load at a fixed configuration.

    Solves the three moment balances sequentially (joint 3, then 2, then
    1). The active group is chosen from the sign of the net external
    moment unless forced via `group`; if no single group yields
    non-negative tensions the load is not holdable and TensionInfeasible
    is raised.
    """
    _check_model(model)
    moments = pose_moments(link_pose(config.theta, geom), geom, load)
    return _tensions_for(moments, config, geom, model, group)


def _check_model(model: str) -> None:
    if model not in TENSION_MODELS:
        raise ValueError(f"unknown tension model '{model}'")


def _tensions_for(moments, config, geom, model, group) -> TensionSet:
    """`solve_tensions` for the net moments `moments` at `config`."""
    if group is not None:
        signs = (1.0,) if group is TendonGroup.FLEXION else (-1.0,)
    else:
        first = _restraint_sign(moments)
        signs = (first, -first)

    scale = 1.0 + max(map(abs, moments)) / min(geom.guide_radii)
    last = None
    for sign in signs:
        ts = _cascade(moments, config, geom, sign, model)
        last = ts
        if min(ts) >= -_NEG_TOL * scale:
            clamped = tuple(max(t, 0.0) for t in ts)
            return TensionSet(*clamped, active_group=_group_for_sign(sign))
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
    tensions: TensionSet,
    specs: tuple[TendonSpec, TendonSpec, TendonSpec],
    wrap: WrapGeometry,
) -> tuple[float, float, float]:
    """Stretched lengths L' = L * (1 + T / (E A)).

    The actuating tendon uses its configured rest length; the coupling
    tendons use the geometric rest lengths carried by `wrap`.
    """
    rests = (specs[0].rest_length, wrap.rest_length_2, wrap.rest_length_3)
    return tuple(
        rest * (1.0 + t / spec.axial_stiffness)
        for rest, t, spec in zip(rests, tensions.as_tuple(), specs)
    )


def update_configuration(
    nominal: Configuration,
    rest_lengths: tuple[float, float, float],
    elongated: tuple[float, float, float],
    geom: FingerGeometry,
    *,
    sense: float = 1.0,
) -> Configuration:
    """Joint angles corrected for tendon stretch.

    theta'_i = theta_i - sense * (L_i - L'_i) / R_i. With the default
    sense the angles move toward positive theta as tendons stretch;
    the solver passes the sense that lets joints give way against the
    active group's restraint.
    """
    theta = tuple(
        th - sense * (rest - elong) / r
        for th, rest, elong, r in zip(
            nominal.theta, rest_lengths, elongated, geom.guide_radii
        )
    )
    return Configuration(q=nominal.q, theta=theta)


def solve_static(
    q: float,
    geom: FingerGeometry,
    specs,
    load: ExternalLoad,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    model: str = "tangent",
) -> StaticSolution:
    """Fixed-point solve of the loaded configuration at displacement q.

    Alternates kinematics (stretch-corrected angles), the sequential
    tension solve and Hooke elongation until the vertical fingertip
    movement between passes is at most `threshold`. The active group is
    frozen once, from the net moment at the nominal pose; a residual
    growing for five straight passes aborts early as divergence.
    """
    if threshold <= 0.0:
        raise ValueError("threshold must be > 0")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")

    nominal = coupling_angles(q, geom)
    wrap0 = wrap_angles(nominal, geom)
    pose = link_pose(nominal.theta, geom)
    y_nominal = fingertip_state(pose[0], geom).position[1]

    sign = _restraint_sign(pose_moments(pose, geom, load))
    group = _group_for_sign(sign)
    trio = group_specs(specs, group)
    rest = (trio[0].rest_length, wrap0.rest_length_2, wrap0.rest_length_3)
    _check_model(model)

    elong = rest
    y_prev = None
    prev_residual = math.inf
    growth_streak = 0
    trace: list[IterationRecord] = []

    for k in range(1, max_iterations + 1):
        cfg = update_configuration(nominal, rest, elong, geom, sense=-sign)
        pose = link_pose(cfg.theta, geom)
        tip = fingertip_state(pose[0], geom)
        moments = pose_moments(pose, geom, load)
        tensions = _tensions_for(moments, cfg, geom, model, group)
        elong = elongate_tendons(tensions, trio, wrap0)

        y_k = tip.position[1]
        residual = abs(y_k - y_prev) if y_prev is not None else None
        trace.append(IterationRecord(
            index=k, theta=cfg.theta, fingertip_y=y_k,
            tensions=tensions.as_tuple(), elongated_lengths=elong,
            residual=residual,
        ))

        if residual is not None:
            if residual <= threshold:
                return StaticSolution(
                    configuration=cfg,
                    tensions=tensions,
                    fingertip=tip,
                    deflection_y=y_nominal - y_k,
                    iterations=k,
                    residual=residual,
                    rest_lengths=rest,
                    elongated_lengths=elong,
                    trace=tuple(trace),
                )
            growth_streak = growth_streak + 1 if residual > prev_residual else 0
            if growth_streak >= DIVERGENCE_STREAK:
                raise NoConvergence(
                    f"residual grew for {DIVERGENCE_STREAK} consecutive passes "
                    f"(last {residual:.3e} m)",
                    trace=trace,
                )
            prev_residual = residual
        y_prev = y_k

    raise NoConvergence(
        f"residual {prev_residual:.3e} m above threshold {threshold:.3e} m "
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

    Each payload hangs at the fingertip. A failing row is recorded with
    its error message and the sweep continues.
    """
    rows: list[SweepRow] = []
    for m in payloads:
        if m < 0.0:
            rows.append(SweepRow(m, math.nan, math.nan, 0, "error: negative payload"))
            continue
        load = ExternalLoad.tip_payload(m, geom.gravity_accel)
        try:
            sol = solve_static(
                q, geom, specs, load,
                threshold=threshold, max_iterations=max_iterations,
            )
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
        "trace": [
            {
                "iteration": rec.index,
                "theta_rad": list(rec.theta),
                "fingertip_y_m": rec.fingertip_y,
                "tensions_n": list(rec.tensions),
                "elongated_lengths_m": list(rec.elongated_lengths),
                "residual_m": rec.residual,
            }
            for rec in sol.trace
        ],
    }
