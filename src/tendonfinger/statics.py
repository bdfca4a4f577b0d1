"""
Static equilibrium of the coupled finger under external load.

The loaded finger rests at the minimum of its total potential over the
three joint angles (`tendonfinger.potential`, which also holds the tendon
stretch model). `solve_static` takes one load case's `PotentialModel`
and finds that minimum by Newton steps on the analytic gradient and
Hessian from the rigid-tendon pose, taken by the model's driver
(`PotentialModel.newton_steps`); `stiffness_sweep` gives each payload
its load on the caller's model (`PotentialModel.with_load`) and runs the
same Newton loop, keeping only the converged fingertip height and the
step count. The energy module's
oracle minimizes the same potential through the same driver with its
own stop rule, and proves the minimum it reaches by a certificate that
does not use the driver's step, and so checks the solver.

Tensions follow from the pose by the potential's own rule, with no
second solve: at each index the tendon whose stretch is taut (flexion
where the stretch is >= 0, extension where it is < 0) pulls with its
Hooke tension, and its partner is slack (`PotentialModel.tensions`).
Each tendon acts tangentially on its guide cylinder, and a coupling
tendon leaves adjacent guide cylinders along their internal common
tangent, so these tensions, signed by their groups, give the joint
torques J^T T for the stretch Jacobian J: the elastic part of the
potential's gradient. At the minimum they balance the load's moments
(`balance_residuals`' `tangent_nm`), whichever groups are taut, so every
load whose minimum the solve reaches is held.

A `StaticSolution` holds only what the Newton loop found: the converged
`Configuration`, the fingertip as (x, y) like `EquilibriumResult` and
`link_pose`, its deflection, the step count, the last residual and the
trace of iterates. A pose's tendon state (each index's taut tendon, its
Hooke tension, rest length and stretched length) is a pure function of
the pose, derived in one place (`_tendon_state`) when a solution or a
trace is written, so a solution's tensions and lengths are its last
record's by construction.
"""

from __future__ import annotations

import math
import sys
from itertools import islice
from typing import NamedTuple

from .errors import NoConvergence, TendonFingerError
from .model import (
    Configuration,
    ExternalLoad,
    FingerGeometry,
    TendonSpec,
    check_theta_1,
)
from .potential import PotentialModel, WrapGeometry

DEFAULT_THRESHOLD = 1e-6
DEFAULT_MAX_ITERATIONS = 100


class IterationRecord(NamedTuple):
    """One Newton step's iterate. A trace starts at step 1, so a record's
    step number is its 1-based position; `trace_to_list` derives the rest."""

    theta: tuple[float, float, float]
    fingertip_y: float
    residual: float | None


def _repr_without_trace(self) -> str:
    """The named-tuple repr of a record minus its last field, the trace."""
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields[:-1], self))
    return f"{type(self).__name__}({fields})"


class StaticSolution(NamedTuple):
    """Converged static configuration and the Newton iterates that reached
    it; `fingertip` is the (x, y) tip of the loaded pose. Its tendon state
    is derived from `configuration.theta` by the model
    (`PotentialModel.tensions`, `solution_to_dict`).
    """

    configuration: Configuration
    fingertip: tuple[float, float]
    deflection_y: float
    iterations: int
    residual: float
    trace: tuple[IterationRecord, ...] = ()

    __repr__ = _repr_without_trace


def wrap_moment(normal_force: float, lever: float, theta: float, alpha: float) -> float:
    """Closed form of the distributed-normal-load moment integral.

    Integrand normal_force * lever * sin(t) over t in [theta, alpha + theta],
    which evaluates to normal_force * lever * (cos(theta) - cos(alpha + theta)).
    """
    return normal_force * lever * (math.cos(theta) - math.cos(alpha + theta))


def pose_moments(pose, geom: FingerGeometry, load: ExternalLoad):
    """Moment about each joint of gravity plus the external load, as a
    float triple, from a `link_pose` result.

    Entry k sums contributions acting on the subchain distal of joint k+1:
    the external moment, the external force at its application point, and
    the weights of links k+1..3 at their centers of mass. Each term is
    the 2-D cross product (r - J_k) x F in the order r_x F_y - r_y F_x; a
    weight is the force (0, -m_i g). Its zero x term stays: it decides the
    sign of a zero moment, and so of a zero `balance_residuals` residual.
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


def elongate_tendons(
    tensions,
    specs: tuple[TendonSpec, TendonSpec, TendonSpec],
    wrap: WrapGeometry,
) -> tuple[float, float, float]:
    """Stretched lengths L' = L * (1 + T / (E A)) of three tendons, one
    per index, under `tensions`, a triple of non-negative tensions.

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


def check_solver_settings(threshold: float, max_iterations: int) -> None:
    """Refuse a `threshold` that is not > 0 (NaN included) or a
    `max_iterations` below 1 or above `sys.maxsize` (the largest step
    count that `islice` takes), with ValueError, before any solve runs."""
    if not threshold > 0.0:
        raise ValueError("threshold must be > 0")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if max_iterations > sys.maxsize:
        raise ValueError(f"max_iterations must be <= {sys.maxsize}")


def _newton_iterates(model: PotentialModel, threshold: float,
                     max_iterations: int):
    """The Newton loop of `solve_static` and `stiffness_sweep` on the
    model's driver (`PotentialModel.newton_steps`): the converged
    iterate's fingertip (x, y) and the trace, whose last record holds that
    iterate, its residual and, by its length, the step count. Raises as
    `solve_static` does; the settings are checked by its callers."""
    l1, l2, l3 = model.geom.link_lengths
    x_prev = y_prev = None
    last_residual = math.inf
    trace: list[IterationRecord] = []

    try:
        for t1, t2, t3, c1, c2, c3, s1, s2, s3, _, _, _ in islice(
                model.newton_steps(model.nominal.theta), max_iterations):
            check_theta_1(t1)
            theta = (t1, t2, t3)
            # The fingertip of `link_pose`, summed in its order.
            x_k = (l1 * c1 + l2 * c2) + l3 * c3
            y_k = (l1 * s1 + l2 * s2) + l3 * s3
            residual = (math.hypot(x_k - x_prev, y_k - y_prev)
                        if y_prev is not None else None)
            trace.append(IterationRecord(theta, y_k, residual))

            if residual is not None:
                if residual <= threshold:
                    model.wrap0.angles_at(theta)  # refuses an unwrappable solved pose
                    return (x_k, y_k), trace
                last_residual = residual
            x_prev, y_prev = x_k, y_k
    except NoConvergence as exc:
        exc.trace = trace
        raise

    raise NoConvergence(
        f"residual {last_residual:.3e} m above threshold {threshold:.3e} m "
        f"after {max_iterations} iterations",
        trace=trace,
    )


def solve_static(
    model: PotentialModel,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> StaticSolution:
    """Loaded equilibrium of `model`'s load case: the minimum of its
    potential.

    Newton steps on the potential's analytic gradient and Hessian start
    at the rigid-tendon pose theta_i = q / R_i and stop once the
    fingertip's whole movement between two steps, hypot(dx, dy), is at
    most `threshold`, so at least two steps run; that distance is each
    record's residual. One step keeps only its trace record. The steps
    come from the model's driver (`PotentialModel.newton_steps`) with
    each iterate's link cosines and sines, which give its fingertip and
    residual; a new iterate's theta_1 is range-checked (`check_theta_1`).
    The fingertip (x, y) is the last iterate's, and the converged pose
    alone gets a `Configuration`; a solve computes no tension or length.
    Raises ValueError before any step for a `threshold` that is not > 0
    or a `max_iterations` below 1 (`check_solver_settings`),
    RangeExceeded at a step whose theta_1 leaves the joint range,
    GeometryInfeasible when a coupling tendon cannot wrap its guides at
    the converged pose (the model refuses a rigid pose it cannot wrap
    when it is built), and NoConvergence, with the
    steps' trace, after `max_iterations` steps, at a Hessian that is not
    positive definite or at a step to a non-finite angle.
    """
    check_solver_settings(threshold, max_iterations)
    fingertip, trace = _newton_iterates(model, threshold, max_iterations)
    theta, _, residual = trace[-1]
    return StaticSolution(
        configuration=Configuration(q=model.nominal.q, theta=theta),
        fingertip=fingertip,
        deflection_y=model.nominal_pose[0][3][1] - fingertip[1],
        iterations=len(trace),
        residual=residual,
        trace=tuple(trace),
    )


class SweepRow(NamedTuple):
    payload_kg: float
    deflection_m: float
    stiffness_n_per_m: float
    iterations: int
    status: str
    trace: tuple[IterationRecord, ...] = ()

    __repr__ = _repr_without_trace


def stiffness_sweep(
    model: PotentialModel,
    payloads,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> list[SweepRow]:
    """Deflection and secant stiffness for a list of tip payloads (kg) at
    `model`'s displacement.

    Each payload hangs at the fingertip and is solved by `solve_static`'s
    Newton loop on `model.with_load`, which shares the model's load-free
    state; the model's own load is not used. A row reads only the
    converged fingertip's height and the step count, so no payload builds
    tensions, lengths or a `StaticSolution`. A failing row is recorded
    with its error message and the sweep continues; a negative payload,
    or one whose weight overflows, fails its row unsolved. A row that
    fails with NoConvergence keeps the error's iteration trace; the CSV
    and JSON tables do not show it. Refused settings
    (`check_solver_settings`) raise ValueError before any payload runs.
    """
    check_solver_settings(threshold, max_iterations)
    g = model.g
    rows: list[SweepRow] = []
    for m in payloads:
        if m < 0.0:
            rows.append(SweepRow(m, math.nan, math.nan, 0, "error: negative payload"))
            continue
        force = m * g
        if not math.isfinite(force):
            rows.append(SweepRow(m, math.nan, math.nan, 0,
                                 "error: payload weight is not finite"))
            continue
        load = ExternalLoad.tip_payload(m, g)
        try:
            (_, y), trace = _newton_iterates(model.with_load(load), threshold,
                                             max_iterations)
        except TendonFingerError as exc:
            trace = tuple(exc.trace) if isinstance(exc, NoConvergence) else ()
            rows.append(SweepRow(m, math.nan, math.nan, 0,
                                 f"error: {exc.__class__.__name__}: {exc}", trace))
            continue
        deflection = model.nominal_pose[0][3][1] - y
        if deflection != 0.0:
            stiffness = force / deflection
        else:
            stiffness = math.nan if force != 0.0 else 0.0
        rows.append(SweepRow(m, deflection, stiffness, len(trace), "ok"))
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


def _tendon_state(model: PotentialModel, theta):
    """A pose's tendon state: each index's taut tension and group
    (`PotentialModel.tensions`), the taut tendons' rest lengths and their
    stretched lengths (`elongate_tendons`). None of them depends on the
    load, so `model` may be any `with_load` copy of the solved one."""
    tensions, groups, taut = model.tensions(theta)
    wrap0 = model.wrap0
    rest = (taut[0].rest_length, wrap0.rest_length_2, wrap0.rest_length_3)
    return tensions, groups, rest, elongate_tendons(tensions, taut, wrap0)


def trace_to_list(trace, model: PotentialModel) -> list[dict]:
    """JSON-ready view of a solve's iteration records, numbered from 1,
    with each pose's taut tensions and stretched lengths
    (`_tendon_state`)."""
    items = []
    for k, rec in enumerate(trace, 1):
        tensions, _, _, elongated = _tendon_state(model, rec.theta)
        items.append({
            "iteration": k,
            "theta_rad": list(rec.theta),
            "fingertip_y_m": rec.fingertip_y,
            "tensions_n": list(tensions),
            "elongated_lengths_m": list(elongated),
            "residual_m": rec.residual,
        })
    return items


def solution_to_dict(sol: StaticSolution, model: PotentialModel) -> dict:
    """JSON-ready view of a solution; SI fields are authoritative,
    mm/deg fields are derived at output time. `model` derives the
    converged pose's tendon state and each trace record's
    (`_tendon_state`), so the top-level tensions and lengths are the last
    record's."""
    theta = sol.configuration.theta
    tensions, groups, rest, elongated = _tendon_state(model, theta)
    return {
        "q_m": sol.configuration.q,
        "theta_rad": list(theta),
        "theta_deg": [math.degrees(t) for t in theta],
        "tension_groups": [g.value for g in groups],
        "tensions_n": list(tensions),
        "fingertip_m": list(sol.fingertip),
        "fingertip_mm": [v * 1e3 for v in sol.fingertip],
        "deflection_y_m": sol.deflection_y,
        "deflection_y_mm": sol.deflection_y * 1e3,
        "iterations": sol.iterations,
        "residual_m": sol.residual,
        "rest_lengths_m": list(rest),
        "rest_lengths_mm": [v * 1e3 for v in rest],
        "elongated_lengths_m": list(elongated),
        "elongated_lengths_mm": [v * 1e3 for v in elongated],
        "trace": trace_to_list(sol.trace, model),
    }
