"""
Equilibrium by total-potential-energy minimization: the oracle that
checks the static solver.

`find_equilibrium` minimizes the potential of one load case's
`PotentialModel` (link gravity + elastic energy of every tendon +
external-load potential, `tendonfinger.potential`) over the three joint
angles.

Certified cases: where the model's certificate proves the potential
strongly convex (`PotentialModel.convexity` > 0, every load that
oracle-check draws), its minimum is unique. Newton steps from the nominal
coupled pose find it, with no search; a result's `evaluations` is then
the step count (4 or 5 on the oracle-check loads). The search box does
not bound those steps: a minimum they reach beyond its surface, or
within half a box cell of it, raises BoundaryMinimum naming it. Where
the proof does not hold (a 60 kg tip load, say), or those steps meet a
Hessian that is not positive definite or reach NEWTON_MAX_STEPS,
`box_search` runs, by a route independent of the solver's start:

1. Search: one box of GRID_POINTS = 21 samples per joint angle
   (21^3 = 9,261 potential evaluations), +-0.5 rad around the nominal
   coupled pose, the first axis clipped to the joint-1 range. Its best
   sample is the first minimal one in lexicographic order.
2. Polish: Newton steps from that sample by the solver's own kernel
   (`PotentialModel.newton_kernel`: the analytic gradient and 3 x 3
   Hessian, solved in closed form) until a step is at most 1e-13 rad
   (4 or 5 steps on the oracle-check loads).
3. Failure: when an iterate leaves the polish box (the best sample
   +- 1/8 of the search box's width), the Hessian is not positive
   definite, NEWTON_MAX_STEPS = 8 steps pass, or the polished energy
   exceeds the best sample's, there is no result: BoundaryMinimum if
   that sample lies on the search box's surface, else NoConvergence
   naming it (9 of 40,000 random heavy loads; see TestNewtonPolish).

A box search's `evaluations` is therefore 9,261 plus the Newton steps
(9,265 or 9,266 on the oracle-check loads).

A box is evaluated as a broadcast tensor grid, every term computed only
on the joint angles it depends on (the first link's angle on 21 points,
the distal one on 21^3) and in the order of a per-point evaluation, so
its energies are byte for byte those of a 9,261 x 3 meshgrid evaluation.
Single poses (the polished minimum's energy, the solver pose's energy in
the report, the box bounds, the edge test and the balance residuals) run
the box's own potential body in plain floats, with `math` sine and
cosine in place of numpy's; where numpy's sine and cosine are libm's,
they give the bits of a one-point box.

`equilibrium_report` builds one model and gives each case its load by
`PotentialModel.with_load`, which shares the model's immutable load-free
state (nominal pose, stiffnesses, mu_e) and computes only the load's
share. Each box is evaluated fresh under its case's load, the first box
included, so no case's search depends on another's. Boxes are rare: on
the shipped calibration every tip load up to 3 kg is certified, so only
loads the proof does not cover run one.

numpy is imported by `box_search` and `random_tip_load_cases`, the
functions that build arrays, so importing this module does not load it.

`equilibrium_report` adds each compared case's certificate: mu_e, B,
mu = mu_e - B, the potential's gradient norm at the solver's pose, and
the certified bound on the solver's distance from the minimum. The
gradient comes from `balance_residuals`' tangent balance (link poses,
moments and Hooke tensions), not from the solver's `newton_kernel`,
so the certificate is the report's evidence independent of the solver.

On a certified case the minimizer's Newton steps are the solver's own
iteration from the same start, with another stop rule: the solver stops
once the fingertip moves by at most the caller's `threshold` in x and y, the
minimizer only at a 1e-13 rad step. So the gap
measures how far the solver's stop rule leaves it from the minimum (at
most 4e-14 mm at the default 1e-6 m threshold, 0.05 mm at 1e-2 m on
`--cases 3 --seed 7`), the edge test still applies, and `energy_j` is the
minimum's. The report hands `find_equilibrium` the case's solution, and
the polish resumes after the solver's iterates where they are provably
its own steps (`_resume`): a case then costs the solver's steps plus the
polish's 1 or 2 more, and its result is a fresh search's, bit for bit.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import BoundaryMinimum, GeometryInfeasible, NoConvergence, TendonFingerError
from .model import (
    THETA1_MAX,
    THETA1_MIN,
    Configuration,
    ExternalLoad,
    FingerGeometry,
    TendonGroup,
    link_pose,
)
from .potential import PotentialModel, link_trig
from .statics import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_THRESHOLD,
    StaticSolution,
    pose_moments,
    solve_static,
    wrap_moment,
)

GRID_POINTS = 21  # samples per axis of every search box
SEARCH_HALF_WIDTH = 0.5  # radians per axis around the nominal pose
NEWTON_MAX_STEPS = 8
NEWTON_STEP_TOL = 1e-13  # radians; the polish stops below this step
# The certified polish's bounds: every finite pose, since its minimum is
# unique wherever it lies; `_result` refuses one beyond the search box.
FINITE_POSES = ((-sys.float_info.max,) * 3, (sys.float_info.max,) * 3)
# A report is within tolerance when every fingertip gap is at most this
# fraction of finger length.
TOLERANCE_FRACTION = 0.01
CASE_PAYLOAD_KG = (0.2, 3.0)  # random load cases' payload range
CASE_CONE_HALF_ANGLE_DEG = 60.0  # their forces' spread about straight down


class EquilibriumResult(NamedTuple):
    theta: tuple[float, float, float]
    fingertip: tuple[float, float]
    energy: float
    evaluations: int


def _newton_polish(model: PotentialModel, theta, lo, hi, first=1):
    """Newton steps (`PotentialModel.newton_kernel`) from `theta`,
    numbered from `first`, until a step is at most NEWTON_STEP_TOL.

    Returns (theta, steps) on convergence, or (None, steps) when an
    iterate leaves the box [lo, hi], the Hessian is not positive definite
    or step NEWTON_MAX_STEPS passes first; `steps` is the last step's
    number, so from `first` = 1 it counts gradient and Hessian
    evaluations.
    """
    for steps in range(first, NEWTON_MAX_STEPS + 1):
        step = model.newton_kernel(*theta, *link_trig(*theta))
        if step is None:
            return None, steps
        theta = [t + d for t, d in zip(theta, step)]
        if not all(a <= t <= b for a, t, b in zip(lo, theta, hi)):
            return None, steps
        if max(abs(d) for d in step) <= NEWTON_STEP_TOL:
            return theta, steps
    return None, NEWTON_MAX_STEPS


def _search_box(model: PotentialModel):
    """The search box's corners: +-SEARCH_HALF_WIDTH around the nominal
    pose, the first axis clipped to the joint-1 range."""
    lo0 = [t - SEARCH_HALF_WIDTH for t in model.nominal.theta]
    hi0 = [t + SEARCH_HALF_WIDTH for t in model.nominal.theta]
    lo0[0] = max(lo0[0], THETA1_MIN)
    hi0[0] = min(hi0[0], THETA1_MAX)
    return lo0, hi0


def _off_edge(theta, lo0, hi0):
    """`theta` as a tuple of floats; raises BoundaryMinimum when it lies
    beyond the search box's surface or within half a box cell of it."""
    edge_tol = [(b - a) / (2.0 * (GRID_POINTS - 1)) for a, b in zip(lo0, hi0)]
    theta = tuple(float(t) for t in theta)
    if any(t - a <= tol or b - t <= tol
           for t, a, b, tol in zip(theta, lo0, hi0, edge_tol)):
        inside = all(a <= t <= b for t, a, b in zip(theta, lo0, hi0))
        where = "on the search-box boundary" if inside else "beyond the search box"
        raise BoundaryMinimum(f"energy minimum {theta} lies {where}")
    return theta


def _result(model, theta, energy, lo0, hi0, evaluations):
    """The EquilibriumResult at `theta`, or BoundaryMinimum (`_off_edge`)."""
    theta = _off_edge(theta, lo0, hi0)
    return EquilibriumResult(
        theta=theta,
        fingertip=link_pose(theta, model.geom)[0][3],
        energy=energy,
        evaluations=evaluations,
    )


def find_equilibrium(model: PotentialModel,
                     solution: StaticSolution | None = None) -> EquilibriumResult:
    """The minimum of `model`'s potential.

    Where the potential is certified strongly convex (`convexity` > 0,
    see `PotentialModel.fingertip_bound`), its minimum is unique, so
    Newton steps from the nominal pose find it with no box: `evaluations`
    is the step count (4 or 5 on the oracle-check loads). Where it is
    not, or those steps meet a Hessian that is not positive definite or
    reach NEWTON_MAX_STEPS, the outcome is `box_search`'s, unchanged
    (9,265 or 9,266 evaluations on a converged polish), and the discarded
    steps are not counted. Raises BoundaryMinimum when the minimizer lies
    beyond the search-box surface or within half a box cell of it, which
    means the box should be widened.

    Given `solution`, a `solve_static` solution of this `model`, the
    certified Newton steps resume after the solver's iterates where those
    are their own first steps (`_resume`), and are not computed twice.
    The result is the same, bit for bit.
    """
    if model.convexity > 0.0:
        theta, first = _resume(solution, model.nominal.theta)
        theta, steps = _newton_polish(model, theta, *FINITE_POSES, first)
        if theta is not None:
            lo0, hi0 = _search_box(model)
            return _result(model, theta, model.energy(theta), lo0, hi0, steps)
    return box_search(model)


def _resume(solution, start):
    """The pose and step number at which the certified polish from `start`
    goes on after `solution`'s Newton iterates: (start, 1) where those may
    not be its own first steps.

    The solver's iterates are the polish's own first steps: both start at
    the nominal pose and step by `PotentialModel.newton_kernel`, and
    neither is bounded by the search box. The polish resumes at the
    solver's last iterate, at step `iterations` + 1, when none of those
    steps could have ended it: the solver stopped before step
    NEWTON_MAX_STEPS, and every step read back from the trace,
    max |theta_j - theta_(j-1)|, exceeds 2 NEWTON_STEP_TOL. That reading
    differs from the step taken by at most an ulp of theta, far below
    NEWTON_STEP_TOL, so the polish would not have stopped there.
    """
    if solution is None or solution.iterations >= NEWTON_MAX_STEPS:
        return start, 1
    theta = start
    for rec in solution.trace:
        step = max(abs(t - p) for t, p in zip(rec.theta, theta))
        if not step > 2.0 * NEWTON_STEP_TOL:
            return start, 1
        theta = rec.theta
    return theta, solution.iterations + 1


def box_search(model: PotentialModel) -> EquilibriumResult:
    """The minimum of `model`'s potential by the search and polish of the
    module docstring, whether or not it is certified.

    `evaluations` counts the box's samples and the Newton steps. Raises
    BoundaryMinimum when the polished minimizer sits on the search-box
    surface, which means the box should be widened. Where the polish
    fails or ends above the best sample's energy there is no result:
    BoundaryMinimum when that sample lies on the surface, NoConvergence
    naming it when it does not.
    """
    import numpy as np

    lo0, hi0 = _search_box(model)
    a1, a2, a3 = (np.linspace(a, b, GRID_POINTS) for a, b in zip(lo0, hi0))
    g, e, l = model.axis_components(
        a1[:, None, None], a2[None, :, None], a3[None, None, :])
    energies = g + e + l
    # C order on the (i, j, k) grid is lexicographic sample order.
    i, j, k = np.unravel_index(np.argmin(energies), energies.shape)
    best = (float(a1[i]), float(a2[j]), float(a3[k]))
    best_energy = float(energies[i, j, k])

    # The polish stays within an eighth of the search box's width.
    reach = [(b - a) / 8.0 for a, b in zip(lo0, hi0)]
    polished, steps = _newton_polish(
        model, best,
        [max(t - r, a) for t, r, a in zip(best, reach, lo0)],
        [min(t + r, b) for t, r, b in zip(best, reach, hi0)])
    energy = None if polished is None else model.energy(polished)
    if energy is None or energy > best_energy:
        best = _off_edge(best, lo0, hi0)
        how = "failed" if energy is None else "rose above its energy"
        raise NoConvergence(f"Newton polish from box sample {best} {how}")
    return _result(model, polished, energy, lo0, hi0, energies.size + steps)


def balance_residuals(model: PotentialModel, theta) -> dict:
    """Moment-balance residuals (N m) of `model`'s load case at an
    arbitrary pose.

    Tensions are the Hooke tensions of each index's taut tendon at the
    pose (`PotentialModel.tensions`, reported as `tensions_n`), signed +
    for flexion and - for extension: the net tensions of
    `PotentialModel.derivatives`. Both balances take these signed
    tensions: the tangent balance of the guide cylinders, whose residuals
    are minus the potential's gradient, and a wrap-integral reading in
    which a distal tension keeps its own-joint arm and the distributed
    normal load on the distal guide is integrated with the link length as
    lever (`wrap_moment`). A load's application point rides with the distal
    link, as in the potential. A zero residual triple means the pose
    satisfies that balance exactly.

    `wrap_integral_nm` evaluates the wrap-integral tension model, which
    the solver no longer uses: the potential's minimum balances the
    tangent model, not that one. So it reads far from zero at an
    equilibrium (on `oracle-check --cases 10 --seed 7`, -26.9 to -1.9 N m
    at joint 1 and -7.7 to -0.5 N m at joint 2, while `tangent_nm` stays
    within 1.1e-14 N m) and does not mark a failed balance; it is None
    where a coupling tendon cannot wrap its guides.
    """
    geom = model.geom
    theta = tuple(float(t) for t in theta)
    Configuration(q=model.nominal.q, theta=theta)  # raises RangeExceeded outside limits
    pose = link_pose(theta, geom)
    m1, m2, m3 = pose_moments(pose, geom, model.load_at(theta, pose))
    tensions, groups, _ = model.tensions(theta)
    n1, n2, n3 = (t if g is TendonGroup.FLEXION else -t
                  for t, g in zip(tensions, groups))
    r1, r2, r3 = geom.guide_radii
    tangent = [m1 + r1 * (n1 - n2), m2 + r2 * (n2 - n3), m3 + r3 * n3]

    _, l2, l3 = geom.link_lengths
    try:
        alpha2, alpha3 = model.wrap0.angles_at(theta)
    except GeometryInfeasible:
        wrap_int = None
    else:
        wrap_int = [
            m1 + (n1 * r1 + n2 * r2 - wrap_moment(n2, l2, theta[1], alpha2)),
            m2 + (n2 * r2 + n3 * r3 - wrap_moment(n3, l3, theta[2], alpha3)),
            m3 + n3 * r3,
        ]

    return {
        "tensions_n": list(tensions),
        "tangent_nm": tangent,
        "wrap_integral_nm": wrap_int,
    }


def random_tip_load_cases(n: int, seed: int, geom: FingerGeometry) -> list[dict]:
    """Randomized fingertip loads: payloads in CASE_PAYLOAD_KG, their
    weights turned into a downward cone of half angle
    CASE_CONE_HALF_ANGLE_DEG about straight down, the direction of the
    paper's payload tests."""
    import numpy as np

    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n):
        payload = float(rng.uniform(*CASE_PAYLOAD_KG))
        angle = math.radians(-90.0 + float(
            rng.uniform(-CASE_CONE_HALF_ANGLE_DEG, CASE_CONE_HALF_ANGLE_DEG)
        ))
        magnitude = payload * geom.gravity_accel
        force = (magnitude * math.cos(angle), magnitude * math.sin(angle))
        cases.append({
            "payload_kg": payload,
            "direction_deg": math.degrees(angle),
            "load": ExternalLoad(force=force, moment=0.0),
        })
    return cases


def _solution_summary(sol: StaticSolution, model: PotentialModel) -> dict:
    """A case's solve, with the Hooke tensions at its pose by `model`."""
    theta = sol.configuration.theta
    return {
        "theta_rad": list(theta),
        "fingertip_m": list(sol.fingertip),
        "deflection_y_m": sol.deflection_y,
        "iterations": sol.iterations,
        "tensions_n": list(model.tensions(theta)[0]),
    }


def equilibrium_report(
    geom: FingerGeometry,
    specs,
    q: float,
    cases,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> dict:
    """Static solve vs energy-minimization comparison over load cases.

    Emits one entry per case with both equilibria (the static solve under
    "fixed_point"), the fingertip gap, the balance residuals at the
    energy pose and the certificate. One potential model is built for the
    first case, and each case gets its own load from it by `with_load`,
    sharing the load-free state; a case's model serves its solve, search
    and residuals, and the search is handed the case's solution, so a
    certified polish goes on from the solver's Newton iterates instead of
    repeating them. A case is compared when both routes succeed, and
    certified when its `fingertip_bound_m` is not None; a certificate
    field that is not finite (no certificate) is written as None. The
    summary's `within_tolerance` holds only when every case was compared
    and, on every case, the gap and, where certified, the bound are at
    most TOLERANCE_FRACTION of finger length, so a gap that a faulty
    certificate failed to bound still fails the report. The largest gap
    is None when no case was compared. A q that is not finite raises
    ValueError("q must be finite") before any case runs, as
    `Configuration` does; a finite q out of range fails each case.
    """
    if not math.isfinite(q):
        raise ValueError("q must be finite")
    total_len = geom.total_length
    entries = []
    worst = verdict = 0.0
    compared = 0
    base = None
    for case in cases:
        load = case["load"]
        entry = {k: v for k, v in case.items() if k != "load"}
        entry["force_n"] = list(load.force)
        entry["moment_nm"] = load.moment
        entry["q_m"] = q
        try:
            if base is None:
                base = PotentialModel(geom, specs, load, q)
            model = base.with_load(load)
            sol = solve_static(model, threshold=threshold,
                               max_iterations=max_iterations)
        except TendonFingerError as exc:
            entry["fixed_point"] = {"error": f"{exc.__class__.__name__}: {exc}"}
            entries.append(entry)
            continue
        entry["fixed_point"] = _solution_summary(sol, model)

        try:
            eq = find_equilibrium(model, sol)
        except TendonFingerError as exc:
            entry["energy_search"] = {"error": f"{exc.__class__.__name__}: {exc}"}
            entries.append(entry)
            continue
        entry["energy_search"] = {
            "theta_rad": list(eq.theta),
            "fingertip_m": list(eq.fingertip),
            "energy_j": eq.energy,
            "energy_at_fixed_point_j": model.energy(sol.configuration.theta),
            "evaluations": eq.evaluations,
        }
        delta = math.hypot(
            sol.fingertip[0] - eq.fingertip[0],
            sol.fingertip[1] - eq.fingertip[1],
        )
        entry["fingertip_delta_mm"] = delta * 1e3
        entry["delta_fraction_of_length"] = delta / total_len
        entry["balance_residuals_at_energy_pose"] = balance_residuals(
            model, eq.theta)
        gradient_norm = math.sqrt(sum(r * r for r in balance_residuals(
            model, sol.configuration.theta)["tangent_nm"]))
        bound = model.fingertip_bound(gradient_norm)
        certificate = {
            "mu_elastic_nm_per_rad": model.elastic_convexity,
            "load_curvature_nm_per_rad": model.load_curvature,
            "mu_nm_per_rad": model.convexity,
            "gradient_norm_at_fixed_point_nm": gradient_norm,
            "fingertip_bound_m": bound,
        }
        # JSON has no infinities: an overflowing stiffness matrix's -inf
        # is written as None.
        entry["certificate"] = {
            name: value if value is not None and math.isfinite(value) else None
            for name, value in certificate.items()
        }
        worst = max(worst, delta / total_len)
        verdict = max(verdict, (delta if bound is None else max(delta, bound))
                      / total_len)
        compared += 1
        entries.append(entry)

    return {
        "cases": entries,
        "summary": {
            "compared_cases": compared,
            "max_delta_fraction_of_length": worst if compared else None,
            "tolerance_fraction": TOLERANCE_FRACTION,
            "within_tolerance": (0 < compared == len(entries)
                                 and verdict <= TOLERANCE_FRACTION),
        },
    }
