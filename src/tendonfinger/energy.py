"""
Equilibrium by total-potential-energy minimization: the oracle that
checks the static solver.

`find_equilibrium` minimizes the potential of one load case's
`PotentialModel` (link gravity + elastic energy of every tendon +
external-load potential, `tendonfinger.potential`) over the three joint
angles, by one route for every load:

1. Newton steps from the nominal coupled pose by the solver's own driver
   (`PotentialModel.newton_steps`: the analytic gradient and 3 x 3
   Hessian, solved in closed form) until a step is at most
   NEWTON_STEP_TOL = 1e-13 rad. The run fails at a Hessian that is not
   positive definite, a pose that is not finite, or when
   NEWTON_MAX_STEPS = 16 steps pass. A result's `evaluations` is the step
   count (4 or 5 on the oracle-check loads).
2. A proof that the pose the steps reach is a minimum:
   - global, where the model's certificate shows the potential strongly
     convex on all of R^3 (`PotentialModel.convexity` > 0, every load
     that oracle-check draws); the minimum is then unique;
   - otherwise local, at that pose (`PotentialModel.local_certificate`):
     the potential is strongly convex on a ball about it, and the ball
     holds a minimum, its only one. The gradient that proof reads comes
     from the tangent balance of `balance_residuals` (`_tangent_balance`),
     not from the driver.
3. Where the run fails or neither proof holds there is no result:
   UnprovenMinimum. A minimum whose first joint angle leaves the joint
   range raises RangeExceeded, and one that the coupling tendons cannot
   wrap GeometryInfeasible, as the solver refuses them.

`equilibrium_report` takes the caller's model and gives each case its
load by `PotentialModel.with_load`, which shares the model's immutable
load-free state (nominal pose, stiffnesses, mu_e) and computes only the
load's share.

energy imports no numpy: `random_tip_load_cases` draws numpy's
`default_rng(seed)` stream in plain floats (`_default_rng_uniform`).

`equilibrium_report` adds each compared case's certificate: mu_e, B,
mu = mu_e - B, the potential's gradient norm at the solver's pose, and
the certified bound on the solver's distance from the minimum. Where
mu <= 0 it adds the local proof at the solver's pose, its lambda and its
ball's radius, and the bound is the local one. The gradient comes from
`balance_residuals`' tangent balance (`_tangent_balance`: link poses,
moments and Hooke tensions), not from the Newton driver, so the
certificate is the report's evidence independent of the solver.

The minimizer's Newton steps are the solver's own iteration from the
same start, with another stop rule: the solver stops once the fingertip
moves by at most the caller's `threshold` in x and y, the minimizer only
at a 1e-13 rad step. So the gap measures how far the solver's stop rule
leaves it from the minimum (at most 4e-14 mm at the default 1e-6 m
threshold, 0.05 mm at 1e-2 m on `--cases 3 --seed 7`), and `energy_j`
is the minimum's. Both runs start at the nominal pose, so a report case
costs the solver's steps plus the minimizer's own.
"""

from __future__ import annotations

import math
import operator
from itertools import islice
from typing import NamedTuple

from .errors import (
    GeometryInfeasible,
    NoConvergence,
    TendonFingerError,
    UnprovenMinimum,
)
from .model import (
    Configuration,
    ExternalLoad,
    FingerGeometry,
    TendonGroup,
    check_theta_1,
    link_pose,
)
from .potential import PotentialModel
from .statics import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_THRESHOLD,
    StaticSolution,
    check_solver_settings,
    pose_moments,
    solve_static,
    wrap_moment,
)

NEWTON_MAX_STEPS = 16
NEWTON_STEP_TOL = 1e-13  # radians; the Newton run stops below this step
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


def find_equilibrium(model: PotentialModel) -> EquilibriumResult:
    """The minimum of `model`'s potential, by the Newton run and proof of
    the module docstring; `evaluations` is the step count.

    Raises UnprovenMinimum where the run fails or neither the global nor
    the local certificate proves the pose it reaches. As the solver does,
    it refuses a pose whose first joint angle leaves the joint range
    (RangeExceeded) or whose coupling tendons cannot wrap their guides
    (GeometryInfeasible).
    """
    steps, theta = 0, None  # the last step taken
    try:
        for steps, (t1, t2, t3, _, _, _, _, _, _, d1, d2, d3) in enumerate(
                islice(model.newton_steps(model.nominal.theta), NEWTON_MAX_STEPS), 1):
            if max(abs(d1), abs(d2), abs(d3)) <= NEWTON_STEP_TOL:
                theta = (t1, t2, t3)
                break
    except NoConvergence:
        steps += 1  # the refused step
    if theta is None:
        raise UnprovenMinimum(f"Newton step {steps} from the nominal pose failed")
    check_theta_1(theta[0])
    model.wrap0.angles_at(theta)
    if not model.convexity > 0.0:
        modulus = model.local_certificate(theta, _gradient_norm(model, theta))[2]
        if modulus is None:
            raise UnprovenMinimum(
                f"energy minimum {theta} is proven neither globally nor locally")
    return EquilibriumResult(
        theta=theta,
        fingertip=link_pose(theta, model.geom)[0][3],
        energy=model.energy(theta),
        evaluations=steps,
    )


def _gradient_norm(model: PotentialModel, theta) -> float:
    """||grad U|| at `theta`, from the tangent balance (`_tangent_balance`)."""
    return math.sqrt(sum(r * r for r in _tangent_balance(model, theta)[0]))


def _tangent_balance(model: PotentialModel, theta):
    """The tangent balance of the guide cylinders at `theta` (see
    `balance_residuals`), minus the potential's gradient, with the terms
    it sums: (residuals, the moments of gravity and the load
    (`pose_moments`), the signed tensions, the taut tensions)."""
    geom = model.geom
    pose = link_pose(theta, geom)
    m1, m2, m3 = moments = pose_moments(pose, geom, model.load,
                                        model.load_point(theta, pose))
    tensions, groups, _ = model.tensions(theta)
    n1, n2, n3 = signed = tuple(t if g is TendonGroup.FLEXION else -t
                                for t, g in zip(tensions, groups))
    r1, r2, r3 = geom.guide_radii
    residuals = [m1 + r1 * (n1 - n2), m2 + r2 * (n2 - n3), m3 + r3 * n3]
    return residuals, moments, signed, tensions


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
    theta = tuple(float(t) for t in theta)
    Configuration(q=model.nominal.q, theta=theta)  # raises RangeExceeded outside limits
    tangent, (m1, m2, m3), (n1, n2, n3), tensions = _tangent_balance(model, theta)
    r1, r2, r3 = model.geom.guide_radii
    _, l2, l3 = model.geom.link_lengths
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


_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _default_rng_uniform(seed: int):
    """numpy's `default_rng(seed).uniform(low, high)` on scalars, drawn in
    plain floats: SeedSequence(seed) hashes the seed's 32-bit words into a
    pool of four, its `generate_state(4, uint64)` seeds PCG64 (O'Neill
    2014, XSL-RR 128/64), and each draw is low + (high - low) u, with u
    the top 53 bits of one output. Seeds are the non-negative integers
    (`operator.index`), as numpy's are."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _M32]
    while seed := seed >> 32:
        words.append(seed & _M32)
    hash_const = 0x43B0D7E5  # INIT_A

    def hashmix(value, mult=0x931E8875):  # MULT_A
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * mult & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):  # MIX_MULT_L, MIX_MULT_R
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(word) for word in (words + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD  # INIT_B
    state = [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]  # MULT_B
    u64 = [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]
    initstate, initseq = u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]
    inc = (initseq << 1 | 1) & _M128
    # srandom: one step from state 0 gives inc; add initstate, step again.
    s = ((inc + initstate) * _PCG64_MULT + inc) & _M128

    def uniform(low, high):
        nonlocal s
        s = (s * _PCG64_MULT + inc) & _M128
        rot = s >> 122
        x = ((s >> 64) ^ s) & _M64
        x = ((x >> rot) | (x << (64 - rot))) & _M64
        return low + (high - low) * ((x >> 11) * 2.0 ** -53)

    return uniform


def random_tip_load_cases(n: int, seed: int, geom: FingerGeometry) -> list[dict]:
    """Randomized fingertip loads: payloads in CASE_PAYLOAD_KG, their
    weights turned into a downward cone of half angle
    CASE_CONE_HALF_ANGLE_DEG about straight down, the direction of the
    paper's payload tests.

    The draws are numpy's `default_rng(seed).uniform` stream, bit for bit,
    computed in plain floats. `seed` is any non-negative integer, a numpy
    integer included; a negative one raises ValueError and a non-integer
    TypeError, before any draw."""
    uniform = _default_rng_uniform(seed)
    cases = []
    for _ in range(n):
        payload = uniform(*CASE_PAYLOAD_KG)
        angle = math.radians(-90.0 + uniform(
            -CASE_CONE_HALF_ANGLE_DEG, CASE_CONE_HALF_ANGLE_DEG))
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
    model: PotentialModel,
    cases,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> dict:
    """Static solve vs energy-minimization comparison over load cases at
    `model`'s displacement.

    Emits one entry per case with both equilibria (the static solve under
    "fixed_point"), the fingertip gap, the balance residuals at the
    energy pose and the certificate. Each case runs on
    `model.with_load(case["load"])`, which shares the model's load-free
    state; the model's own load is not used. A case's model serves its
    solve, search and residuals. A case is compared when both routes
    succeed, so its minimum is proven, and its bound is certified when
    `fingertip_bound_m` is not None; a certificate field that is not
    finite is written as None. The summary's `within_tolerance` holds
    only when every case was compared and, on every case, the gap and,
    where certified, the bound are at most TOLERANCE_FRACTION of finger
    length, so a gap that a faulty certificate failed to bound still
    fails the report. The largest gap is None when no case was compared.
    Refused settings (`statics.check_solver_settings`) raise ValueError
    before any case runs.
    """
    check_solver_settings(threshold, max_iterations)
    total_len = model.geom.total_length
    q = model.nominal.q
    entries = []
    worst = verdict = 0.0
    compared = 0
    for case in cases:
        load = case["load"]
        entry = {k: v for k, v in case.items() if k != "load"}
        entry["force_n"] = list(load.force)
        entry["moment_nm"] = load.moment
        entry["q_m"] = q
        case_model = model.with_load(load)
        try:
            sol = solve_static(case_model, threshold=threshold,
                               max_iterations=max_iterations)
        except TendonFingerError as exc:
            entry["fixed_point"] = {"error": f"{exc.__class__.__name__}: {exc}"}
            entries.append(entry)
            continue
        entry["fixed_point"] = _solution_summary(sol, case_model)

        try:
            eq = find_equilibrium(case_model)
        except TendonFingerError as exc:
            entry["energy_search"] = {"error": f"{exc.__class__.__name__}: {exc}"}
            entries.append(entry)
            continue
        entry["energy_search"] = {
            "theta_rad": list(eq.theta),
            "fingertip_m": list(eq.fingertip),
            "energy_j": eq.energy,
            "energy_at_fixed_point_j": case_model.energy(sol.configuration.theta),
            "evaluations": eq.evaluations,
        }
        delta = math.hypot(
            sol.fingertip[0] - eq.fingertip[0],
            sol.fingertip[1] - eq.fingertip[1],
        )
        entry["fingertip_delta_mm"] = delta * 1e3
        entry["delta_fraction_of_length"] = delta / total_len
        entry["balance_residuals_at_energy_pose"] = balance_residuals(
            case_model, eq.theta)
        gradient_norm = _gradient_norm(case_model, sol.configuration.theta)
        certificate = {
            "mu_elastic_nm_per_rad": case_model.elastic_convexity,
            "load_curvature_nm_per_rad": case_model.load_curvature,
            "mu_nm_per_rad": case_model.convexity,
            "gradient_norm_at_fixed_point_nm": gradient_norm,
        }
        mu = case_model.convexity
        if not mu > 0.0:
            lam, radius, mu = case_model.local_certificate(
                sol.configuration.theta, gradient_norm)
            certificate["lambda_at_fixed_point_nm_per_rad"] = lam
            certificate["ball_radius_rad"] = radius
        bound = certificate["fingertip_bound_m"] = case_model.fingertip_bound(
            gradient_norm, mu)
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
