"""
Equilibrium by total-potential-energy minimization.

Independent cross-check for the fixed-point static solver: the total
potential (link gravity + elastic energy of every tendon + external-load
potential) is minimized over the three joint angles. A coarse 21^3 grid
search finds the basin; Newton steps on the analytic gradient and
Hessian then polish its best sample. When the polish fails (it leaves
the first refinement box, meets a Hessian that is not positive definite,
runs out of steps or ends higher than the best sample), shrink-by-4 grid
boxes around the best sample refine it instead.

Tendon stretch model: the actuating tendon's routed length changes by
R1 * (theta_hat_1 - theta_1) relative to the prescribed displacement;
each coupling tendon spans two adjacent guide cylinders, so it stretches
only on the differential motion R_i * d_i - R_{i-1} * d_{i-1} with
d_i = theta_hat_i - theta_i. Extension-group stretches are the mirror
image. A slack tendon (negative stretch) stores no energy.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryMinimum, TendonFingerError
from .model import (
    THETA1_MAX,
    THETA1_MIN,
    Configuration,
    ExternalLoad,
    FingerGeometry,
    TendonGroup,
    chain_points,
    coupling_angles,
    cumulative_angles,
)
from .statics import (
    StaticSolution,
    coupling_rest_lengths,
    group_specs,
    net_external_moments,
    solve_static,
    wrap_angles,
    wrap_moment,
)

DEFAULT_GRID = 21
DEFAULT_REFINE_ROUNDS = 6
SEARCH_HALF_WIDTH = 0.5  # radians per axis around the nominal pose
NEWTON_MAX_STEPS = 8
NEWTON_STEP_TOL = 1e-13  # radians; the polish stops below this step


@dataclass(frozen=True)
class EnergyLandscapeSample:
    """Potential energy at one joint-angle triple, split by source."""

    theta: tuple[float, float, float]
    gravity_pe: float
    elastic_pe: float
    load_pe: float

    @property
    def total(self) -> float:
        return self.gravity_pe + self.elastic_pe + self.load_pe


@dataclass(frozen=True)
class EquilibriumResult:
    theta: tuple[float, float, float]
    fingertip: tuple[float, float]
    energy: float
    evaluations: int
    rounds: int


class _PotentialModel:
    """Precomputed quantities for fast batched potential evaluation."""

    def __init__(self, geom: FingerGeometry, specs, load: ExternalLoad, q: float):
        self.geom = geom
        self.specs = specs
        self.load = load
        self.q = q
        self.lengths = np.asarray(geom.link_lengths)
        self.radii = np.asarray(geom.guide_radii)
        self.masses = np.asarray(geom.link_masses)
        self.fracs = np.asarray(geom.com_fractions)
        self.g = geom.gravity_accel
        self.theta_hat = np.asarray(coupling_angles(q, geom).theta)

        lt2, lt3 = coupling_rest_lengths(geom)
        self.k_flex = self._group_stiffness(specs, TendonGroup.FLEXION, lt2, lt3)
        self.k_ext = self._group_stiffness(specs, TendonGroup.EXTENSION, lt2, lt3)

        # Joint k lifts every link j >= k: link j's own centre of mass by
        # frac_j L_j, and each later link's by L_j.
        m = self.masses
        self.lifted = (m * self.fracs + (np.sum(m) - np.cumsum(m))).tolist()

        self.force = np.asarray(load.force)
        if load.application_point is None:
            self.attach_local = None
        else:
            # Resolve the fixed base-frame point into the distal-link frame
            # at the nominal pose; it then rides with the link.
            nominal = Configuration(q=q, theta=tuple(self.theta_hat))
            pts = chain_points(nominal, geom)
            phi3 = float(cumulative_angles(nominal.theta)[2])
            rel = np.asarray(load.application_point) - pts[2]
            c, s = math.cos(-phi3), math.sin(-phi3)
            self.attach_local = np.array(
                [c * rel[0] - s * rel[1], s * rel[0] + c * rel[1]]
            )

    @staticmethod
    def _group_stiffness(specs, group, lt2, lt3) -> np.ndarray:
        trio = group_specs(specs, group)
        rests = (trio[0].rest_length, lt2, lt3)
        return np.array([t.axial_stiffness / r for t, r in zip(trio, rests)])

    def stretches(self, t1, t2, t3):
        """Unclamped flexion-side stretches of the three tendons at joint
        angles t1, t2, t3; the extension side is their negative. Tendon 1
        depends on t1 only, tendon 2 on t1 and t2, tendon 3 on t2 and t3."""
        h, r = self.theta_hat.tolist(), self.radii.tolist()
        rd1 = (h[0] - t1) * r[0]
        rd2 = (h[1] - t2) * r[1]
        rd3 = (h[2] - t3) * r[2]
        return rd1, rd2 - rd1, rd3 - rd2

    def tensions(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """Hooke tensions of the flexion and extension tendons at one pose."""
        flex = np.array(self.stretches(*theta))
        return (self.k_flex * np.clip(flex, 0.0, None),
                self.k_ext * np.clip(-flex, 0.0, None))

    def gradient_hessian(self, theta):
        """Analytic gradient (3,) and Hessian (3 x 3) of the total potential
        at one pose, as plain-float tuples.

        Elastic: tendon i pulls with J_i^T T_i and stiffens by
        J^T diag(k_i) J, J = d(stretch)/d(theta); a zero stretch counts as
        taut in both groups, so the unloaded pose keeps a positive-definite
        Hessian, and the gradient takes the taut side's one-sided
        derivative (a clamped stretch pulls with zero tension). Gravity and
        the load reach joint k through every link j >= k, so their
        Hessian entry (k, l) sums over j >= max(k, l).
        """
        t1, t2, t3 = (float(t) for t in theta)
        phi = (t1, t1 + t2, t1 + t2 + t3)
        sin = [math.sin(p) for p in phi]
        cos = [math.cos(p) for p in phi]
        R1, R2, R3 = self.radii.tolist()

        pull, stiff = [], []
        for s, k_flex, k_ext in zip(self.stretches(t1, t2, t3),
                                    self.k_flex.tolist(), self.k_ext.tolist()):
            pull.append(k_flex * max(s, 0.0) - k_ext * max(-s, 0.0))
            stiff.append((k_flex if s >= 0.0 else 0.0) + (k_ext if s <= 0.0 else 0.0))
        # d(stretch_i)/d(theta_k): actuating tendon -R1 on joint 1; coupling
        # tendon i couples joints i-1 (+R_{i-1}) and i (-R_i).
        n1, n2, n3 = pull
        k1, k2, k3 = stiff
        grad_elastic = (R1 * (n2 - n1), R2 * (n3 - n2), -R3 * n3)

        L = self.lengths.tolist()
        lifts = [l * c * w for l, c, w in zip(L, cos, self.lifted)]
        drops = [l * s * w for l, s, w in zip(L, sin, self.lifted)]
        ex = [l * c for l, c in zip(L, cos)]
        ey = [l * s for l, s in zip(L, sin)]
        if self.attach_local is not None:
            ax, ay = self.attach_local.tolist()
            ex[2] = cos[2] * ax - sin[2] * ay
            ey[2] = sin[2] * ax + cos[2] * ay

        g = self.g
        fx, fy = self.force.tolist()
        moment = self.load.moment
        lift_j, ex_j, ey_j = _tail_sums(lifts), _tail_sums(ex), _tail_sums(ey)
        grad = tuple(
            e + g * lift - (fx * -y + fy * x) - moment
            for e, lift, x, y in zip(grad_elastic, lift_j, ex_j, ey_j)
        )
        # The gravity and load Hessian entries (k, l) are tail[max(k, l)].
        tail = [-g * d + fx * x + fy * y
                for d, x, y in zip(_tail_sums(drops), ex_j, ey_j)]
        hess = (
            (R1 * R1 * (k1 + k2) + tail[0], -R1 * R2 * k2 + tail[1], tail[2]),
            (-R1 * R2 * k2 + tail[1], R2 * R2 * (k2 + k3) + tail[1],
             -R2 * R3 * k3 + tail[2]),
            (tail[2], -R2 * R3 * k3 + tail[2], R3 * R3 * k3 + tail[2]),
        )
        return grad, hess

    def axis_components(self, t1, t2, t3):
        """Gravity, elastic and load potentials at joint angles t1, t2, t3.

        The three arrays broadcast against each other, and each term is
        computed only on the angles it depends on: a search box passes
        its per-axis samples shaped (n, 1, 1), (1, n, 1) and (1, 1, n).
        Every point is computed with the operations, in the order, of a
        per-row evaluation, so its value does not depend on the shapes.
        """
        l1, l2, l3 = self.lengths
        m1, m2, m3 = self.masses
        fl1, fl2, fl3 = self.fracs * self.lengths
        phi1 = t1
        phi2 = phi1 + t2
        phi3 = phi2 + t3
        s1, s2, s3 = np.sin(phi1), np.sin(phi2), np.sin(phi3)
        c1, c2, c3 = np.cos(phi1), np.cos(phi2), np.cos(phi3)

        y1 = l1 * s1
        y2 = y1 + l2 * s2
        gravity = self.g * (
            m1 * (0.0 + fl1 * s1) + m2 * (y1 + fl2 * s2) + m3 * (y2 + fl3 * s3)
        )

        e1, e2, e3 = (
            k_flex * np.clip(flex, 0.0, None) ** 2
            + k_ext * np.clip(-flex, 0.0, None) ** 2
            for k_flex, k_ext, flex in zip(
                self.k_flex, self.k_ext, self.stretches(t1, t2, t3)
            )
        )
        elastic = 0.5 * (e1 + e2 + e3)

        x_j3 = l1 * c1 + l2 * c2
        if self.attach_local is None:
            px, py = x_j3 + l3 * c3, y2 + l3 * s3
        else:
            ax, ay = self.attach_local
            px = x_j3 + c3 * ax - s3 * ay
            py = y2 + s3 * ax + c3 * ay
        load_pe = -(self.force[0] * px + self.force[1] * py) - self.load.moment * phi3
        return gravity, elastic, load_pe

    def components(self, thetas: np.ndarray):
        """Gravity, elastic and load potentials for (N, 3) angle triples."""
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        return self.axis_components(thetas[:, 0], thetas[:, 1], thetas[:, 2])

    def total(self, thetas: np.ndarray) -> np.ndarray:
        g, e, l = self.components(thetas)
        return g + e + l


def total_potential(
    theta, geom: FingerGeometry, specs, load: ExternalLoad, q: float
) -> EnergyLandscapeSample:
    """Potential energy of one joint-angle triple (range-checked)."""
    theta = tuple(float(t) for t in theta)
    Configuration(q=q, theta=theta)  # raises RangeExceeded outside limits
    model = _potential_model(geom, specs, load, q)
    g, e, l = model.components(np.asarray(theta)[None, :])
    return EnergyLandscapeSample(
        theta=theta, gravity_pe=float(g[0]), elastic_pe=float(e[0]),
        load_pe=float(l[0]),
    )


def _tail_sums(values):
    """Sums over j >= k of three per-link values, for k = 1, 2, 3; summed
    from the distal link inwards."""
    v1, v2, v3 = values
    s2 = v3 + v2
    return (s2 + v1, s2, v3)


_last_model = None  # weak reference to the most recently built model


def _potential_model(geom: FingerGeometry, specs, load: ExternalLoad,
                     q: float) -> _PotentialModel:
    """The potential model of one load case.

    The most recently built model is reused while a caller still holds it
    and it was built from these very objects. `equilibrium_report` holds
    each case's model, so that case's search, energy line and residuals
    share it; no model outlives its last holder.
    """
    global _last_model
    m = _last_model() if _last_model is not None else None
    if m is None or not (m.geom is geom and m.specs is specs
                         and m.load is load and m.q is q):
        m = _PotentialModel(geom, specs, load, q)
        _last_model = weakref.ref(m)
    return m


def potential_gradient(
    theta, geom: FingerGeometry, specs, load: ExternalLoad, q: float
) -> np.ndarray:
    """Analytic d(total potential)/d(theta), shape (3,).

    At a slack/taut transition the one-sided derivative of the taut side
    is returned (the clamped stretch contributes zero when slack).
    """
    model = _potential_model(geom, specs, load, q)
    return np.array(model.gradient_hessian(theta)[0])


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


def _newton_polish(model: _PotentialModel, theta, lo, hi):
    """Newton steps from `theta` until a step is at most NEWTON_STEP_TOL.

    Returns (theta, steps) on convergence, or (None, steps) when an
    iterate leaves the box [lo, hi], the Hessian is not positive definite
    or NEWTON_MAX_STEPS pass first; `steps` counts gradient and Hessian
    evaluations.
    """
    theta = theta.tolist()
    lo, hi = lo.tolist(), hi.tolist()
    for steps in range(1, NEWTON_MAX_STEPS + 1):
        step = _newton_step(*model.gradient_hessian(theta))
        if step is None:
            return None, steps
        theta = [t + d for t, d in zip(theta, step)]
        if not all(a <= t <= b for a, t, b in zip(lo, theta, hi)):
            return None, steps
        if max(abs(d) for d in step) <= NEWTON_STEP_TOL:
            return np.array(theta), steps
    return None, NEWTON_MAX_STEPS


def find_equilibrium(
    geom: FingerGeometry,
    specs,
    load: ExternalLoad,
    q: float,
    grid: int = DEFAULT_GRID,
    refine_rounds: int = DEFAULT_REFINE_ROUNDS,
) -> EquilibriumResult:
    """Grid search plus a Newton polish over the joint angles.

    The search box spans +-0.5 rad per axis around the nominal coupled
    pose (the first axis clipped to the joint-1 range), sampled `grid`
    times per axis; its argmin is the first minimal sample in
    lexicographic index order. Newton steps on the analytic Hessian then
    polish that sample. The polish falls back to `refine_rounds`
    shrink-by-4 boxes around the sample when an iterate leaves the first
    of those boxes (the sample +- a quarter of the search half-width,
    clipped to the search box), the Hessian is not positive definite,
    NEWTON_MAX_STEPS pass, or the polished energy exceeds the sample's.

    `evaluations` counts the box's samples, the Newton steps and any
    fallback boxes' samples; `rounds` counts the boxes run, so it is 0
    after a polish. Raises BoundaryMinimum when the final minimizer sits
    on the search-box surface, which means the box should be widened.
    """
    if grid < 11:
        raise ValueError("grid must be >= 11 samples per axis")
    if refine_rounds < 0:
        raise ValueError("refine_rounds must be >= 0")
    return _equilibrium(_potential_model(geom, specs, load, q), grid, refine_rounds)


def _equilibrium(model: _PotentialModel, grid: int, refine_rounds: int,
                 polish: bool = True) -> EquilibriumResult:
    """find_equilibrium on a built model; `polish=False` runs the
    shrink-by-4 rounds straight after the box, as the fallback does."""
    center = model.theta_hat.copy()
    lo0 = center - SEARCH_HALF_WIDTH
    hi0 = center + SEARCH_HALF_WIDTH
    lo0[0] = max(lo0[0], THETA1_MIN)
    hi0[0] = min(hi0[0], THETA1_MAX)

    def evaluate_box(lo, hi):
        a1, a2, a3 = (np.linspace(lo[k], hi[k], grid) for k in range(3))
        g, e, l = model.axis_components(
            a1[:, None, None], a2[None, :, None], a3[None, None, :]
        )
        energies = g + e + l
        # C order on the (i, j, k) grid is lexicographic sample order.
        i, j, k = np.unravel_index(np.argmin(energies), energies.shape)
        theta = np.array([a1[i], a2[j], a3[k]])
        return theta, float(energies[i, j, k]), energies.size

    best_theta, best_energy, n_eval = evaluate_box(lo0, hi0)
    evaluations = n_eval
    half = (hi0 - lo0) / 2.0

    polished, steps = _newton_polish(
        model, best_theta,
        np.maximum(best_theta - half / 4.0, lo0),
        np.minimum(best_theta + half / 4.0, hi0),
    ) if polish else (None, 0)
    evaluations += steps
    energy = None if polished is None else float(model.total(polished)[0])
    rounds = 0
    if energy is not None and energy <= best_energy:
        best_theta, best_energy = polished, energy
    else:
        for rounds in range(1, refine_rounds + 1):
            half = half / 4.0
            lo = np.maximum(best_theta - half, lo0)
            hi = np.minimum(best_theta + half, hi0)
            theta_r, energy_r, n_eval = evaluate_box(lo, hi)
            evaluations += n_eval
            if energy_r < best_energy:
                best_theta, best_energy = theta_r, energy_r

    edge_tol = (hi0 - lo0) / (2.0 * (grid - 1))
    on_edge = np.any(
        (np.abs(best_theta - lo0) <= edge_tol)
        | (np.abs(best_theta - hi0) <= edge_tol)
    )
    theta = tuple(float(t) for t in best_theta)
    if on_edge:
        raise BoundaryMinimum(
            f"energy minimum {theta} lies on the search-box boundary"
        )

    tip = chain_points(Configuration(q=model.q, theta=theta), model.geom)[3]
    return EquilibriumResult(
        theta=theta,
        fingertip=(float(tip[0]), float(tip[1])),
        energy=best_energy,
        evaluations=evaluations,
        rounds=rounds,
    )


def balance_residuals(
    theta,
    geom: FingerGeometry,
    specs,
    load: ExternalLoad,
    q: float,
    group: TendonGroup,
) -> dict:
    """Moment-balance residuals (N m) at an arbitrary pose.

    Tensions are taken from Hooke's law applied to the pose's tendon
    stretches, then substituted into both tension formulations. A zero
    residual triple means the pose satisfies that formulation exactly.
    """
    theta = tuple(float(t) for t in theta)
    cfg = Configuration(q=q, theta=theta)
    moments = net_external_moments(cfg, geom, load)
    sign = 1.0 if group is TendonGroup.FLEXION else -1.0

    model = _potential_model(geom, specs, load, q)
    t_flex, t_ext = model.tensions(theta)
    tensions = t_flex if group is TendonGroup.FLEXION else t_ext

    radii = np.asarray(geom.guide_radii)
    t_next = np.append(tensions[1:], 0.0)
    tangent = moments + sign * radii * (tensions - t_next)

    lengths = geom.link_lengths
    try:
        wrap = wrap_angles(cfg, geom)
        wrap_int = [
            moments[0] + sign * (tensions[0] * radii[0] + tensions[1] * radii[1]
                                 - wrap_moment(tensions[1], lengths[1],
                                               theta[1], wrap.alpha2)),
            moments[1] + sign * (tensions[1] * radii[1] + tensions[2] * radii[2]
                                 - wrap_moment(tensions[2], lengths[2],
                                               theta[2], wrap.alpha3)),
            moments[2] + sign * tensions[2] * radii[2],
        ]
    except TendonFingerError:
        wrap_int = None

    return {
        "tensions_n": [float(t) for t in tensions],
        "tangent_nm": [float(r) for r in tangent],
        "wrap_integral_nm": None if wrap_int is None
        else [float(r) for r in wrap_int],
    }


def random_tip_load_cases(
    n: int,
    seed: int,
    geom: FingerGeometry,
    payload_range: tuple[float, float] = (0.2, 3.0),
    cone_half_angle_deg: float = 60.0,
) -> list[dict]:
    """Randomized fingertip loads: payload-scaled forces pointing into a
    downward cone so a single tendon group can always hold them."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n):
        payload = float(rng.uniform(*payload_range))
        angle = math.radians(-90.0 + float(
            rng.uniform(-cone_half_angle_deg, cone_half_angle_deg)
        ))
        magnitude = payload * geom.gravity_accel
        force = (magnitude * math.cos(angle), magnitude * math.sin(angle))
        cases.append({
            "payload_kg": payload,
            "direction_deg": math.degrees(angle),
            "load": ExternalLoad(force=force, moment=0.0),
        })
    return cases


def _solution_summary(sol: StaticSolution) -> dict:
    return {
        "theta_rad": list(sol.configuration.theta),
        "fingertip_m": list(sol.fingertip.position),
        "deflection_y_m": sol.deflection_y,
        "iterations": sol.iterations,
        "tensions_n": list(sol.tensions.as_tuple()),
    }


def equilibrium_report(
    geom: FingerGeometry,
    specs,
    q: float,
    cases,
    *,
    threshold: float = 1e-6,
    max_iterations: int = 100,
    grid: int = DEFAULT_GRID,
    refine_rounds: int = DEFAULT_REFINE_ROUNDS,
    literal_probe_payload: float | None = 3.0,
) -> dict:
    """Fixed-point vs energy-minimization comparison over load cases.

    Emits one entry per case with both equilibria, the fingertip gap and
    the balance residuals of both tension formulations at the energy
    pose. A case is compared when both routes succeed; the summary's
    `within_tolerance` holds only when every case was compared and the
    largest gap is at most 1% of finger length; the largest gap is None
    when no case was compared. When
    `literal_probe_payload` is set, the wrap-integral solver is
    additionally run on that tip payload and its outcome recorded,
    documenting how far the literal formulation strays.
    """
    total_len = geom.total_length
    entries = []
    worst = 0.0
    compared = 0
    for case in cases:
        load = case["load"]
        entry = {k: v for k, v in case.items() if k != "load"}
        entry["force_n"] = list(load.force)
        entry["moment_nm"] = load.moment
        entry["q_m"] = q
        try:
            sol = solve_static(
                q, geom, specs, load,
                threshold=threshold, max_iterations=max_iterations,
            )
        except TendonFingerError as exc:
            entry["fixed_point"] = {"error": f"{exc.__class__.__name__}: {exc}"}
            entries.append(entry)
            continue
        entry["fixed_point"] = _solution_summary(sol)

        try:
            # Held for the case, so the search and residuals below reuse it.
            model = _potential_model(geom, specs, load, q)
            eq = find_equilibrium(geom, specs, load, q,
                                  grid=grid, refine_rounds=refine_rounds)
        except TendonFingerError as exc:
            entry["energy_search"] = {"error": f"{exc.__class__.__name__}: {exc}"}
            entries.append(entry)
            continue
        energy_at_fp = float(model.total(
            np.asarray(sol.configuration.theta)[None, :]
        )[0])
        entry["energy_search"] = {
            "theta_rad": list(eq.theta),
            "fingertip_m": list(eq.fingertip),
            "energy_j": eq.energy,
            "energy_at_fixed_point_j": energy_at_fp,
            "evaluations": eq.evaluations,
        }
        delta = math.hypot(
            sol.fingertip.position[0] - eq.fingertip[0],
            sol.fingertip.position[1] - eq.fingertip[1],
        )
        entry["fingertip_delta_mm"] = delta * 1e3
        entry["delta_fraction_of_length"] = delta / total_len
        entry["balance_residuals_at_energy_pose"] = balance_residuals(
            eq.theta, geom, specs, load, q, sol.tensions.active_group
        )
        worst = max(worst, delta / total_len)
        compared += 1
        entries.append(entry)

    report = {
        "cases": entries,
        "summary": {
            "compared_cases": compared,
            "max_delta_fraction_of_length": worst if compared else None,
            "tolerance_fraction": 0.01,
            "within_tolerance": 0 < compared == len(entries) and worst <= 0.01,
        },
    }

    if literal_probe_payload is not None:
        probe_load = ExternalLoad.tip_payload(
            literal_probe_payload, geom.gravity_accel
        )
        probe: dict = {"payload_kg": literal_probe_payload}
        try:
            lit = solve_static(
                q, geom, specs, probe_load,
                threshold=threshold, max_iterations=max_iterations,
                model="wrap-integral",
            )
            probe["status"] = "converged"
            probe["solution"] = _solution_summary(lit)
        except TendonFingerError as exc:
            probe["status"] = f"{exc.__class__.__name__}"
            probe["detail"] = str(exc)
            trace = getattr(exc, "trace", None)
            if trace:
                probe["last_iterations"] = [
                    {
                        "iteration": rec.index,
                        "fingertip_y_m": rec.fingertip_y,
                        "tensions_n": list(rec.tensions),
                        "residual_m": rec.residual,
                    }
                    for rec in trace[-3:]
                ]
        report["wrap_integral_probe"] = probe

    return report
