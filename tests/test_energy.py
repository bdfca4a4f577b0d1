import hashlib
import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tendonfinger import energy
from tendonfinger.energy import (
    NEWTON_MAX_STEPS,
    TOLERANCE_FRACTION,
    EquilibriumResult,
    balance_residuals,
    equilibrium_report,
    find_equilibrium,
    random_tip_load_cases,
)
from tendonfinger.errors import (
    GeometryInfeasible,
    NoConvergence,
    RangeExceeded,
    TendonFingerError,
    UnprovenMinimum,
)
from tendonfinger.model import (
    THETA1_MAX,
    THETA1_MIN,
    Configuration,
    ExternalLoad,
    FingerGeometry,
    TendonGroup,
    coupling_angles,
    link_pose,
)
from tendonfinger import potential
from tendonfinger.potential import (
    PotentialModel,
    ldl_step,
    link_trig,
    zero_pose_wrap,
)
from tendonfinger.statics import (
    pose_moments,
    solve_static,
    wrap_moment,
)

from conftest import (
    STEEL_AREA,
    STEEL_E,
    count_models,
    count_newton_steps,
    heavy_load_corpus,
    make_specs,
    reference_step,
    trig_is_math,
    unloaded_model,
)


# Frozen references: the row-by-row evaluation on an (N, 3) meshgrid
# that the oracle's box search used before its per-axis evaluation, and
# the box search's first box. They stay exactly as they were; `_arrays`
# hands them the model's inputs as the numpy arrays they index.

def _arrays(model):
    geom = model.geom
    return SimpleNamespace(
        lengths=np.array(geom.link_lengths), radii=np.array(geom.guide_radii),
        masses=np.array(geom.link_masses), fracs=np.array(geom.com_fractions),
        g=model.g, theta_hat=np.array(model.nominal.theta),
        k_flex=np.array(model.k_flex), k_ext=np.array(model.k_ext),
        force=np.array(model.load.force), attach_local=model.attach_local,
        load=model.load,
    )


def _reference_components(model, thetas):
    model = _arrays(model)
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    phi = np.cumsum(thetas, axis=1)
    sin_phi = np.sin(phi)
    cos_phi = np.cos(phi)

    y_ends = np.cumsum(model.lengths[None, :] * sin_phi, axis=1)
    y_starts = np.concatenate(
        (np.zeros((thetas.shape[0], 1)), y_ends[:, :2]), axis=1
    )
    y_com = y_starts + model.fracs[None, :] * model.lengths[None, :] * sin_phi
    gravity = model.g * np.sum(model.masses[None, :] * y_com, axis=1)

    rd = (model.theta_hat[None, :] - thetas) * model.radii[None, :]
    flex = np.empty_like(rd)
    flex[:, 0] = rd[:, 0]
    flex[:, 1] = rd[:, 1] - rd[:, 0]
    flex[:, 2] = rd[:, 2] - rd[:, 1]
    ext = -flex
    elastic = 0.5 * np.sum(
        model.k_flex[None, :] * np.clip(flex, 0.0, None) ** 2
        + model.k_ext[None, :] * np.clip(ext, 0.0, None) ** 2,
        axis=1,
    )

    x_tip = np.sum(model.lengths[None, :] * cos_phi, axis=1)
    y_tip = y_ends[:, 2]
    if model.attach_local is None:
        px, py = x_tip, y_tip
    else:
        x_j3 = np.sum(model.lengths[None, :2] * cos_phi[:, :2], axis=1)
        y_j3 = y_ends[:, 1]
        c3, s3 = cos_phi[:, 2], sin_phi[:, 2]
        ax, ay = model.attach_local
        px = x_j3 + c3 * ax - s3 * ay
        py = y_j3 + s3 * ax + c3 * ay
    load_pe = (
        -(model.force[0] * px + model.force[1] * py)
        - model.load.moment * np.sum(thetas, axis=1)
    )
    return gravity, elastic, load_pe


def _reference_total(model, thetas):
    g, e, l = _reference_components(model, thetas)
    return g + e + l


def _meshgrid_rows(axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


REFERENCE_HALF_WIDTH = 0.5  # radians per axis of the reference box
REFERENCE_GRID = 21  # samples per axis of the reference box


def _reference_find_equilibrium(geom, specs, load, q):
    """The best sample of one box of REFERENCE_GRID samples per joint
    angle, +-REFERENCE_HALF_WIDTH around the nominal pose with the first
    axis clipped to the joint-1 range, as a result; None where it lies
    within half a cell of the box's surface (no interior sample)."""
    model = PotentialModel(geom, specs, load, q)
    center = _arrays(model).theta_hat
    lo0 = center - REFERENCE_HALF_WIDTH
    hi0 = center + REFERENCE_HALF_WIDTH
    lo0[0] = max(lo0[0], THETA1_MIN)
    hi0[0] = min(hi0[0], THETA1_MAX)
    thetas = _meshgrid_rows([np.linspace(lo0[k], hi0[k], REFERENCE_GRID)
                             for k in range(3)])
    energies = _reference_total(model, thetas)
    best = int(np.argmin(energies))
    best_theta = thetas[best]

    edge_tol = (hi0 - lo0) / (2.0 * (REFERENCE_GRID - 1))
    if np.any((np.abs(best_theta - lo0) <= edge_tol)
              | (np.abs(best_theta - hi0) <= edge_tol)):
        return None
    theta = tuple(float(t) for t in best_theta)
    return EquilibriumResult(
        theta=theta,
        fingertip=link_pose(theta, geom)[0][3],
        energy=float(energies[best]),
        evaluations=thetas.shape[0],
    )


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def _reference_balance_residuals(model, theta, sides):
    """The numpy `balance_residuals` that the plain-float one replaced,
    given each index's taut side (+1 flexion, -1 extension)."""
    geom = model.geom
    theta = tuple(float(t) for t in theta)
    Configuration(q=model.nominal.q, theta=theta)
    pose = link_pose(theta, geom)
    moments = np.array(pose_moments(pose, geom, model.load_at(theta, pose)))
    tensions = np.array(model.tensions(theta)[0])
    net = np.asarray(sides) * tensions
    radii = np.asarray(geom.guide_radii)
    n_next = np.append(net[1:], 0.0)
    tangent = moments + radii * (net - n_next)

    lengths = geom.link_lengths
    try:
        alpha2, alpha3 = zero_pose_wrap(geom).angles_at(theta)
        wrap_int = [
            moments[0] + (net[0] * radii[0] + net[1] * radii[1]
                          - wrap_moment(net[1], lengths[1], theta[1], alpha2)),
            moments[1] + (net[1] * radii[1] + net[2] * radii[2]
                          - wrap_moment(net[2], lengths[2], theta[2], alpha3)),
            moments[2] + net[2] * radii[2],
        ]
    except TendonFingerError:
        wrap_int = None

    return {
        "tensions_n": [float(t) for t in tensions],
        "tangent_nm": [float(r) for r in tangent],
        "wrap_integral_nm": None if wrap_int is None
        else [float(r) for r in wrap_int],
    }


def _reference_gravity_gradient(model, theta):
    """The triple loop that the reverse cumulative sum replaced."""
    model = _arrays(model)
    cos_phi = np.cos(np.cumsum(theta))
    L = model.lengths
    grad = np.zeros(3)
    for k in range(3):
        acc = 0.0
        for i in range(3):
            d = 0.0
            for j in range(k, i):
                d += L[j] * cos_phi[j]
            if i >= k:
                d += model.fracs[i] * L[i] * cos_phi[i]
            acc += model.masses[i] * model.g * d
        grad[k] = acc
    return grad


REFERENCE_LOADS = {
    "tip": ExternalLoad(force=(3.0, -20.0), moment=0.0),
    "attached_with_moment": ExternalLoad(force=(-2.0, -12.0), moment=0.015,
                                         application_point=(0.15, -0.01)),
    "zero": ExternalLoad(),
}


def _gradient(model, theta):
    """The potential's analytic gradient at one pose, shape (3,)."""
    theta = tuple(float(t) for t in theta)
    return np.array(model.derivatives(*theta, *link_trig(*theta))[:3])


class TestPotential:
    def test_zero_at_nominal_unloaded(self, geom_massless):
        q = 0.004
        model = PotentialModel(geom_massless, make_specs(), ExternalLoad(), q)
        theta = coupling_angles(q, geom_massless).theta
        assert model.energy(theta) == 0.0

    def test_distal_perturbation_quadratic(self, geom_massless):
        # Moving only joint 3 stretches only that coupling tendon, giving
        # the quadratic 0.5 * (E A / L_T3) * (R3 d)^2; with no mass and no
        # load that is the whole potential.
        q, d = 0.002, 1.5e-3
        model = PotentialModel(geom_massless, make_specs(), ExternalLoad(), q)
        theta = list(coupling_angles(q, geom_massless).theta)
        theta[2] += d
        lt3 = zero_pose_wrap(geom_massless).rest_length_3
        k3 = STEEL_E * STEEL_AREA / lt3
        expect = 0.5 * k3 * (geom_massless.guide_radii[2] * d) ** 2
        assert model.energy(theta) == pytest.approx(expect, rel=1e-9)


class TestGradient:
    def test_matches_finite_differences(self, geom_cal):
        specs = make_specs()
        load = ExternalLoad(force=(0.4, -20.0), moment=-0.01)
        model = PotentialModel(geom_cal, specs, load, 0.0)
        rng = np.random.default_rng(23)
        h = 1e-7
        for _ in range(50):
            # Sample strictly on the flexion-taut side so the clamp is
            # differentiable at the evaluation point.
            theta = tuple(-float(v) for v in rng.uniform(0.01, 0.12, 3))
            grad = _gradient(model, theta)
            fd = np.zeros(3)
            for k in range(3):
                tp, tm = list(theta), list(theta)
                tp[k] += h
                tm[k] -= h
                fd[k] = (model.energy(tp) - model.energy(tm)) / (2 * h)
            rel = np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-9))
            assert rel < 1e-4

    def test_matches_finite_differences_with_attached_point(self, geom_cal):
        # Force applied at a fixed point that rides with the distal link.
        specs = make_specs()
        load = ExternalLoad(force=(0.0, -10.0), moment=0.0,
                            application_point=(0.15, 0.0))
        model = PotentialModel(geom_cal, specs, load, 0.0)
        theta = (-0.05, -0.09, -0.15)
        grad = _gradient(model, theta)
        h = 1e-7
        fd = np.zeros(3)
        for k in range(3):
            tp, tm = list(theta), list(theta)
            tp[k] += h
            tm[k] -= h
            fd[k] = (model.energy(tp) - model.energy(tm)) / (2 * h)
        assert np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-9)) < 1e-4


    def test_gravity_gradient_matches_loop(self, geom_cal, monkeypatch):
        # At the nominal pose with no load, tendons are unstretched, so
        # the gradient is the gravity term alone. Distinct masses and
        # centre-of-mass fractions weight every link differently.
        geoms = (geom_cal, FingerGeometry(
            link_lengths=geom_cal.link_lengths,
            guide_radii=geom_cal.guide_radii,
            link_masses=(0.09, 0.05, 0.02),
            com_fractions=(0.3, 0.45, 0.6),
            gravity_accel=geom_cal.gravity_accel,
        ))
        specs = make_specs()
        q_max = THETA1_MAX * geom_cal.guide_radii[0]
        for geom in geoms:
            scale = geom.gravity_accel * sum(geom.link_masses) * geom.total_length
            for q in np.linspace(-q_max, q_max, 41):
                # The whole joint range, past the rigid poses that the
                # coupling tendons can wrap: a model refuses those when it
                # is built, but the solver's steps still pass through them,
                # and neither gradient reads the wrap.
                with monkeypatch.context() as m:
                    m.setattr(type(zero_pose_wrap(geom)), "angles_at",
                              lambda self, theta: (0.0, 0.0))
                    model = PotentialModel(geom, specs, ExternalLoad(), q)
                theta = model.nominal.theta
                grad = _gradient(model, theta)
                ref = _reference_gravity_gradient(model, theta)
                np.testing.assert_allclose(grad, ref, rtol=1e-12,
                                           atol=1e-12 * scale)


def _taut_poses(model, group, n, seed):
    """Poses whose tendons of `group` are all taut, each stretch at least
    20 um (a 1e-6 rad probe moves a stretch by under 1e-8 m)."""
    rng = np.random.default_rng(seed)
    sign = 1.0 if group is TendonGroup.FLEXION else -1.0
    for _ in range(n):
        rd = np.cumsum(rng.uniform(2e-5, 5e-4, 3))  # R_i d_i, increasing
        theta = (np.array(model.nominal.theta)
                 - sign * rd / np.array(model.geom.guide_radii))
        assert np.min(sign * np.array(model.stretches(*theta))) >= 1e-5
        yield theta


class TestHessian:
    @pytest.mark.parametrize("q", [0.0, 1e-3])
    @pytest.mark.parametrize("group", [TendonGroup.FLEXION, TendonGroup.EXTENSION])
    @pytest.mark.parametrize("load_name", sorted(REFERENCE_LOADS))
    def test_matches_central_difference_of_gradient(self, geom_cal, load_name,
                                                    group, q):
        specs, load = make_specs(), REFERENCE_LOADS[load_name]
        model = PotentialModel(geom_cal, specs, load, q)
        h = 1e-6
        for theta in _taut_poses(model, group, 20, seed=31):
            upper = model.derivatives(*theta, *link_trig(*theta))[3:]
            fd = np.zeros((3, 3))
            for k in range(3):
                tp, tm = theta.copy(), theta.copy()
                tp[k] += h
                tm[k] -= h
                fd[:, k] = (_gradient(model, tp) - _gradient(model, tm)) / (2 * h)
            # Gravity-only off-diagonal entries are ~1e-3 of the diagonal;
            # the difference quotient's rounding floor is about 1e-9 of it.
            # The upper entries match both triangles of the quotient.
            for triangle in (fd, fd.T):
                np.testing.assert_allclose(upper, triangle[np.triu_indices(3)],
                                           rtol=1e-6, atol=1e-9 * np.max(np.abs(upper)))

    def test_zero_stretch_counts_as_taut(self, geom_massless):
        # Unloaded and massless at the nominal pose every stretch is zero;
        # both groups count as taut, so the Hessian stays positive definite.
        model = PotentialModel(geom_massless, make_specs(), ExternalLoad(), 2e-3)
        theta = model.nominal.theta
        derivatives = model.derivatives(*theta, *link_trig(*theta))
        assert derivatives[:3] == (0.0, 0.0, 0.0)
        R = model.geom.guide_radii
        jac = np.array([[-R[0], 0.0, 0.0], [R[0], -R[1], 0.0], [0.0, R[1], -R[2]]])
        elastic = jac.T @ np.diag(np.add(model.k_flex, model.k_ext)) @ jac
        np.testing.assert_allclose(derivatives[3:], elastic[np.triu_indices(3)],
                                   rtol=1e-12)
        assert np.all(np.linalg.eigvalsh(elastic) > 0.0)
        assert reference_step(model, theta) == (0.0, 0.0, 0.0)

    def test_newton_step_solves_or_refuses(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.normal(size=(3, 3))
            spd = a @ a.T + 0.1 * np.eye(3)
            grad = rng.normal(size=3)
            step = ldl_step(*grad, *spd[np.triu_indices(3)])
            np.testing.assert_allclose(step, np.linalg.solve(spd, -grad),
                                       rtol=1e-9, atol=1e-12)
        for indefinite in (np.diag([1.0, -1.0, 1.0]), np.diag([0.0, 1.0, 1.0]),
                           np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0],
                                     [0.0, 0.0, 1.0]]),
                           np.diag([1.0, 1.0, np.nan])):
            assert ldl_step(1.0, 1.0, 1.0, *indefinite[np.triu_indices(3)]) is None


class TestSinglePose:
    """One pose's potential, in plain floats, gives the frozen row-by-row
    evaluation's values wherever numpy's sin/cos are libm's."""

    @staticmethod
    def _cases(geom_cal):
        flat = FingerGeometry(
            link_lengths=geom_cal.link_lengths, guide_radii=geom_cal.guide_radii,
            link_masses=(0.0, 0.0, geom_cal.link_masses[2]),
            com_fractions=(0.0, 0.5, 1.0), gravity_accel=geom_cal.gravity_accel,
        )
        loads = [*REFERENCE_LOADS.values(),
                 ExternalLoad(force=(0.0, -0.0), moment=-0.0)]
        rng = np.random.default_rng(41)
        for _ in range(60):
            loads.append(ExternalLoad(
                force=tuple(rng.uniform(-40.0, 40.0, 2).tolist()),
                moment=float(rng.uniform(-0.05, 0.05)),
                application_point=(None if rng.random() < 0.5
                                   else tuple(rng.uniform(-0.2, 0.2, 2).tolist()))))
        for i, load in enumerate(loads):
            geom = flat if i % 2 else geom_cal
            for q in (0.0, -0.0, 1e-3, -1e-3):
                model = PotentialModel(geom, make_specs(), load, q)
                h1, h2, h3 = model.nominal.theta
                # Signed zeros, then stretches of exactly zero: all three,
                # tendons 1 and 2, tendon 1 alone; then random poses.
                poses = [(-0.0, 0.0, -0.0), (0.0, -0.0, 0.0),
                         (h1, h2, h3), (h1, h2, h3 - 0.05), (h1, h2 + 0.03, h3)]
                poses += [tuple(h + d for h, d in zip(
                    model.nominal.theta, rng.uniform(-0.5, 0.5, 3).tolist()))
                          for _ in range(5)]
                yield model, poses

    def test_floats_match_the_frozen_rows(self, geom_cal):
        # The potential equals the frozen rows' total; the frozen sums
        # start from numpy's +0.0 or -0.0 where the plain floats do not,
        # so a zero's sign may differ.
        for model, poses in self._cases(geom_cal):
            for theta in poses:
                new = model.energy(theta)
                [ref] = _reference_total(model, [theta])
                t1, t2, t3 = theta
                assert type(new) is float
                if trig_is_math([t1, t1 + t2, (t1 + t2) + t3]):
                    assert new == ref
                else:
                    np.testing.assert_allclose(new, ref, rtol=1e-12, atol=1e-12)

    def test_balance_residuals_match_numpy_reference(self, geom_cal):
        # Both read their moments and wrap angles from the same plain-float
        # pose, so they agree bit for bit on any platform; a distal angle
        # past alpha_3 = 0 leaves no wrap-integral reading. Each index's
        # side is the sign of its stretch, a zero stretch counting as
        # flexion.
        for model, poses in self._cases(geom_cal):
            for theta in [*poses, (0.1, 0.2, 2.0)]:
                sides = [1.0 if s >= 0.0 else -1.0
                         for s in model.stretches(*theta)]
                new = balance_residuals(model, theta)
                ref = _reference_balance_residuals(model, theta, sides)
                assert new.keys() == ref.keys()
                for key in new:
                    if ref[key] is None:
                        assert new[key] is None
                    else:
                        assert (np.array(new[key]).tobytes()
                                == np.array(ref[key]).tobytes())
        model = PotentialModel(geom_cal, make_specs(), ExternalLoad(), 0.0)
        with pytest.raises(RangeExceeded):
            balance_residuals(model, (1.8, 0.0, 0.0))

    # SHA-256 of json.dumps(equilibrium_report(...)) on the shipped
    # calibration for 4 cases of each (seed, q). Recorded before single
    # poses moved from 1-row arrays to plain floats, re-pinned when
    # `fixed_point.tensions_n` became the solved pose's Hooke tensions,
    # and re-pinned when certified cases skipped the box: each entry
    # gained its `certificate`, and the energy search's pose moved in its
    # last bits (by at most 4.2e-16 relative) with the values derived
    # from it.
    REPORT_DIGESTS = {
        (0, 0.0): "8d758a50e6523b7aa2ab02f1e838c92277e38203f31f25e350cd284d7d19ee20",
        (7, 0.0): "886f42ab0e0ec6efff6f9b190f1432dafef4bd7997d25e2e79e92e2445b23e5d",
        (399, 0.0): "7b4985a3a282ef724800b47abc4b22f8ab00765a9a49f58d11a346af7c1e286b",
        (7, 1e-3): "3a8d9ff216f596f062f2db0cfcf302ed3a1e4eb6d68bb62ac6c80093929fb74e",
        (7, -1e-3): "56f759770843f04c0dde1b78ae071e736e7fe9cfe9d938c9198402587faf5d33",
    }

    @pytest.mark.parametrize("seed, q", sorted(REPORT_DIGESTS))
    def test_report_unchanged(self, calibrated, seed, q):
        geom, specs = calibrated.geometry, calibrated.tendons
        report = equilibrium_report(unloaded_model(geom, specs, q),
                                    random_tip_load_cases(4, seed, geom))
        digest = hashlib.sha256(json.dumps(report).encode()).hexdigest()
        assert digest == self.REPORT_DIGESTS[seed, q]

    # The same digest for reports with cases beyond the global certificate,
    # which the local proof covers: the mixed report of `_mixed_report`
    # (local, global, global, local, global) and six drawn loads on
    # E = 4e10 Pa tendons, whose second and fifth cases are local.
    # Re-pinned when the local proof replaced the box search on those
    # cases: their `energy_search` counts Newton steps, and their
    # certificates gained the local proof's lambda, ball radius and bound.
    LOCAL_DIGESTS = {
        "mixed": "27c5262d0cdf871c132e5f6fd032ae313dfd5010725c6bd4af6a14db7874b85f",
        "soft": "af89d273411817bafa4744b4099f3e3ec4912b4fdc8b4d72c46b0a4bc4a19f21",
    }

    @pytest.mark.parametrize("name", sorted(LOCAL_DIGESTS))
    def test_local_report_unchanged(self, calibrated, name):
        geom, specs = calibrated.geometry, calibrated.tendons
        if name == "mixed":
            report = _mixed_report(geom, specs)
            local = [True, False, False, True, False]
        else:
            report = equilibrium_report(unloaded_model(geom, _soft_specs(specs)),
                                        random_tip_load_cases(6, 7, geom))
            local = [False, True, False, False, True, False]
        assert [_local(c) for c in report["cases"]] == local
        assert all(map(_certified, report["cases"]))
        digest = hashlib.sha256(json.dumps(report).encode()).hexdigest()
        assert digest == self.LOCAL_DIGESTS[name]


def _mixed_report(geom, specs):
    """A report at q = 1e-3 of a 12 kg tip load, two drawn cases, a 15 kg
    tip load and the third drawn case. 12 and 15 kg lie beyond the global
    certificate (B > mu_e), so the local proof covers those two cases."""
    heavy = [{"payload_kg": kg, "load": ExternalLoad.tip_payload(kg)}
             for kg in (12.0, 15.0)]
    drawn = random_tip_load_cases(3, 7, geom)
    cases = [heavy[0], *drawn[:2], heavy[1], drawn[2]]
    return equilibrium_report(unloaded_model(geom, specs, 1e-3), cases)


def _soft_specs(specs):
    """`specs` with every Young's modulus 4e10 Pa, a fifth of the
    calibration's steel: soft enough that some drawn loads lie beyond the
    global certificate."""
    return tuple(s._replace(youngs_modulus=4e10) for s in specs)


def _directed(payload_kg, direction_deg, g=9.81):
    """A force of `payload_kg` times g at `direction_deg` from the x axis."""
    weight = payload_kg * g
    angle = math.radians(direction_deg)
    return ExternalLoad(force=(weight * math.cos(angle), weight * math.sin(angle)))


class TestFindEquilibrium:
    def test_unloaded_minimum_at_nominal(self, geom_massless):
        q = 0.003
        eq = find_equilibrium(PotentialModel(geom_massless, make_specs(),
                                             ExternalLoad(), q))
        nominal = coupling_angles(q, geom_massless).theta
        for a, b in zip(eq.theta, nominal):
            assert a == pytest.approx(b, abs=1e-4)
        assert eq.energy <= 0.0 + 1e-15

    def test_minimum_below_nominal_and_local_probes(self, geom_cal):
        specs = make_specs()
        load = ExternalLoad.tip_payload(1.0, geom_cal.gravity_accel)
        model = PotentialModel(geom_cal, specs, load, 0.0)
        eq = find_equilibrium(model)
        assert eq.energy <= model.energy(coupling_angles(0.0, geom_cal).theta)
        rng = np.random.default_rng(4)
        # Probes up to one reference-box cell away. The minimum is
        # Newton-converged, not a sample, so no probe may lie below it.
        cell = 2.0 * REFERENCE_HALF_WIDTH / (REFERENCE_GRID - 1)
        for _ in range(100):
            probe = tuple(
                t + float(d) for t, d in zip(eq.theta, rng.uniform(-cell, cell, 3))
            )
            assert eq.energy <= model.energy(probe)

    def test_rigid_limit_near_nominal(self, geom_cal):
        # At E = 1e15 the steel-case equilibrium angles scale down by
        # 2e11 / 1e15; that puts every joint within ~5e-5 rad of nominal.
        specs = make_specs(youngs_modulus=1e15)
        load = ExternalLoad.tip_payload(3.0, geom_cal.gravity_accel)
        eq = find_equilibrium(PotentialModel(geom_cal, specs, load, 0.0))
        assert max(abs(t) for t in eq.theta) < 1e-4

    def test_heavy_tip_load_proven_locally(self, geom_cal):
        # 60 kg: B = 165.7 N m/rad outweighs mu_e, so the global proof
        # fails; the local one holds at the Newton minimum, whose distal
        # angle lies beyond -0.5 rad, where the reference box ends.
        model = PotentialModel(geom_cal, make_specs(),
                               ExternalLoad.tip_payload(60.0), 0.0)
        assert model.convexity < 0.0
        eq = find_equilibrium(model)
        assert eq.evaluations <= NEWTON_MAX_STEPS
        assert eq.theta[2] < -REFERENCE_HALF_WIDTH
        lam, radius, modulus = model.local_certificate(
            eq.theta, _gradient_norm(model, eq.theta))
        assert modulus == 0.5 * lam > 0.0
        assert radius > 0.0
        assert math.dist(eq.theta, solve_static(model).configuration.theta) < 1e-9
        assert _reference_find_equilibrium(geom_cal, make_specs(),
                                           model.load, 0.0) is None


class TestNewtonRun:
    """The oracle's one route, Newton steps from the nominal pose and a
    proof at the pose they reach, against the reference box's best
    sample; and what a failed run raises."""

    @pytest.mark.parametrize("q", [0.0, 1e-3, -1e-3])
    @pytest.mark.parametrize("load_name", sorted(REFERENCE_LOADS))
    def test_run_refines_reference_sample(self, geom_cal, load_name, q):
        specs, load = make_specs(), REFERENCE_LOADS[load_name]
        eq = find_equilibrium(PotentialModel(geom_cal, specs, load, q))
        ref = _reference_find_equilibrium(geom_cal, specs, load, q)
        assert eq.evaluations <= NEWTON_MAX_STEPS
        # Within a reference-box cell of the best sample, and below it.
        cell = 2.0 * REFERENCE_HALF_WIDTH / (REFERENCE_GRID - 1)
        assert max(abs(a - b) for a, b in zip(eq.theta, ref.theta)) <= cell
        assert eq.energy <= ref.energy
        grad = _gradient(PotentialModel(geom_cal, specs, load, q), eq.theta)
        assert np.max(np.abs(grad)) <= 1e-9

    @pytest.mark.parametrize("kg", [2.0, 60.0])
    def test_step_cap_raises_unproven_minimum(self, geom_cal, monkeypatch, kg):
        # One Newton step cannot converge, whichever proof would follow.
        monkeypatch.setattr(energy, "NEWTON_MAX_STEPS", 1)
        model = PotentialModel(geom_cal, make_specs(),
                               ExternalLoad.tip_payload(kg), 0.0)
        with pytest.raises(UnprovenMinimum,
                           match="^Newton step 1 from the nominal pose failed$"):
            find_equilibrium(model)

    def test_non_finite_step_raises_unproven_minimum(self, calibrated):
        # A -1e308 N m moment sends the first step past the finite numbers.
        model = PotentialModel(calibrated.geometry, calibrated.tendons,
                               ExternalLoad(moment=-1e308), 0.0)
        with pytest.raises(UnprovenMinimum,
                           match="^Newton step 1 from the nominal pose failed$"):
            find_equilibrium(model)

    # Corpus draws (E, q, load) whose Newton run converges at a pose the
    # solver refuses too, with what both raise: 56 (30 kg nearly along +x)
    # past the joint-1 range, and 102 where the distal coupling tendon
    # cannot wrap its guides.
    REFUSED_MINIMA = {
        "range": (56, RangeExceeded, "^theta_1 = 1.693355 rad outside "),
        "wrap": (102, GeometryInfeasible, "^wrap angle -"),
    }

    @pytest.mark.parametrize("name", sorted(REFUSED_MINIMA))
    def test_minimum_the_solver_refuses(self, calibrated, heavy_corpus, name):
        index, error, message = self.REFUSED_MINIMA[name]
        youngs_modulus, q, load = heavy_corpus[index]
        specs = tuple(s._replace(youngs_modulus=youngs_modulus)
                      for s in calibrated.tendons)
        model = PotentialModel(calibrated.geometry, specs, load, q)
        with pytest.raises(error, match=message):
            find_equilibrium(model)
        with pytest.raises(error):
            solve_static(model)

    def test_refused_hessian_raises_unproven_minimum(self, calibrated):
        # 37.5 kg at -156 degrees, q = 2.9 mm: the solver refuses a Hessian
        # that is not positive definite, and the oracle's run, the same
        # steps, fails at the same step.
        model = PotentialModel(calibrated.geometry, calibrated.tendons,
                               _directed(37.5, -156.0), 2.9e-3)
        with pytest.raises(NoConvergence, match="Hessian not positive definite") as exc:
            solve_static(model)
        step = len(exc.value.trace) + 1
        with pytest.raises(UnprovenMinimum,
                           match=f"^Newton step {step} from the nominal pose failed$"):
            find_equilibrium(model)

    @settings(max_examples=40, deadline=None)
    @given(payload=st.floats(0.2, 3.0), direction_deg=st.floats(-150.0, -30.0))
    def test_run_never_above_best_sample(self, calibrated, payload,
                                         direction_deg):
        # The load ranges of random_tip_load_cases, which oracle-check draws.
        geom, specs = calibrated.geometry, calibrated.tendons
        load = _directed(payload, direction_deg, geom.gravity_accel)
        coarse = _reference_find_equilibrium(geom, specs, load, 0.0)
        eq = find_equilibrium(PotentialModel(geom, specs, load, 0.0))
        assert eq.energy <= coarse.energy

    @settings(max_examples=150, deadline=None)
    @given(
        q=st.floats(-6e-3, 6e-3),
        payload=st.floats(0.0, 40.0),
        direction_deg=st.floats(-180.0, 180.0),
        moment=st.floats(-0.3, 0.3),
        attach=st.none() | st.tuples(st.floats(0.05, 0.2), st.floats(-0.05, 0.05)),
        youngs_modulus=st.sampled_from([2e11, 4e10, 1e10, 5e9]),
    )
    def test_property_outcome_of_the_one_route(self, calibrated, q, payload,
                                               direction_deg, moment, attach,
                                               youngs_modulus):
        # Over heavy loads in any direction, find_equilibrium gives a
        # result that one of the two proofs covers at its pose, or raises
        # UnprovenMinimum saying which part failed, or refuses a minimum
        # beyond the first joint's range or one the tendons cannot wrap.
        geom = calibrated.geometry
        specs = tuple(s._replace(youngs_modulus=youngs_modulus)
                      for s in calibrated.tendons)
        load = ExternalLoad(force=_directed(payload, direction_deg,
                                            geom.gravity_accel).force,
                            moment=moment, application_point=attach)
        model = PotentialModel(geom, specs, load, q)
        outcome = _outcome(model)
        if isinstance(outcome, EquilibriumResult):
            assert outcome.evaluations <= NEWTON_MAX_STEPS
            assert outcome.energy == model.energy(outcome.theta)
            assert (model.convexity > 0.0 or model.local_certificate(
                outcome.theta, _gradient_norm(model, outcome.theta))[2] is not None)
        elif outcome.startswith("UnprovenMinimum: energy minimum ("):
            assert outcome.endswith(" is proven neither globally nor locally")
            assert not model.convexity > 0.0
        else:
            assert (re.fullmatch(r"UnprovenMinimum: Newton step \d+ from the "
                                 r"nominal pose failed", outcome)
                    or outcome.startswith(("RangeExceeded: theta_1 = ",
                                           "GeometryInfeasible: wrap angle "))), outcome

    # Loads whose box polish failed before the local proof replaced the
    # box: 3 of the 10 such outcomes that 40,000 random draws gave
    # (CHANGES.md). Each entry is (E, q, load, the proof that now
    # covers it). The first is certified globally, and its minimum lies
    # beyond the old search box's lower distal edge. The solver finds the
    # other two minima inside that box, where the box's polish missed
    # them; the local proof covers both.
    FAILED_POLISHES = {
        "beyond_the_edge": (5e9, 0.0032544422715395788, ExternalLoad(
            force=(0.22136671319683174, 0.14861512938219226),
            moment=-0.2935074351910128,
            application_point=(0.05603849801620132, -0.04407363049541285)),
            "global"),
        "past_the_polish_box": (2e11, -0.0005484137488425984, ExternalLoad(
            force=(62.43475975399409, -166.1479811005399),
            moment=0.13796019522657238,
            application_point=(0.06349467803542844, 0.035615419138943824)),
            "local"),
        "edge_sample": (1e10, 0.003207020248101645, ExternalLoad(
            force=(4.821150060607158, -114.73955777958628),
            moment=0.2794146176682026,
            application_point=(0.08050620339600709, 0.02496793149218572)),
            "local"),
    }

    @pytest.mark.parametrize("name", sorted(FAILED_POLISHES))
    def test_failed_polish_is_proven(self, calibrated, name):
        youngs_modulus, q, load, proof = self.FAILED_POLISHES[name]
        geom = calibrated.geometry
        specs = tuple(s._replace(youngs_modulus=youngs_modulus)
                      for s in calibrated.tendons)
        model = PotentialModel(geom, specs, load, q)
        assert (model.convexity > 0.0) is (proof == "global")
        eq = find_equilibrium(model)
        assert math.dist(eq.theta, solve_static(model).configuration.theta) < 1e-9
        assert model.local_certificate(
            eq.theta, _gradient_norm(model, eq.theta))[2] is not None

    def test_certified_minimum_beyond_the_reference_box(self, calibrated):
        # Certified (E = 5 GPa), with its minimum 0.078 rad beyond the
        # reference box's lower distal edge: the Newton run, which no box
        # bounds, reaches it, at the solver's pose.
        specs = tuple(s._replace(youngs_modulus=5e9) for s in calibrated.tendons)
        load = ExternalLoad(force=(-1.1625709773471398, -1.31181785856479),
                            moment=-0.2390750457490055)
        model = PotentialModel(calibrated.geometry, specs, load, 0.0043892248726419645)
        assert model.convexity > 0.0
        eq = find_equilibrium(model)
        edge = model.nominal.theta[2] - REFERENCE_HALF_WIDTH
        assert edge - eq.theta[2] > 0.07
        assert math.dist(eq.theta, solve_static(model).configuration.theta) < 1e-9


class TestBalanceResiduals:
    def test_stationarity_matches_tangent_cascade(self, geom_cal):
        # The analytic gradient is the negative of the tangent-model
        # balance residuals when tensions come from the pose's stretches,
        # also when the force acts at a point riding with the distal link,
        # whichever group is taut at each index.
        specs = make_specs()
        # R1 d1 < R2 d2 < R3 d3 keeps all three flexion tendons taut and
        # the whole extension group slack; the mirrored pose swaps them,
        # and R3 d3 < R2 d2 leaves tendon 3 taut on the extension side.
        poses = {(-0.08, -0.12, -0.20): (TendonGroup.FLEXION,) * 3,
                 (0.08, 0.12, 0.20): (TendonGroup.EXTENSION,) * 3,
                 (-0.08, -0.12, -0.05): (TendonGroup.FLEXION, TendonGroup.FLEXION,
                                         TendonGroup.EXTENSION)}
        for load in (ExternalLoad.tip_payload(1.5, geom_cal.gravity_accel),
                     ExternalLoad(force=(2.0, -14.0), moment=0.01,
                                  application_point=(0.15, 0.01))):
            model = PotentialModel(geom_cal, specs, load, 0.0)
            for theta, groups in poses.items():
                assert model.tensions(theta)[1] == groups
                res = balance_residuals(model, theta)
                grad = _gradient(model, theta)
                assert np.allclose(res["tangent_nm"], -grad, atol=1e-9)

    def test_small_residual_at_energy_minimum(self, geom_cal):
        specs = make_specs()
        load = ExternalLoad.tip_payload(2.0, geom_cal.gravity_accel)
        model = PotentialModel(geom_cal, specs, load, 0.0)
        eq = find_equilibrium(model)
        res = balance_residuals(model, eq.theta)
        assert max(abs(r) for r in res["tangent_nm"]) < 0.01


def _numpy_tip_load_cases(n, seed, geom):
    """`random_tip_load_cases` as it was written with numpy's
    `default_rng(seed)`, the stream its plain-float draw reproduces."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n):
        payload = float(rng.uniform(*energy.CASE_PAYLOAD_KG))
        half = energy.CASE_CONE_HALF_ANGLE_DEG
        angle = math.radians(-90.0 + float(rng.uniform(-half, half)))
        magnitude = payload * geom.gravity_accel
        force = (magnitude * math.cos(angle), magnitude * math.sin(angle))
        cases.append({
            "payload_kg": payload,
            "direction_deg": math.degrees(angle),
            "load": ExternalLoad(force=force, moment=0.0),
        })
    return cases


class TestRandomTipLoadCases:
    # Seeds 0-399 are the range oracle-check's benchmark draws from; the
    # large ones span one to five 32-bit seed words, past the pool of four.
    @pytest.mark.parametrize("seeds", [
        range(400),
        [2**32 - 1, 2**32, 2**64, 2**128 + 1, 10**40],
        [np.int64(7)],
    ], ids=["benchmark", "wide", "numpy-int"])
    def test_stream_is_numpys(self, geom_cal, seeds):
        for seed in seeds:
            drawn = random_tip_load_cases(4, seed, geom_cal)
            reference = _numpy_tip_load_cases(4, seed, geom_cal)
            assert len(drawn) == len(reference) == 4
            for case, ref in zip(drawn, reference):
                assert case.keys() == ref.keys()
                for key in ref:
                    assert case[key] == ref[key], (seed, key)

    @pytest.mark.parametrize("seed, error, message", [
        (-1, ValueError, "expected non-negative integer"),
        (7.0, TypeError, "integer"),
    ])
    def test_refuses_bad_seeds(self, geom_cal, seed, error, message):
        # Refused as numpy refuses them, before any draw: with no case to
        # draw, and a negative seed cannot loop on its 32-bit words.
        with pytest.raises(error, match=message):
            random_tip_load_cases(0, seed, geom_cal)


class TestEquilibriumReport:
    def test_solver_agrees_with_oracle(self, calibrated):
        # The solver and the search minimize one potential, so their
        # equilibria coincide far inside the 1% tolerance, and the energy
        # pose balances the tangent cascade.
        geom, specs = calibrated.geometry, calibrated.tendons
        cases = random_tip_load_cases(3, 7, geom)
        report = equilibrium_report(unloaded_model(geom, specs), cases)
        assert set(report) == {"cases", "summary"}
        summary = report["summary"]
        assert summary["compared_cases"] == 3
        assert summary["within_tolerance"] is True
        assert summary["max_delta_fraction_of_length"] <= 1e-4
        for entry in report["cases"]:
            residuals = entry["balance_residuals_at_energy_pose"]
            assert max(map(abs, residuals["tangent_nm"])) <= 1e-9

    def test_rigid_limit_agreement(self, geom_cal):
        # With near-rigid tendons both routes collapse onto the nominal
        # pose and must agree to well under 0.1% of finger length.
        specs = make_specs(youngs_modulus=1e15)
        load = ExternalLoad.tip_payload(3.0, geom_cal.gravity_accel)
        sol = solve_static(PotentialModel(geom_cal, specs, load, 0.0))
        eq = find_equilibrium(PotentialModel(geom_cal, specs, load, 0.0))
        gap = math.hypot(sol.fingertip[0] - eq.fingertip[0],
                         sol.fingertip[1] - eq.fingertip[1])
        assert gap / geom_cal.total_length < 1e-3

    def test_no_model_built_inside_the_report(self, calibrated, monkeypatch):
        # The report builds no model of its own and gives each case its
        # load by one `with_load`, a case whose solve fails included; the
        # model's own load is not used.
        geom, specs = calibrated.geometry, calibrated.tendons
        cases = random_tip_load_cases(3, 7, geom)
        unloaded = equilibrium_report(unloaded_model(geom, specs), cases)
        model = PotentialModel(geom, specs, ExternalLoad.tip_payload(9.0), 0.0)
        built, loads = count_models(monkeypatch)
        for max_iterations, compared in ((100, 3), (1, 0)):
            loads.clear()
            report = equilibrium_report(model, cases, max_iterations=max_iterations)
            assert built == []
            assert loads == [c["load"] for c in cases]
            assert report["summary"]["compared_cases"] == compared
        assert equilibrium_report(model, cases) == unloaded

    def test_uncertified_cases_are_proven_locally(self, calibrated):
        # The 12 and 15 kg cases lie beyond the global certificate. The
        # local proof covers them, and only their certificates carry its
        # lambda and ball radius at the solver's pose, and its bound.
        geom, specs = calibrated.geometry, calibrated.tendons
        report = _mixed_report(geom, specs)
        summary = report["summary"]
        assert summary["compared_cases"] == 5
        assert summary["within_tolerance"] is True
        assert [_local(c) for c in report["cases"]] == [True, False, False, True, False]
        for entry in report["cases"]:
            cert = entry["certificate"]
            assert entry["energy_search"]["evaluations"] <= NEWTON_MAX_STEPS
            assert (cert["mu_nm_per_rad"] > 0.0) is not _local(entry)
            if _local(entry):
                assert cert["lambda_at_fixed_point_nm_per_rad"] > 0.0
                assert cert["ball_radius_rad"] > 0.0
            assert entry["fingertip_delta_mm"] * 1e-3 <= cert["fingertip_bound_m"]

    def test_certified_report_runs_no_local_proof(self, calibrated, monkeypatch):
        geom, specs = calibrated.geometry, calibrated.tendons
        monkeypatch.setattr(PotentialModel, "local_certificate", None)  # a call would fail
        report = equilibrium_report(unloaded_model(geom, specs),
                                    random_tip_load_cases(4, 3, geom))
        assert all(map(_certified, report["cases"]))
        assert not any(map(_local, report["cases"]))
        assert report["summary"]["within_tolerance"] is True

    def test_uncompared_cases_fail_tolerance(self, calibrated):
        # A static solve capped at one step always errors, so no case is
        # compared; the summary must not read as a pass.
        geom, specs = calibrated.geometry, calibrated.tendons
        model = unloaded_model(geom, specs)
        report = equilibrium_report(model, random_tip_load_cases(2, 7, geom),
                                    max_iterations=1)
        assert all("error" in c["fixed_point"] for c in report["cases"])
        summary = report["summary"]
        assert summary["compared_cases"] == 0
        assert summary["max_delta_fraction_of_length"] is None
        assert summary["within_tolerance"] is False
        assert equilibrium_report(model, [])["summary"][
            "within_tolerance"] is False


class TestReportSearch:
    """The report's oracle is `find_equilibrium` of the case's model: its
    own Newton run from the nominal pose, after the solver's."""

    @staticmethod
    def _fresh(model):
        try:
            eq = find_equilibrium(model)
        except TendonFingerError as exc:
            return {"error": f"{exc.__class__.__name__}: {exc}"}
        return {"theta_rad": list(eq.theta), "fingertip_m": list(eq.fingertip),
                "energy_j": eq.energy, "evaluations": eq.evaluations}

    # Certified reports at two q; a 1e-18 m threshold, whose last solver
    # steps are below the run's stop; a loose threshold; step-capped
    # solves; run caps at and above the solver's step count; and soft
    # tendons, whose uncertified cases the local proof covers.
    @pytest.mark.parametrize("soft, q, options, max_steps", [
        (False, 0.0, {}, NEWTON_MAX_STEPS),
        (False, 3e-3, {}, NEWTON_MAX_STEPS),
        (False, 0.0, {"threshold": 1e-18}, NEWTON_MAX_STEPS),
        (False, 0.0, {"threshold": 1e-2}, NEWTON_MAX_STEPS),
        (False, 0.0, {"max_iterations": 3}, NEWTON_MAX_STEPS),
        (False, 0.0, {}, 4),
        (False, 0.0, {}, 5),
        (True, 0.0, {}, NEWTON_MAX_STEPS),
    ])
    def test_report_equals_a_fresh_search(self, calibrated, monkeypatch,
                                          soft, q, options, max_steps):
        geom, specs = calibrated.geometry, calibrated.tendons
        if soft:
            specs = _soft_specs(specs)
        monkeypatch.setattr(energy, "NEWTON_MAX_STEPS", max_steps)
        cases = random_tip_load_cases(6, 7, geom)
        report = equilibrium_report(unloaded_model(geom, specs, q), cases, **options)
        searched = 0
        for case, entry in zip(cases, report["cases"]):
            if "energy_search" not in entry:
                continue
            searched += 1
            found = {k: v for k, v in entry["energy_search"].items()
                     if k != "energy_at_fixed_point_j"}
            fresh = self._fresh(PotentialModel(geom, specs, case["load"], q))
            assert repr(found) == repr(fresh)
        assert searched > 0

    def test_case_runs_the_solver_then_the_oracle(self, calibrated, monkeypatch):
        # Each case runs exactly the solver's Newton steps and then the
        # oracle's (`count_newton_steps`), so `evaluations` is the
        # oracle's own step count. Its run starts at the nominal pose, as
        # the solver's does, and repeats the solver's iterates before it
        # takes its 1 or 2 steps beyond them.
        geom, specs = calibrated.geometry, calibrated.tendons
        steps = count_newton_steps(monkeypatch)
        report = equilibrium_report(unloaded_model(geom, specs),
                                    random_tip_load_cases(3, 7, geom))
        assert all(map(_certified, report["cases"]))
        start = 0
        for entry in report["cases"]:
            solver = entry["fixed_point"]["iterations"]
            oracle = entry["energy_search"]["evaluations"]
            assert 1 <= oracle - solver <= 2
            case = steps[start:start + solver + oracle]
            start += solver + oracle
            assert len({id(model) for model, _ in case}) == 1
            poses = [theta for _, theta in case]
            assert poses[solver:2 * solver] == poses[:solver]
        assert start == len(steps)


def _certified(entry):
    return entry["certificate"]["fingertip_bound_m"] is not None


def _local(entry):
    """Whether a compared entry's certificate carries the local proof."""
    return "ball_radius_rad" in entry["certificate"]


def _gradient_norm(model, theta):
    """||grad U|| at `theta`, from the balance residuals, as the report
    takes it."""
    return math.sqrt(sum(r * r for r in balance_residuals(model, theta)["tangent_nm"]))


def _tip_gap(a, b):
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _full(upper):
    """The symmetric 3 x 3 matrix of six upper entries."""
    m = np.zeros((3, 3))
    m[np.triu_indices(3)] = upper
    return m + np.triu(m, 1).T


def _hessian(model, theta):
    """The potential's Hessian at `theta` by `derivatives`, the kernel's
    route, and its elastic part J^T diag(k) J under the kernel's taut
    rule (a zero stretch is taut in both groups)."""
    r1, r2, r3 = model.geom.guide_radii
    jac = np.array([[-r1, 0.0, 0.0], [r1, -r2, 0.0], [0.0, r2, -r3]])
    k = [(kf if s >= 0.0 else 0.0) + (ke if s <= 0.0 else 0.0) for kf, ke, s
         in zip(model.k_flex, model.k_ext, model.stretches(*theta))]
    return (_full(model.derivatives(*theta, *link_trig(*theta))[3:]),
            jac.T @ np.diag(k) @ jac)


class TestCertificate:
    """The strong-convexity certificates of `PotentialModel` and the
    proofs that `find_equilibrium` runs on them."""

    def test_shipped_figures(self, calibrated):
        geom, specs = calibrated.geometry, calibrated.tendons
        model = PotentialModel(geom, specs, ExternalLoad(), 0.0)
        mu_e = model.elastic_convexity
        assert mu_e == pytest.approx(30.17, abs=0.005)
        for kg, curvature in ((0.2, 0.58), (3.0, 8.31), (60.0, 165.69)):
            loaded = model.with_load(ExternalLoad.tip_payload(kg))
            assert loaded.elastic_convexity == mu_e
            assert loaded.load_curvature == pytest.approx(curvature, abs=0.005)
            assert loaded.convexity == mu_e - loaded.load_curvature
        heavy = model.with_load(ExternalLoad.tip_payload(60.0))
        assert heavy.fingertip_bound(0.0, heavy.convexity) is None

    @settings(max_examples=60, deadline=None)
    @given(radii=st.tuples(*[st.floats(1e-3, 0.05)] * 3),
           k_min=st.tuples(*[st.floats(1e2, 1e7)] * 3))
    def test_elastic_convexity_never_overestimated(self, radii, k_min):
        r1, r2, r3 = radii
        jac = np.array([[-r1, 0.0, 0.0], [r1, -r2, 0.0], [0.0, r2, -r3]])
        eig = np.linalg.eigvalsh(jac.T @ np.diag(k_min) @ jac)
        mu_e = potential.min_eigenvalue(*potential.elastic_hessian(radii, k_min))
        assert eig[0] - 1e-9 * eig[-1] <= mu_e <= eig[0]

    @settings(max_examples=200, deadline=None)
    @given(upper=st.tuples(*[st.floats(-1e3, 1e3)] * 6),
           scale=st.sampled_from([1e-6, 1.0, 1e6]))
    def test_full_matrix_minimum_never_overestimated(self, upper, scale):
        # Any symmetric 3 x 3, the (0, 2) entry included, definite or not.
        # Near a repeated eigenvalue the closed form loses about half the
        # digits, and the LDL^T test's doubling margin takes them off.
        upper = tuple(u * scale for u in upper)
        assume(max(map(abs, upper)) >= 1e-3 * scale)
        eig = np.linalg.eigvalsh(_full(upper))
        lam = potential.min_eigenvalue(*upper)
        assert eig[0] - 1e-6 * np.abs(eig).max() <= lam <= eig[0]
        assert potential.min_eigenvalue(*[0.0] * 6) == -math.inf

    # Upper entries and the exact smallest eigenvalue: a multiple of the
    # identity (no spread), a repeated smallest and a repeated largest
    # eigenvalue (the closed form's arccos at its ends), and an indefinite
    # matrix with every entry set.
    KNOWN = {
        "identity": ((3.0, 0.0, 0.0, 3.0, 0.0, 3.0), 3.0),
        "repeated_smallest": ((2.0, 1.0, 1.0, 2.0, 1.0, 2.0), 1.0),
        "repeated_largest": ((1.0, 0.0, 0.0, 4.0, 0.0, 4.0), 1.0),
        "indefinite": ((1.0, 2.0, 3.0, -4.0, 5.0, 6.0), None),
        # A spread p whose cube 2 p^3 underflows to zero, which the closed
        # form must not divide by.
        "underflowing_spread": ((1.0, 0.0, 5.813025015050098e-159, 1.0, 0.0, 1.0),
                                1.0),
    }

    @pytest.mark.parametrize("name", sorted(KNOWN))
    def test_min_eigenvalue_of_known_matrices(self, name):
        upper, exact = self.KNOWN[name]
        if exact is None:
            exact = np.linalg.eigvalsh(_full(upper))[0]
        norm = np.linalg.norm(_full(upper))
        lam = potential.min_eigenvalue(*upper)
        assert exact - 1e-7 * norm <= lam < exact

    def test_degenerate_stiffness_gives_no_certificate(self, geom_cal):
        # A zero matrix, and one whose closed form overflows, end the
        # margin's doubling with -inf: neither proof holds, so there is no
        # result.
        zero = potential.elastic_hessian((0.01, 0.01, 0.01), (0.0,) * 3)
        assert potential.min_eigenvalue(*zero) == -math.inf
        model = PotentialModel(geom_cal, make_specs(youngs_modulus=1e150),
                               ExternalLoad.tip_payload(1.0), 0.0)
        assert model.elastic_convexity == -math.inf
        assert model.fingertip_bound(0.0, model.convexity) is None
        with pytest.raises(UnprovenMinimum, match=" is proven neither globally nor locally$"):
            find_equilibrium(model)

    @settings(max_examples=60, deadline=None)
    @given(
        q=st.floats(-1.5e-3, 1.5e-3),
        force=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
        moment=st.floats(-0.2, 0.2),
        attach=st.none() | st.tuples(st.floats(0.05, 0.2), st.floats(-0.05, 0.05)),
        offsets=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    )
    def test_curvature_bounds_the_hessian(self, calibrated, q, force, moment,
                                          attach, offsets):
        # At any pose the gravity and load Hessian is at most B in norm,
        # and the whole Hessian at least mu = mu_e - B.
        load = ExternalLoad(force=force, moment=moment, application_point=attach)
        model = PotentialModel(calibrated.geometry, calibrated.tendons, load, q)
        theta = tuple(t + d for t, d in zip(model.nominal.theta, offsets))
        hessian, elastic = _hessian(model, theta)
        assert np.abs(np.linalg.eigvalsh(hessian - elastic)).max() <= model.load_curvature
        assert (np.linalg.eigvalsh(hessian)[0]
                >= model.convexity - 1e-12 * np.abs(elastic).max())

    @staticmethod
    def _lipschitz_reading(model, theta, h=1e-6):
        """The norm of d(H_load)/d(theta) as a map from R^3 into matrices
        under the Frobenius norm, by central differences of the kernel's
        Hessian at a pose whose stretches keep their signs within h."""
        slopes = []
        for i in range(3):
            plus, minus = list(theta), list(theta)
            plus[i] += h
            minus[i] -= h
            slopes.append(((_hessian(model, plus)[0] - _hessian(model, minus)[0])
                           / (2.0 * h)).ravel())
        slopes = np.array(slopes)
        return math.sqrt(np.linalg.eigvalsh(slopes @ slopes.T)[-1])

    def test_lipschitz_bound_holds_and_is_nearly_reached(self, geom_massless):
        # On the straight massless finger a perpendicular tip force turns
        # every lever at its full length, so the load Hessian changes
        # at 0.986 L per radian in the worst direction; counting the index
        # triples by fewer (weight 3 where 7 is due) would read 0.837 L.
        model = PotentialModel(geom_massless, make_specs(),
                               ExternalLoad(force=(0.0, -300.0)), 0.0)
        theta = (-1e-4, -3e-4, -6e-4)  # every flexion tendon taut
        assert min(model.stretches(*theta)) > 1e-6
        reading = self._lipschitz_reading(model, theta)
        assert 0.98 * model.load_lipschitz < reading <= model.load_lipschitz

    @settings(max_examples=60, deadline=None)
    @given(
        q=st.floats(-3e-3, 3e-3),
        force=st.tuples(st.floats(-400.0, 400.0), st.floats(-400.0, 400.0)),
        attach=st.none() | st.tuples(st.floats(0.05, 0.2), st.floats(-0.05, 0.05)),
        offsets=st.tuples(*[st.floats(0.02, 0.3)] * 3),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_property_lipschitz_bound_holds(self, calibrated, q, force, attach,
                                            offsets, sign):
        # Cumulative offsets of one sign keep each group taut, away from
        # the planes where the elastic Hessian jumps.
        load = ExternalLoad(force=force, application_point=attach)
        model = PotentialModel(calibrated.geometry, calibrated.tendons, load, q)
        radii = model.geom.guide_radii
        reach = np.cumsum(offsets) * 0.01  # R_i d_i, increasing
        theta = tuple(float(t - sign * r / radius) for t, r, radius
                      in zip(model.nominal.theta, reach, radii))
        assert min(sign * s for s in model.stretches(*theta)) > 1e-5
        assert self._lipschitz_reading(model, theta) <= model.load_lipschitz

    def test_benchmark_draws(self, calibrated):
        # oracle-check's 1,600 benchmark cases (seeds 0-399, 4 cases each):
        # every one is certified globally, and the oracle's minimum lands
        # within the certified bound of the solver's fingertip.
        geom, specs = calibrated.geometry, calibrated.tendons
        mu = []
        for seed in range(400):
            cases = random_tip_load_cases(4, seed, geom)
            base = PotentialModel(geom, specs, cases[0]["load"], 0.0)
            for case in cases:
                model = base.with_load(case["load"])
                sol = solve_static(model)
                eq = find_equilibrium(model)
                assert eq.evaluations <= NEWTON_MAX_STEPS
                bound = model.fingertip_bound(
                    _gradient_norm(model, sol.configuration.theta), model.convexity)
                assert _tip_gap(sol.fingertip, eq.fingertip) <= bound
                mu.append(model.convexity)
        assert len(mu) == 1600
        assert min(mu) >= 21.8

    @settings(max_examples=40, deadline=None)
    @given(
        q=st.floats(-1.5e-3, 1.5e-3),
        force=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
        moment=st.floats(-0.2, 0.2),
        attach=st.none() | st.tuples(st.floats(0.05, 0.2), st.floats(-0.05, 0.05)),
        offsets=st.tuples(*[st.floats(-0.3, 0.3)] * 3),
    )
    def test_property_minimum_within_bound(self, calibrated, q, force, moment,
                                           attach, offsets):
        # Wherever mu > 0, the oracle's minimum lies within the bound
        # taken at the solver's pose and at any pose near the nominal one.
        load = ExternalLoad(force=force, moment=moment, application_point=attach)
        model = PotentialModel(calibrated.geometry, calibrated.tendons, load, q)
        if not model.convexity > 0.0:
            assert model.fingertip_bound(0.0, model.convexity) is None
            return
        try:
            eq = find_equilibrium(model)
            poses = [solve_static(model).configuration.theta]
        except TendonFingerError:
            return
        poses.append(tuple(t + d for t, d in zip(model.nominal.theta, offsets)))
        for theta in poses:
            try:
                bound = model.fingertip_bound(_gradient_norm(model, theta),
                                              model.convexity)
            except RangeExceeded:
                continue
            tip = link_pose(theta, model.geom)[0][3]
            assert _tip_gap(tip, eq.fingertip) <= bound

    @pytest.mark.parametrize("kg", [12.0, 60.0])
    def test_uncertified_loads_are_proven_locally(self, geom_cal, kg):
        # 12 and 60 kg lie beyond the global certificate. The report's
        # local proof at the solver's pose holds too, and its bound covers
        # the oracle's minimum.
        model = PotentialModel(geom_cal, make_specs(), ExternalLoad.tip_payload(kg), 0.0)
        assert model.convexity < 0.0
        sol = solve_static(model)
        eq = find_equilibrium(model)
        norm = _gradient_norm(model, sol.configuration.theta)
        lam, radius, modulus = model.local_certificate(sol.configuration.theta, norm)
        assert modulus == 0.5 * lam
        assert norm < 0.5 * lam * radius
        assert (_tip_gap(sol.fingertip, eq.fingertip)
                <= model.fingertip_bound(norm, modulus))

    def test_no_local_proof_on_a_kink(self, geom_cal):
        # At the nominal pose every stretch is exactly zero: the ball has
        # radius 0, so no gradient, however small, proves a minimum.
        model = PotentialModel(geom_cal, make_specs(),
                               ExternalLoad.tip_payload(60.0), 0.0)
        lam, radius, modulus = model.local_certificate(model.nominal.theta, 0.0)
        assert lam > 0.0
        assert (radius, modulus) == (0.0, None)

    def test_tolerance_reads_the_gap_and_the_bound(self, calibrated,
                                                  monkeypatch):
        # A certified case, globally (the drawn cases) or locally (15 kg),
        # passes only when its bound and its gap are within tolerance.
        geom, specs = calibrated.geometry, calibrated.tendons
        cases = random_tip_load_cases(2, 7, geom)
        heavy = [{"load": ExternalLoad.tip_payload(15.0)}]
        limit = TOLERANCE_FRACTION * geom.total_length
        for bound, verdict in ((0.5 * limit, True), (2.0 * limit, False)):
            def fixed(self, norm, mu, bound=bound):
                return bound if mu is not None and mu > 0.0 else None

            monkeypatch.setattr(PotentialModel, "fingertip_bound", fixed)
            for report_cases in (cases, heavy):
                report = equilibrium_report(unloaded_model(geom, specs), report_cases)
                assert report["summary"]["max_delta_fraction_of_length"] < 1e-9
                assert report["summary"]["within_tolerance"] is verdict
        # A bound that, from a faulty certificate, claims less than the
        # gap does not hide that gap.
        monkeypatch.setattr(PotentialModel, "fingertip_bound",
                            lambda self, norm, mu: 0.0)
        search = energy.find_equilibrium

        def displaced(model):
            eq = search(model)
            tip = (eq.fingertip[0] + 2.0 * limit, eq.fingertip[1])
            return eq._replace(fingertip=tip)

        monkeypatch.setattr(energy, "find_equilibrium", displaced)
        summary = equilibrium_report(unloaded_model(geom, specs), cases)["summary"]
        assert summary["max_delta_fraction_of_length"] == pytest.approx(
            2.0 * TOLERANCE_FRACTION)
        assert summary["within_tolerance"] is False

    def test_unproven_case_is_not_compared(self, geom_cal):
        # E = 1e150 Pa overflows the stiffness matrices' closed form, so no
        # proof holds: the case is not compared, the report fails, and it
        # stays strict JSON.
        report = equilibrium_report(
            unloaded_model(geom_cal, make_specs(youngs_modulus=1e150)),
            [{"load": ExternalLoad.tip_payload(1.0)}])
        [entry] = report["cases"]
        assert entry["energy_search"]["error"].startswith("UnprovenMinimum: ")
        assert "certificate" not in entry
        assert report["summary"]["compared_cases"] == 0
        assert report["summary"]["within_tolerance"] is False
        json.dumps(report, allow_nan=False)

    @pytest.mark.parametrize("heavy", [False, True])
    def test_loose_solve_gap_within_bound(self, calibrated, heavy):
        # At a 1e-2 m threshold the solver stops after two steps (three
        # under 12-40 kg), short of the minimum; the oracle stops only at a
        # 1e-13 rad step, so the report's gap is the solver's shortfall,
        # and the bound taken at the solver's pose, global or local, holds
        # it.
        geom, specs = calibrated.geometry, calibrated.tendons
        cases = ([{"load": ExternalLoad.tip_payload(kg)} for kg in (12.0, 15.0, 40.0)]
                 if heavy else random_tip_load_cases(3, 7, geom))
        report = equilibrium_report(unloaded_model(geom, specs), cases, threshold=1e-2)
        for entry in report["cases"]:
            assert _local(entry) is heavy
            assert entry["fixed_point"]["iterations"] == (3 if heavy else 2)
            assert entry["energy_search"]["evaluations"] <= NEWTON_MAX_STEPS
            gap = entry["fingertip_delta_mm"] * 1e-3
            assert 1e-10 < gap <= entry["certificate"]["fingertip_bound_m"]


@pytest.fixture(scope="module")
def corpus_outcomes(calibrated, heavy_corpus):
    """Young's modulus -> [(model, solution, result)] over the committed
    heavy-load corpus: the solution and the result are None where the
    solver refuses the load, and the result is `find_equilibrium`'s, run
    where a report runs it."""
    outcomes = {}
    for youngs_modulus, q, load in heavy_corpus:
        specs = tuple(s._replace(youngs_modulus=youngs_modulus)
                      for s in calibrated.tendons)
        model = PotentialModel(calibrated.geometry, specs, load, q)
        try:
            sol = solve_static(model)
        except TendonFingerError:
            sol = None
        eq = None if sol is None else find_equilibrium(model)
        outcomes.setdefault(youngs_modulus, []).append((model, sol, eq))
    return outcomes


class TestHeavyLoadCorpus:
    """The committed heavy-load corpus (`conftest.heavy_load_corpus`: 3,000
    seeded loads up to 40 kg in any direction on tendons of 5-200 GPa).
    Before the local proof, the oracle answered 1,189 of the 1,665 loads
    that the solver converges on (254 certified, 935 by its box search)."""

    # Per Young's modulus: loads the solver refuses, and the converged
    # ones that each proof covers. 1,335 refused, 255 global, 1,410 local.
    PROOFS = {
        2e11: {"refused": 74, "global": 200, "local": 483},
        4e10: {"refused": 348, "global": 42, "local": 412},
        1e10: {"refused": 435, "global": 5, "local": 283},
        5e9: {"refused": 478, "global": 8, "local": 232},
    }

    @pytest.mark.parametrize("youngs_modulus", sorted(PROOFS))
    def test_every_converged_load_is_proven(self, corpus_outcomes, youngs_modulus):
        # Every converged load proven: the oracle's run raised nothing. The
        # bound taken at the solver's pose (the report's) holds the
        # oracle's minimum.
        proofs = {"refused": 0, "global": 0, "local": 0}
        for model, sol, eq in corpus_outcomes[youngs_modulus]:
            if sol is None:
                proofs["refused"] += 1
                continue
            theta = sol.configuration.theta
            norm = _gradient_norm(model, theta)
            if model.convexity > 0.0:
                proofs["global"] += 1
                mu = model.convexity
            else:
                proofs["local"] += 1
                mu = model.local_certificate(theta, norm)[2]
            assert _tip_gap(sol.fingertip, eq.fingertip) <= model.fingertip_bound(norm, mu)
        assert proofs == self.PROOFS[youngs_modulus]

    @staticmethod
    def _local(outcomes):
        """The locally proven results, with their models."""
        return [(model, eq) for model, _, eq in outcomes
                if eq is not None and not model.convexity > 0.0]

    @pytest.mark.parametrize("youngs_modulus", sorted(PROOFS))
    def test_ball_keeps_every_stretch_sign(self, corpus_outcomes, youngs_modulus):
        # Within the proof's ball the elastic Hessian is constant: moving
        # by its radius toward the plane where a stretch changes sign
        # leaves that stretch's sign (to rounding). On over a third of the
        # loads the nearest plane bounds the radius, and the move ends on it.
        on_the_plane = 0
        local = self._local(corpus_outcomes[youngs_modulus])
        for model, eq in local:
            theta = eq.theta
            _, radius, modulus = model.local_certificate(
                theta, _gradient_norm(model, theta))
            assert modulus is not None
            r1, r2, r3 = model.geom.guide_radii
            gradients = ((-r1, 0.0, 0.0), (r1, -r2, 0.0), (0.0, r2, -r3))
            for i, (s, grad) in enumerate(zip(model.stretches(*theta), gradients)):
                toward = -math.copysign(radius, s) / math.hypot(*grad)
                moved = model.stretches(*(t + toward * g for t, g in zip(theta, grad)))
                assert math.copysign(1.0, s) * moved[i] >= -1e-15
                on_the_plane += abs(moved[i]) < 1e-12
        assert on_the_plane > len(local) / 3

    @pytest.mark.parametrize("youngs_modulus", sorted(PROOFS))
    def test_local_lambda_matches_the_kernel_hessian(self, corpus_outcomes,
                                                     youngs_modulus):
        # lambda comes from the pose's points, not from `derivatives`; it
        # never exceeds the kernel Hessian's smallest eigenvalue, and lies
        # within a few rounding margins of it.
        for model, eq in self._local(corpus_outcomes[youngs_modulus]):
            lam = model.local_certificate(eq.theta, 0.0)[0]
            hessian = _hessian(model, eq.theta)[0]
            eig = np.linalg.eigvalsh(hessian)
            assert eig[0] - 1e-9 * np.abs(hessian).max() <= lam <= eig[0]

    @settings(max_examples=60, deadline=None)
    @given(index=st.integers(0, 2999))
    def test_property_reference_minimum_within_the_bound(self, calibrated,
                                                         heavy_corpus, index):
        # Where the reference box gives an interior best sample, Newton
        # steps from it (the old box search's polish) reach a minimum that
        # lies within the bound the proof's modulus gives at that minimum,
        # or outside the proof's ball: a different local minimum, which
        # OUTSIDE_THE_BALL names by corpus index.
        youngs_modulus, q, load = heavy_corpus[index]
        specs = tuple(s._replace(youngs_modulus=youngs_modulus)
                      for s in calibrated.tendons)
        model = PotentialModel(calibrated.geometry, specs, load, q)
        try:
            eq = find_equilibrium(model)
        except TendonFingerError:
            return
        ref = _reference_find_equilibrium(model.geom, specs, load, q)
        theta = None if ref is None else _polished(model, ref.theta)
        if theta is None:
            return
        if model.convexity > 0.0:
            radius, mu = math.inf, model.convexity
        else:
            _, radius, mu = model.local_certificate(
                eq.theta, _gradient_norm(model, eq.theta))
        inside = math.dist(theta, eq.theta) < radius
        assert inside is (index not in self.OUTSIDE_THE_BALL)
        if inside:
            bound = model.fingertip_bound(_gradient_norm(model, theta), mu)
            assert _tip_gap(link_pose(theta, model.geom)[0][3], eq.fingertip) <= bound

    # On this corpus every interior sample's polish lands in the ball (1,186
    # of the 1,714 loads the oracle proves; the other 528 samples lie on
    # the reference box's surface).
    OUTSIDE_THE_BALL = frozenset()


def _polished(model, theta):
    """Newton steps (`reference_step`) from `theta` until a step is at
    most 1e-13 rad; None where the Hessian is not positive definite or 16
    steps pass."""
    for _ in range(16):
        step = reference_step(model, theta)
        if step is None:
            return None
        theta = tuple(t + d for t, d in zip(theta, step))
        if max(map(abs, step)) <= 1e-13:
            return theta
    return None


def _outcome(model):
    """`find_equilibrium`'s result, or the class and message of what it
    raises."""
    try:
        return find_equilibrium(model)
    except TendonFingerError as exc:
        return f"{exc.__class__.__name__}: {exc}"


def _assert_same_outcome(shared, fresh):
    assert shared == fresh
    if isinstance(fresh, EquilibriumResult):
        # Bit for bit, so a signed zero or a last-ulp change shows.
        assert (np.array([*shared.theta, *shared.fingertip, shared.energy]).tobytes()
                == np.array([*fresh.theta, *fresh.fingertip, fresh.energy]).tobytes())


def _assert_shared_equals_fresh(shared, geom, specs, load, q):
    """`shared` (a model given `load` by `with_load`) against a model built
    for `load`: the oracle's outcome, and the potential's bits at the
    nominal pose and at poses around it."""
    fresh = PotentialModel(geom, specs, load, q)
    _assert_same_outcome(_outcome(shared), _outcome(fresh))
    for offset in (0.0, 0.1, -0.3):
        theta = tuple(t + offset * k for k, t in enumerate(fresh.nominal.theta, 1))
        assert _bits([shared.energy(theta)]) == _bits([fresh.energy(theta)])


def _assert_immutable_fields(model):
    """No field of `model` is a container that a search could fill."""
    for name, value in vars(model).items():
        assert not isinstance(value, (list, dict, set)), name


class TestSharedLoadFreeState:
    """`with_load` shares a model's immutable load-free state among load
    cases; no case may see another case's load."""

    LOADS = [
        *REFERENCE_LOADS.values(),
        ExternalLoad.tip_payload(2.0),
        ExternalLoad(force=(-3.0, -25.0), moment=-0.02,
                     application_point=(0.12, 0.03)),
        ExternalLoad(force=(0.0, -0.0), moment=-0.0),
    ]

    @pytest.mark.parametrize("q", [0.0, 1e-3, -1e-3])
    def test_shared_state_never_leaks_a_load(self, geom_cal, q):
        specs = make_specs()
        for first in self.LOADS:
            base = PotentialModel(geom_cal, specs, first, q)
            _outcome(base)  # a search under the first load
            _assert_immutable_fields(base)
            for load in self.LOADS:
                shared = base.with_load(load)
                _assert_immutable_fields(shared)
                assert shared.nominal is base.nominal
                assert base.load is first
                _assert_shared_equals_fresh(shared, geom_cal, specs, load, q)

    def test_failures_match_a_fresh_model(self, geom_cal, monkeypatch):
        specs = make_specs()
        base = PotentialModel(geom_cal, specs, ExternalLoad.tip_payload(2.0), 0.0)
        _outcome(base)
        # 60 kg: beyond the global certificate, proven locally.
        heavy = ExternalLoad.tip_payload(60.0, geom_cal.gravity_accel)
        shared = _outcome(base.with_load(heavy))
        assert isinstance(shared, EquilibriumResult)
        _assert_same_outcome(shared, _outcome(PotentialModel(geom_cal, specs,
                                                              heavy, 0.0)))
        # The step cap: every run fails.
        monkeypatch.setattr(energy, "NEWTON_MAX_STEPS", 1)
        for load in [*self.LOADS, heavy]:
            shared = _outcome(base.with_load(load))
            assert shared.startswith("UnprovenMinimum: ")
            _assert_same_outcome(
                shared, _outcome(PotentialModel(geom_cal, specs, load, 0.0)))

    @settings(max_examples=25, deadline=None)
    @given(
        q=st.sampled_from([0.0, 1e-3, -1e-3]) | st.floats(-1.5e-3, 1.5e-3),
        loads=st.lists(st.builds(
            ExternalLoad,
            force=st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)),
            moment=st.floats(-0.05, 0.05),
            application_point=st.none() | st.tuples(st.floats(0.05, 0.2),
                                                    st.floats(-0.05, 0.05)),
        ), min_size=2, max_size=3),
    )
    def test_property_shared_equals_fresh(self, calibrated, q, loads):
        geom, specs = calibrated.geometry, calibrated.tendons
        base = PotentialModel(geom, specs, loads[0], q)
        for load in loads:
            _assert_shared_equals_fresh(base.with_load(load), geom, specs, load, q)
