import dataclasses
import math
import re
import sys
from collections import Counter
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from tendonfinger import model as model_module
from tendonfinger import potential, statics
from tendonfinger.energy import balance_residuals, equilibrium_report, find_equilibrium
from tendonfinger.errors import (
    GeometryInfeasible,
    NoConvergence,
    RangeExceeded,
    TendonFingerError,
)
from tendonfinger.model import (
    Configuration,
    ExternalLoad,
    FingerGeometry,
    TendonGroup,
    coupling_angles,
    forward_kinematics,
    link_pose,
)
from tendonfinger.potential import (
    PotentialModel,
    group_specs,
    link_trig,
    zero_pose_wrap,
)
from tendonfinger.statics import (
    elongate_tendons,
    pose_moments,
    solve_static,
    stiffness_sweep,
    sweep_to_csv,
    wrap_moment,
)

from conftest import (
    STEEL_AREA,
    STEEL_E,
    count_models,
    count_newton_steps,
    make_specs,
    reference_step,
    unloaded_model,
)


class TestWrapGeometry:
    def test_half_ratio(self):
        # (R2 + R3) / L2 = 0.5 at theta = 0 gives alpha_3 = 2 pi / 3.
        geom = FingerGeometry(link_lengths=(0.09, 0.06, 0.05),
                              guide_radii=(0.025, 0.02, 0.01))
        wrap = zero_pose_wrap(geom)
        assert wrap.alpha3_0 == pytest.approx(2 * math.pi / 3, abs=1e-12)
        assert wrap.angles_at(coupling_angles(0.0, geom).theta)[1] == wrap.alpha3_0

    def test_rest_length_value(self):
        # R1 = R2 = 5 mm over a 60 mm span: alpha_20 = pi - arccos(1/6).
        geom = FingerGeometry(link_lengths=(0.06, 0.05, 0.04),
                              guide_radii=(0.005, 0.005, 0.004))
        wrap = zero_pose_wrap(geom)
        a20 = math.pi - math.acos(1.0 / 6.0)
        assert wrap.alpha2_0 == pytest.approx(a20, abs=1e-12)
        assert wrap.alpha2_0 == pytest.approx(1.7382, abs=1e-4)
        expect = (a20 - 1.0 / math.tan(a20)) * 0.010
        assert wrap.rest_length_2 == pytest.approx(expect, abs=1e-15)
        assert wrap.rest_length_2 == pytest.approx(0.019073, abs=1e-6)

    def test_boundary_infeasible(self):
        geom = FingerGeometry(link_lengths=(0.09, 0.06, 0.05),
                              guide_radii=(0.025, 0.02, 0.01))
        theta3 = math.pi - math.acos(0.5)  # alpha_3 collapses to zero
        cfg = Configuration(q=0.0, theta=(0.0, 0.0, theta3))
        with pytest.raises(GeometryInfeasible):
            zero_pose_wrap(geom).angles_at(cfg.theta)

    def test_overlapping_guides_infeasible(self):
        geom = FingerGeometry(link_lengths=(0.01, 0.06, 0.05),
                              guide_radii=(0.025, 0.02, 0.01))
        with pytest.raises(GeometryInfeasible, match="wrap ratio"):
            zero_pose_wrap(geom)

    def test_joint_2_checked_first(self, geom_cal):
        # Both wrap angles leave (0, pi); the message names joint 2's.
        wrap = zero_pose_wrap(geom_cal)
        theta = (0.0, wrap.alpha2_0 + 0.5, wrap.alpha3_0 + 0.25)
        with pytest.raises(GeometryInfeasible) as exc:
            wrap.angles_at(theta)
        assert str(exc.value) == (
            f"wrap angle -0.5000 rad outside (0, pi) at theta = {theta[1]:.4f}")

    def test_invariants_random(self, geom_cal):
        rng = np.random.default_rng(8)
        wrap = zero_pose_wrap(geom_cal)
        assert wrap.rest_length_2 > 0.0
        assert wrap.rest_length_3 > 0.0
        for q in rng.uniform(-0.002, 0.008, 50):
            cfg = coupling_angles(q, geom_cal)
            for alpha, theta in zip(wrap.angles_at(cfg.theta), cfg.theta[1:]):
                assert 0.0 < alpha < math.pi
                assert alpha + theta <= math.pi + 1e-12


class TestSolvedPoseWrap:
    """A load can deflect the finger from a rigid pose where both coupling
    tendons wrap to one where a wrap angle leaves (0, pi); the solve must
    refuse that pose as it refuses such a rigid pose."""

    def test_solved_pose_refused(self, calibrated):
        geom, specs = calibrated.geometry, calibrated.tendons
        q = 13.9e-3
        _, alpha3 = zero_pose_wrap(geom).angles_at(coupling_angles(q, geom).theta)
        assert 0.0 < alpha3 < 0.03
        with pytest.raises(GeometryInfeasible) as exc:
            solve_static(PotentialModel(geom, specs, ExternalLoad(force=(30.0, 0.0)), q))
        assert str(exc.value) == (
            "wrap angle -0.0137 rad outside (0, pi) at theta = 1.8668")

    def test_rigid_pose_message_unchanged(self, calibrated):
        geom, specs = calibrated.geometry, calibrated.tendons
        q = -12e-3
        with pytest.raises(GeometryInfeasible) as rigid:
            zero_pose_wrap(geom).angles_at(coupling_angles(q, geom).theta)
        with pytest.raises(GeometryInfeasible) as solved:
            solve_static(PotentialModel(geom, specs, ExternalLoad.tip_payload(1.0), q))
        assert str(solved.value) == str(rigid.value)

    def test_rigid_pose_refused_when_the_model_is_built(self, calibrated,
                                                        monkeypatch):
        # The model refuses a rigid pose that the tendons cannot wrap, on
        # either side, with the wrap check's message; no solve, sweep or
        # report gets a model to step from.
        geom, specs = calibrated.geometry, calibrated.tendons
        steps = count_newton_steps(monkeypatch)
        for q in (-12e-3, 14.5e-3):
            with pytest.raises(GeometryInfeasible) as rigid:
                zero_pose_wrap(geom).angles_at(coupling_angles(q, geom).theta)
            with pytest.raises(GeometryInfeasible) as built:
                PotentialModel(geom, specs, ExternalLoad(), q)
            assert str(built.value) == str(rigid.value)
        assert steps == []

    def test_stiffness_row_carries_error(self, calibrated):
        rows = stiffness_sweep(
            unloaded_model(calibrated.geometry, calibrated.tendons, 14e-3), [0.5, 1.0])
        assert rows[0].status == "ok"
        assert rows[1].status == (
            "error: GeometryInfeasible: wrap angle -0.0015 rad outside (0, pi)"
            " at theta = 1.8546")

    def test_zero_pose_wrap_once_per_solve(self, calibrated, monkeypatch):
        calls = []
        original = potential.zero_pose_wrap

        def counting(geom):
            calls.append(geom)
            return original(geom)

        monkeypatch.setattr(potential, "zero_pose_wrap", counting)
        solve_static(PotentialModel(calibrated.geometry, calibrated.tendons,
                                    ExternalLoad.tip_payload(2.0), 1e-3))
        assert calls == [calibrated.geometry]


class TestWrapMoment:
    def test_full_half_wrap(self):
        assert wrap_moment(5.0, 0.1, 0.0, math.pi) == pytest.approx(
            2 * 5.0 * 0.1, abs=1e-15
        )

    def test_zero_wrap(self):
        assert wrap_moment(5.0, 0.1, 0.7, 0.0) == 0.0

    def test_reference_value(self):
        value = wrap_moment(10.0, 0.06, 0.3, 1.4)
        assert value == pytest.approx(
            10.0 * 0.06 * (math.cos(0.3) - math.cos(1.7)), abs=1e-15
        )
        assert value == pytest.approx(0.65051, abs=1e-5)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            n = float(rng.uniform(0.1, 200.0))
            lever = float(rng.uniform(0.01, 0.2))
            theta = float(rng.uniform(0.0, 1.2))
            alpha = float(rng.uniform(0.1, math.pi - theta - 0.05))
            closed = wrap_moment(n, lever, theta, alpha)
            numeric, _ = quad(lambda t: n * lever * math.sin(t),
                              theta, alpha + theta, epsabs=1e-14, epsrel=1e-13)
            assert abs(closed - numeric) / abs(numeric) < 1e-10


FLEX, EXT = TendonGroup.FLEXION, TendonGroup.EXTENSION


def _solve(geom, load):
    """The solution and, by its model, the taut tensions and groups at
    its pose."""
    model = PotentialModel(geom, make_specs(), load, 0.0)
    sol = solve_static(model)
    return (sol, *model.tensions(sol.configuration.theta)[:2])


class TestSolvedTensions:
    """A solve reports each index's taut tendon with its Hooke tension,
    and those tensions balance the load's moments at the solved pose."""

    def test_unloaded(self, geom_massless):
        _, tensions, groups = _solve(geom_massless, ExternalLoad())
        assert tensions == (0.0, 0.0, 0.0)
        assert groups == (FLEX, FLEX, FLEX)

    def test_distal_balance_pure_tip_force(self, geom_massless):
        # Massless finger: the joint-3 balance alone fixes
        # T3 = F * (x_tip - x_J3) / R3 at the solved pose, just under the
        # straight pose's F * L3 / R3 since the sagged lever is shorter.
        sol, tensions, groups = _solve(geom_massless, ExternalLoad(force=(0.0, -9.81)))
        points, _ = link_pose(sol.configuration.theta, geom_massless)
        lever = points[3][0] - points[2][0]
        assert groups == (FLEX, FLEX, FLEX)
        r3 = geom_massless.guide_radii[2]
        assert tensions[2] == pytest.approx(9.81 * lever / r3, rel=1e-9)
        straight = 9.81 * geom_massless.link_lengths[2] / r3
        assert straight == pytest.approx(65.86, abs=0.01)
        assert 0.99 * straight < tensions[2] < straight

    def test_upward_force_uses_extension_group(self, geom_massless):
        _, tensions, groups = _solve(geom_massless, ExternalLoad(force=(0.0, 9.81)))
        assert groups == (EXT, EXT, EXT)
        assert min(tensions) > 0.0

    def test_mixed_signs_held_by_both_groups(self, geom_massless):
        # A moment flexing joint 3 while the force extends joint 2: the
        # minimum stretches flexion tendons 1 and 2 and extension tendon 3.
        load = ExternalLoad(force=(0.0, -1.5), moment=0.1)
        sol, tensions, groups = _solve(geom_massless, load)
        assert groups == (FLEX, FLEX, EXT)
        assert min(tensions) > 0.0
        assert_matches_oracle(sol, 0.0, geom_massless, make_specs(), load)

    def test_explicit_application_point(self, geom_massless):
        # Same force at the fingertip coordinates equals the default;
        # moving it to joint 3 removes the distal moment entirely.
        tip_xy = forward_kinematics(coupling_angles(0.0, geom_massless), geom_massless)
        _, at_tip, _ = _solve(geom_massless, ExternalLoad(
            force=(0.0, -9.81), application_point=tip_xy))
        _, default, _ = _solve(geom_massless, ExternalLoad(force=(0.0, -9.81)))
        assert at_tip == pytest.approx(default, rel=1e-12)
        _, at_joint3, _ = _solve(geom_massless, ExternalLoad(
            force=(0.0, -9.81), application_point=(0.12, 0.0)))
        assert at_joint3[2] == pytest.approx(0.0, abs=1e-9)
        assert at_joint3[1] > 0.0


class TestElongation:
    def test_zero_tension(self, geom_cal):
        specs = make_specs()
        trio = [s for s in specs if s.group is TendonGroup.FLEXION]
        wrap = zero_pose_wrap(geom_cal)
        lengths = elongate_tendons(
            (0.0, 0.0, 0.0), tuple(trio), wrap
        )
        assert lengths == (trio[0].rest_length, wrap.rest_length_2,
                           wrap.rest_length_3)

    def test_steel_strain(self, geom_cal):
        specs = make_specs()
        trio = tuple(s for s in specs if s.group is TendonGroup.FLEXION)
        wrap = zero_pose_wrap(geom_cal)
        lengths = elongate_tendons(
            (62.8, 0.0, 0.0), trio, wrap
        )
        strain = 62.8 / (STEEL_E * STEEL_AREA)
        assert strain == pytest.approx(3.998e-4, abs=1e-7)
        assert lengths[0] == pytest.approx(0.1 * (1 + strain), abs=1e-15)
        assert lengths[0] == pytest.approx(0.1000400, abs=1e-7)

    def test_doubling_area_halves_stretch(self, geom_cal):
        wrap = zero_pose_wrap(geom_cal)
        t = (50.0, 40.0, 30.0)
        thin = tuple(s for s in make_specs() if s.group is TendonGroup.FLEXION)
        thick = tuple(s for s in make_specs(area=2 * STEEL_AREA)
                      if s.group is TendonGroup.FLEXION)
        d_thin = [l - r for l, r in zip(
            elongate_tendons(t, thin, wrap),
            (thin[0].rest_length, wrap.rest_length_2, wrap.rest_length_3))]
        d_thick = [l - r for l, r in zip(
            elongate_tendons(t, thick, wrap),
            (thick[0].rest_length, wrap.rest_length_2, wrap.rest_length_3))]
        for a, b in zip(d_thin, d_thick):
            assert b == pytest.approx(a / 2, rel=1e-12)


class TestSolveStatic:
    def test_unloaded_fixed_point(self, geom_massless):
        model = PotentialModel(geom_massless, make_specs(), ExternalLoad(), 0.004)
        sol = solve_static(model)
        assert sol.iterations <= 2
        assert sol.deflection_y == 0.0
        assert model.tensions(sol.configuration.theta)[0] == (0.0, 0.0, 0.0)
        assert sol.configuration == coupling_angles(0.004, geom_massless)

    def test_calibrated_payload_deflection(self, calibrated):
        geom, specs = calibrated.geometry, calibrated.tendons
        load = ExternalLoad.tip_payload(3.0, geom.gravity_accel)
        sol = solve_static(PotentialModel(geom, specs, load, 0.0))
        assert sol.deflection_y == pytest.approx(24.386e-3, rel=0.25)
        assert sol.residual <= 1e-6
        assert sol.iterations <= 50

    def test_determinism(self, calibrated):
        geom, specs = calibrated.geometry, calibrated.tendons
        load = ExternalLoad.tip_payload(1.7, geom.gravity_accel)
        a = solve_static(PotentialModel(geom, specs, load, 0.0))
        b = solve_static(PotentialModel(geom, specs, load, 0.0))
        assert a == b

    def test_load_monotonicity(self, calibrated):
        geom, specs = calibrated.geometry, calibrated.tendons
        deflections = [
            solve_static(PotentialModel(
                geom, specs, ExternalLoad.tip_payload(m, geom.gravity_accel), 0.0)
            ).deflection_y
            for m in (0.5, 1.0, 2.0, 3.0)
        ]
        assert all(b > a for a, b in zip(deflections, deflections[1:]))

    def test_small_load_linearity(self, geom_massless):
        specs = make_specs()
        d1, d2 = (solve_static(PotentialModel(geom_massless, specs,
                                              ExternalLoad.tip_payload(m), 0.0)
                               ).deflection_y for m in (0.1, 0.2))
        assert d2 == pytest.approx(2 * d1, rel=0.05)

    def test_extra_iteration_stability(self, calibrated):
        # One more Newton step from the solution moves the fingertip by
        # no more than the threshold.
        geom, specs = calibrated.geometry, calibrated.tendons
        threshold = 1e-6
        load = ExternalLoad.tip_payload(3.0, geom.gravity_accel)
        model = PotentialModel(geom, specs, load, 0.0)
        sol = solve_static(model, threshold=threshold)
        theta = sol.configuration.theta
        step = reference_step(model, theta)
        cfg = Configuration(q=0.0, theta=tuple(t + d for t, d in zip(theta, step)))
        y_extra = forward_kinematics(cfg, geom)[1]
        assert abs(y_extra - sol.fingertip[1]) <= threshold

    def test_converged_tensions_are_hooke_tensions(self, calibrated):
        # The solution's tensions are the last record's: at each index the
        # tendon on the side of the pose's stretch, E A / L times the
        # stretch's size.
        geom, specs = calibrated.geometry, calibrated.tendons
        for load in (ExternalLoad.tip_payload(3.0, geom.gravity_accel),
                     ExternalLoad(force=(0.0, 9.81)),
                     ExternalLoad(force=(3.4684, 3.4684))):
            model = PotentialModel(geom, specs, load, 3e-3)
            sol = solve_static(model)
            doc = statics.solution_to_dict(sol, model)
            assert doc["tensions_n"] == doc["trace"][-1]["tensions_n"]
            tensions, groups, _ = model.tensions(sol.configuration.theta)
            assert doc["tensions_n"] == list(tensions)
            stretches = model.stretches(*sol.configuration.theta)
            assert groups == tuple(FLEX if s >= 0.0 else EXT for s in stretches)
            for i, (s, group) in enumerate(zip(stretches, groups)):
                spec = next(t for t in specs
                            if t.group is group and t.index == i + 1)
                hooke = spec.axial_stiffness / doc["rest_lengths_m"][i] * abs(s)
                assert tensions[i] == pytest.approx(hooke, rel=1e-12)

    def test_tension_positivity(self, calibrated):
        geom, specs = calibrated.geometry, calibrated.tendons
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = float(rng.uniform(0.2, 3.0))
            load = ExternalLoad.tip_payload(m, geom.gravity_accel)
            model = PotentialModel(geom, specs, load, 0.0)
            sol = solve_static(model)
            assert min(model.tensions(sol.configuration.theta)[0]) >= 0.0

    def test_rigid_limit_scaling(self, geom_massless):
        load = ExternalLoad.tip_payload(3.0)
        deflections = []
        for e in (2e11, 1e13, 1e15):
            specs = make_specs(youngs_modulus=e)
            sol = solve_static(PotentialModel(geom_massless, specs, load, 0.0))
            deflections.append(sol.deflection_y)
        assert deflections[0] > deflections[1] > deflections[2]
        # Linear elasticity: deflection scales as 1/E, up to the ~1.5%
        # moment-arm change of the sagged pose at the softest setting.
        assert deflections[2] == pytest.approx(deflections[0] * 2e11 / 1e15, rel=0.03)

    def test_no_convergence_carries_trace(self, calibrated):
        geom, specs = calibrated.geometry, calibrated.tendons
        load = ExternalLoad.tip_payload(3.0, geom.gravity_accel)
        with pytest.raises(NoConvergence) as err:
            solve_static(PotentialModel(geom, specs, load, 0.0), max_iterations=2)
        assert len(err.value.trace) == 2

    def test_refused_newton_step_carries_trace(self, geom_cal, heavy_corpus):
        # A Hessian that is not positive definite refuses the step: the
        # solve raises NoConvergence with the steps taken so far. Heavy
        # corpus draw 2 is refused at its third step, draw 4 at its first.
        for index, step, records in ((2, 3, [1, 2]), (4, 1, [])):
            youngs_modulus, q, load = heavy_corpus[index]
            model = PotentialModel(
                geom_cal, make_specs(youngs_modulus=youngs_modulus), load, q)
            with pytest.raises(NoConvergence, match=(
                    f"^Hessian not positive definite before step {step}$")) as err:
                solve_static(model)
            assert [rec["iteration"] for rec in
                    statics.trace_to_list(err.value.trace, model)] == records

    def test_rigid_tendons_stay_near_nominal(self, geom_massless):
        # A zero stretch counts as taut in both groups, so the first step
        # from the nominal pose goes only halfway; the second step still
        # runs and reaches the 1/E-scaled steel deflection.
        load = ExternalLoad.tip_payload(3.0)
        steel = solve_static(PotentialModel(geom_massless, make_specs(), load, 0.0))
        rigid = solve_static(PotentialModel(
            geom_massless, make_specs(youngs_modulus=1e17), load, 0.0))
        assert rigid.iterations >= 2
        assert rigid.trace[0].residual is None
        nominal = coupling_angles(0.0, geom_massless).theta
        assert max(abs(t - n) for t, n in zip(rigid.configuration.theta, nominal)) < 1e-6
        assert rigid.deflection_y == pytest.approx(
            steel.deflection_y * STEEL_E / 1e17, rel=0.03)

    def test_elongations_are_pose_stretches(self, calibrated):
        # The Hooke elongations of the solved tensions are the stretches
        # the converged pose imposes on each index's taut tendon.
        geom, specs = calibrated.geometry, calibrated.tendons
        for load in (ExternalLoad.tip_payload(3.0, geom.gravity_accel),
                     ExternalLoad(force=(0.0, 9.81)),
                     ExternalLoad(force=(3.4684, 3.4684))):
            model = PotentialModel(geom, specs, load, 3e-3)
            sol = solve_static(model)
            stretches = [abs(s) for s in model.stretches(*sol.configuration.theta)]
            doc = statics.solution_to_dict(sol, model)
            elongations = [e - r for e, r in zip(doc["elongated_lengths_m"],
                                                  doc["rest_lengths_m"])]
            np.testing.assert_allclose(elongations, stretches, rtol=1e-9)

    def test_upward_load_mirrors_deflection(self, geom_massless):
        # With equal groups and a massless finger, reversing the load
        # swaps the taut group and mirrors the solved pose.
        (down, _, down_groups), (up, _, up_groups) = (
            _solve(geom_massless, ExternalLoad(force=(0.0, fy))) for fy in (-9.81, 9.81))
        assert down_groups == (FLEX, FLEX, FLEX)
        assert up_groups == (EXT, EXT, EXT)
        assert down.deflection_y > 0.0
        assert up.deflection_y == pytest.approx(-down.deflection_y, rel=1e-12)
        for u, d in zip(up.configuration.theta, down.configuration.theta):
            assert u == pytest.approx(-d, rel=1e-12)

    def test_iterate_out_of_range_raises(self, geom_massless):
        # theta_1 starts at 0.965 rad; soft tendons under a 50 N load send
        # the first Newton iterate past pi/2, and the step's range check
        # refuses it.
        load = ExternalLoad(force=(0.0, -50.0))
        with pytest.raises(RangeExceeded):
            solve_static(PotentialModel(geom_massless, make_specs(youngs_modulus=5e9),
                                        load, 0.011))

    def test_one_trace_serializer(self, calibrated):
        # A converged solution and a failed solve serialize their records
        # with the same function; the failed solve's two records are the
        # converged one's first two, and the last record's tensions and
        # lengths are the solution's. No derived field reads the load.
        geom, specs = calibrated.geometry, calibrated.tendons
        load = ExternalLoad.tip_payload(3.0, geom.gravity_accel)
        model = PotentialModel(geom, specs, load, 0.0)
        sol = solve_static(model)
        records = statics.trace_to_list(sol.trace, model)
        doc = statics.solution_to_dict(sol, model)
        assert doc["trace"] == records
        assert records == statics.trace_to_list(sol.trace, model.with_load(ExternalLoad()))
        assert records[-1]["elongated_lengths_m"] == doc["elongated_lengths_m"]
        with pytest.raises(NoConvergence) as err:
            solve_static(model, max_iterations=2)
        failed = statics.trace_to_list(err.value.trace, model)
        assert failed == records[:2]
        assert failed[0]["residual_m"] is None


class TestStiffnessSweep:
    def test_reference_payload_set(self, calibrated):
        geom, specs = calibrated.geometry, calibrated.tendons
        rows = stiffness_sweep(unloaded_model(geom, specs),
                               (0.5, 1.0, 1.5, 2.0, 2.5, 3.0))
        assert len(rows) == 6
        assert all(r.status == "ok" for r in rows)
        deflections = [r.deflection_m for r in rows]
        assert all(b > a for a, b in zip(deflections, deflections[1:]))

    def test_zero_payload_massless(self, geom_massless):
        rows = stiffness_sweep(unloaded_model(geom_massless, make_specs()), (0.0,))
        assert rows[0].deflection_m == 0.0
        assert rows[0].stiffness_n_per_m == 0.0

    def test_zero_payload_gravity_sag(self, calibrated):
        rows = stiffness_sweep(
            unloaded_model(calibrated.geometry, calibrated.tendons), (0.0,))
        assert rows[0].deflection_m > 0.0

    def test_row_error_recorded_and_sweep_continues(self, calibrated):
        geom, specs = calibrated.geometry, calibrated.tendons
        rows = stiffness_sweep(unloaded_model(geom, specs), (0.5, 1e5, 1.0))
        assert rows[0].status == "ok"
        assert rows[1].status.startswith("error:")
        assert rows[2].status == "ok"

    def test_secant_stiffness_near_reference(self, calibrated):
        geom, specs = calibrated.geometry, calibrated.tendons
        rows = stiffness_sweep(unloaded_model(geom, specs), (3.0,))
        assert rows[0].stiffness_n_per_m == pytest.approx(1.2e3, rel=0.25)

    @pytest.mark.parametrize("q, error, message", [
        (math.nan, ValueError, "theta contains a non-finite value"),
        (math.inf, ValueError, "theta contains a non-finite value"),
        (-math.inf, ValueError, "theta contains a non-finite value"),
        (0.02, RangeExceeded,
         "theta_1 = 1.755079 rad outside [-1.570796, 1.570796]"),
        (0.5, RangeExceeded,
         "theta_1 = 43.876969 rad outside [-1.570796, 1.570796]"),
    ], ids=["nan", "inf", "-inf", "0.02", "0.5"])
    def test_bad_q_is_refused_by_the_model(self, calibrated, q, error, message):
        # A sweep or report takes a built model, so a q that is not finite
        # or whose rigid pose leaves the joint range is refused once, where
        # the model is built, and no payload or case runs.
        geom, specs = calibrated.geometry, calibrated.tendons
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            unloaded_model(geom, specs, q)

    def test_no_model_built_inside_the_sweep(self, calibrated, monkeypatch):
        # The sweep builds no model of its own and gives each payload that
        # reaches a solve its load by one `with_load`; the model's own
        # load is not used.
        geom, specs = calibrated.geometry, calibrated.tendons
        payloads = (-1.0, 0.5, 1e5, 0.0, 2.0, math.inf)
        unloaded = stiffness_sweep(unloaded_model(geom, specs, 1e-3), payloads)
        model = PotentialModel(geom, specs, ExternalLoad.tip_payload(9.0), 1e-3)
        built, loads = count_models(monkeypatch)
        rows = stiffness_sweep(model, payloads)
        assert [r.status == "ok" for r in rows] == [False, True, False, True, True,
                                                    False]
        assert built == []
        assert loads == [ExternalLoad.tip_payload(m, geom.gravity_accel)
                         for m in payloads if 0.0 <= m < math.inf]
        assert repr(rows) == repr(unloaded)

    # A negative payload, a load that leaves the joint range, a
    # wrap-infeasible solved pose, a rigid pose that the model refuses
    # before any row, and a step cap.
    @pytest.mark.parametrize("q, payloads, max_iterations", [
        (0.0, (0.5, -1.0, 0.0, 3.0, 1e5, 1.0), 100),
        (-1e-3, (2.0, 0.25), 100),
        (14e-3, (0.5, 1.0, 0.25), 100),
        (-12e-3, (1.0, 2.0), 100),
        (1e-3, (1.0, 2.0), 1),
    ])
    def test_rows_equal_per_payload_solves(self, calibrated, q, payloads,
                                           max_iterations):
        geom, specs = calibrated.geometry, calibrated.tendons
        rows = _outcome(lambda: stiffness_sweep(unloaded_model(geom, specs, q), payloads,
                                                max_iterations=max_iterations))
        if isinstance(rows, TendonFingerError):
            # Refused once, as each payload's own solve is refused.
            for m in payloads:
                load = ExternalLoad.tip_payload(m, geom.gravity_accel)
                refused = _outcome(lambda: solve_static(PotentialModel(geom, specs, load, q)))
                assert repr(refused) == repr(rows)
            return
        assert [r.payload_kg for r in rows] == list(payloads)
        for m, row in zip(payloads, rows):
            if m < 0.0:
                assert row.status == "error: negative payload"
                continue
            try:
                load = ExternalLoad.tip_payload(m, geom.gravity_accel)
                sol = solve_static(PotentialModel(geom, specs, load, q),
                                   max_iterations=max_iterations)
            except TendonFingerError as exc:
                assert row.status == f"error: {exc.__class__.__name__}: {exc}"
                assert math.isnan(row.deflection_m) and row.iterations == 0
                assert row.trace == (tuple(exc.trace) if isinstance(exc, NoConvergence)
                                     else ())
                continue
            assert row.status == "ok"
            assert row.trace == ()
            assert row.iterations == sol.iterations
            assert row.deflection_m.hex() == sol.deflection_y.hex()

    @settings(max_examples=120, deadline=None)
    @given(
        payloads=st.lists(st.one_of(
            st.floats(0.0, 12.0), st.just(0.0), st.floats(-5.0, -0.0),
            st.sampled_from([math.inf, -math.inf, math.nan, 1e308])),
            min_size=1, max_size=6),
        q_mm=st.floats(-6.0, 6.0),
        youngs_modulus=st.floats(5e9, 2e11),
        threshold_exp=st.floats(-12.0, -2.0),
        max_iterations=st.sampled_from([1, 2, 3, 100]),
    )
    def test_property_row_is_the_full_solve(self, calibrated, payloads, q_mm,
                                            youngs_modulus, threshold_exp,
                                            max_iterations):
        # Every field of a row, bit for bit, and a failed row's trace are
        # what `solve_static` gives on the payload's tip load.
        geom = calibrated.geometry
        specs = tuple(s._replace(youngs_modulus=youngs_modulus)
                      for s in calibrated.tendons)
        q, threshold = q_mm * 1e-3, 10.0 ** threshold_exp
        options = {"threshold": threshold, "max_iterations": max_iterations}
        base = unloaded_model(geom, specs, q)
        rows = stiffness_sweep(base, payloads, **options)
        expected = []
        for m in payloads:
            force = m * geom.gravity_accel
            if m < 0.0 or not math.isfinite(force):
                expected.append(None)
                continue
            try:
                sol = solve_static(
                    base.with_load(ExternalLoad.tip_payload(m, geom.gravity_accel)),
                    **options)
            except TendonFingerError as exc:
                trace = tuple(exc.trace) if isinstance(exc, NoConvergence) else ()
                expected.append(statics.SweepRow(
                    m, math.nan, math.nan, 0,
                    f"error: {exc.__class__.__name__}: {exc}", trace))
                continue
            d = sol.deflection_y
            stiffness = force / d if d != 0.0 else (math.nan if force else 0.0)
            expected.append(statics.SweepRow(m, d, stiffness, sol.iterations, "ok"))
        assert len(rows) == len(payloads)
        for row, want in zip(rows, expected):
            if want is None:
                assert row.status in ("error: negative payload",
                                      "error: payload weight is not finite")
                continue
            assert repr(tuple(row[:-1])) == repr(tuple(want[:-1]))
            assert repr(row.trace) == repr(want.trace)

    def test_failed_row_keeps_its_trace(self, calibrated):
        geom, specs = calibrated.geometry, calibrated.tendons
        rows = stiffness_sweep(unloaded_model(geom, specs), (0.5, -1.0),
                               max_iterations=1)
        assert rows[0].status.startswith("error: NoConvergence:")
        with pytest.raises(NoConvergence) as exc:
            solve_static(PotentialModel(
                geom, specs, ExternalLoad.tip_payload(0.5, geom.gravity_accel), 0.0),
                max_iterations=1)
        assert len(rows[0].trace) == 1
        assert rows[0].trace == tuple(exc.value.trace)
        assert rows[1].trace == ()
        # The trace is a library field: the table shows only the message.
        assert sweep_to_csv(rows).count("\n") == 3
        assert "trace" not in repr(rows[0])

    def test_csv_shape(self, calibrated):
        rows = stiffness_sweep(
            unloaded_model(calibrated.geometry, calibrated.tendons), (0.5,))
        text = sweep_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "payload_kg,deflection_mm,stiffness_N_per_m,iterations,status"
        assert len(lines) == 2
        assert lines[1].startswith("0.500,")


class FrozenStatics:
    """The numpy chain and moment code that `link_pose` replaced,
    kept as a reference. Every angle vector it passes to np.cos/np.sin is
    recorded in `angles`."""

    def __init__(self):
        self.angles = []

    def chain_points(self, config, geom):
        phi = np.cumsum(np.asarray(config.theta, dtype=float))
        self.angles.append(phi)
        steps = np.column_stack(
            (np.asarray(geom.link_lengths) * np.cos(phi),
             np.asarray(geom.link_lengths) * np.sin(phi))
        )
        pts = np.zeros((4, 2))
        pts[1:] = np.cumsum(steps, axis=0)
        return pts

    def com_points(self, config, geom):
        phi = np.cumsum(np.asarray(config.theta, dtype=float))
        self.angles.append(phi)
        pts = self.chain_points(config, geom)
        frac = np.asarray(geom.com_fractions)
        lengths = np.asarray(geom.link_lengths)
        offsets = np.column_stack(
            (frac * lengths * np.cos(phi), frac * lengths * np.sin(phi))
        )
        return pts[:3] + offsets

    def forward_kinematics(self, config, geom):
        pts = self.chain_points(config, geom)
        tip = (float(pts[3, 0]), float(pts[3, 1]))
        if math.hypot(*tip) > geom.total_length + 1e-9:
            raise ValueError("fingertip left the reachable disk (numerical fault)")
        return tip

    def net_external_moments(self, config, geom, load):
        def cross2(a, b):
            return float(a[0] * b[1] - a[1] * b[0])

        pts = self.chain_points(config, geom)
        coms = self.com_points(config, geom)
        force = np.asarray(load.force)
        if load.application_point is None:
            p_app = pts[3]
        else:
            p_app = np.asarray(load.application_point)
        weights = np.column_stack(
            (np.zeros(3), -np.asarray(geom.link_masses) * geom.gravity_accel)
        )
        moments = np.zeros(3)
        for k in range(3):
            m = load.moment + cross2(p_app - pts[k], force)
            for i in range(k, 3):
                m += cross2(coms[i] - pts[k], weights[i])
            moments[k] = m
        return moments

    def trig_is_math(self) -> bool:
        """True when np.cos/np.sin gave math.cos/math.sin bit for bit on
        every angle vector the reference used (true on common libms; a
        numpy build with its own SIMD sin/cos may differ in the last ulp)."""
        return all(
            np.cos(phi).tolist() == [math.cos(v) for v in phi]
            and np.sin(phi).tolist() == [math.sin(v) for v in phi]
            for phi in self.angles
        )


_NUMBER = re.compile(r"-?\d+\.?\d*(?:e[-+]?\d+)?")


def _leaves(obj, numbers, others):
    """Split a result into its float leaves and everything else."""
    if isinstance(obj, float):
        numbers.append(obj)
    elif hasattr(obj, "_fields"):  # a named tuple: record its type too
        others.append(type(obj).__name__)
        for name in obj._fields:
            _leaves(getattr(obj, name), numbers, others)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _leaves(item, numbers, others)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            others.append(key)
            _leaves(value, numbers, others)
    else:
        others.append(obj)


def _outcome(fn):
    try:
        return fn()
    except TendonFingerError as exc:
        return exc


def _bits(values) -> bytes:
    """Float bits, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).tobytes()


def assert_same_outcome(new, ref, exact: bool, scale: float):
    """Equal results or equal errors. With `exact`, bit for bit (signed
    zeros included); otherwise floats within rtol 1e-12 (absolute floor
    1e-12 x `scale`) and messages equal once their numbers are masked."""
    assert type(new) is type(ref)
    if isinstance(ref, TendonFingerError):
        new_msg, ref_msg = str(new), str(ref)
        if not exact:
            new_msg, ref_msg = _NUMBER.sub("#", new_msg), _NUMBER.sub("#", ref_msg)
        assert new_msg == ref_msg
        new, ref = getattr(new, "trace", []), getattr(ref, "trace", [])
    new_nums, new_rest, ref_nums, ref_rest = [], [], [], []
    _leaves(new, new_nums, new_rest)
    _leaves(ref, ref_nums, ref_rest)
    assert new_rest == ref_rest
    if exact:
        assert new == ref
        assert _bits(new_nums) == _bits(ref_nums)
    else:
        np.testing.assert_allclose(new_nums, ref_nums, rtol=1e-12, atol=1e-12 * scale)


def _distal_point(q, fraction, geom):
    """Base-frame point `fraction` of the way along the distal link at
    the rigid pose for displacement q."""
    x = y = phi = 0.0
    for i, (length, radius) in enumerate(zip(geom.link_lengths, geom.guide_radii)):
        phi += q / radius
        reach = length * fraction if i == 2 else length
        x += reach * math.cos(phi)
        y += reach * math.sin(phi)
    return x, y


def assert_matches_oracle(sol, q, geom, specs, load):
    """The solved fingertip lies within 1e-4 of finger length of the
    energy oracle's proven minimum, found from a model of its own, and the
    solved pose balances the tangent cascade."""
    model = PotentialModel(geom, specs, load, q)
    eq = find_equilibrium(model)
    gap = math.hypot(sol.fingertip[0] - eq.fingertip[0],
                     sol.fingertip[1] - eq.fingertip[1])
    assert gap <= 1e-4 * geom.total_length
    residuals = balance_residuals(model, sol.configuration.theta)["tangent_nm"]
    assert max(map(abs, residuals)) <= 1e-9


class TestFrozenReference:
    """The plain-float pose and moments give the frozen numpy code's
    results; the solve gives the energy oracle's equilibrium."""

    CASES = {
        "tip-0.5kg": (0.0, ExternalLoad(force=(0.0, -0.5 * 9.81)), {}),
        "tip-1.7kg-q1mm": (0.001, ExternalLoad(force=(0.0, -1.7 * 9.81)), {}),
        "tip-3kg": (0.0, ExternalLoad(force=(0.0, -3.0 * 9.81)), {}),
        "distal-point-moment": (
            0.0008,
            ExternalLoad(force=(2.0, -20.0), moment=0.02,
                         application_point=(0.150821146, 0.034552263)),
            {},
        ),
        "upward-extension": (0.0, ExternalLoad(force=(0.0, 9.81)), {}),
        "upward-moment-extension": (
            0.001, ExternalLoad(force=(0.0, 9.81), moment=0.01), {}),
        "max-iter-2": (
            0.0, ExternalLoad(force=(0.0, -3.0 * 9.81)), {"max_iterations": 2}),
        "mixed-groups": (0.0, ExternalLoad(force=(0.0, -1.5), moment=0.1), {}),
    }

    EXPECTED = {
        "upward-extension": (EXT, EXT, EXT),
        "upward-moment-extension": (EXT, EXT, EXT),
        "max-iter-2": NoConvergence,
        "mixed-groups": (FLEX, FLEX, EXT),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_solve_static(self, calibrated, name):
        geom, specs = calibrated.geometry, calibrated.tendons
        q, load, kwargs = self.CASES[name]
        model = PotentialModel(geom, specs, load, q)
        got = _outcome(lambda: solve_static(model, **kwargs))
        expected = self.EXPECTED.get(name)
        if isinstance(expected, type):
            assert isinstance(got, expected)
            return
        if expected is not None:
            assert model.tensions(got.configuration.theta)[1] == expected
        assert got.residual <= 1e-6
        assert_matches_oracle(got, q, geom, specs, load)

    def test_pose_and_moments(self, calibrated):
        cal = calibrated.geometry
        # A zero link-1 mass arm and massless links give the signed zeros
        # that the `0.0 +` of link 1's centre and the zero x-weight term
        # decide.
        flat = FingerGeometry(
            link_lengths=cal.link_lengths, guide_radii=cal.guide_radii,
            link_masses=(0.0, 0.0, cal.link_masses[2]),
            com_fractions=(0.0, 0.5, 1.0), gravity_accel=cal.gravity_accel,
        )
        massless = FingerGeometry(
            link_lengths=cal.link_lengths, guide_radii=cal.guide_radii,
            com_fractions=(0.0, 0.5, 1.0), gravity_accel=cal.gravity_accel,
        )
        rng = np.random.default_rng(31)
        ref = FrozenStatics()
        cases = [(cal, (-0.0, 0.0, -0.0), ExternalLoad()),
                 (flat, (-0.0, -0.0, -0.0), ExternalLoad()),
                 (flat, (-0.0, 0.0, 0.0), ExternalLoad(moment=-0.0)),
                 (flat, (-0.3, 0.0, -0.0), ExternalLoad(force=(0.0, -0.0))),
                 (massless, (-0.3, 0.9, 0.9),
                  ExternalLoad(force=(0.0, -0.0), moment=-0.0))]
        for i in range(200):
            cases.append((cal if i % 2 else flat, tuple(rng.uniform(-1.5, 1.5, 3)),
                          ExternalLoad(
                              force=tuple(rng.uniform(-30.0, 30.0, 2)),
                              moment=float(rng.uniform(-0.05, 0.05)),
                              application_point=(None if rng.random() < 0.5
                                                 else tuple(rng.uniform(-0.2, 0.2, 2))),
                          )))
        for geom, theta, load in cases:
            cfg = Configuration(q=0.0, theta=theta)
            points, coms = link_pose(cfg.theta, geom)
            point = load.application_point or points[3]
            moments = pose_moments((points, coms), geom, load, point)
            pairs = (
                (np.array(points), ref.chain_points(cfg, geom)),
                (np.array(coms), ref.com_points(cfg, geom)),
                (np.array(moments), ref.net_external_moments(cfg, geom, load)),
            )
            exact = ref.trig_is_math()
            for new, old in pairs:
                if exact:
                    assert _bits(new) == _bits(old)
                else:
                    np.testing.assert_allclose(new, old, rtol=1e-12, atol=1e-15)
            assert_same_outcome(forward_kinematics(cfg, geom),
                                ref.forward_kinematics(cfg, geom), exact, 1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        q_mm=st.floats(-1.5, 1.5),
        payload_kg=st.floats(0.5, 3.0),
        cone_deg=st.floats(-20.0, 20.0),
        moment=st.floats(-0.03, 0.03),
        attach=st.one_of(st.none(), st.floats(0.5, 1.0)),
    )
    def test_property_benchmark_ranges(self, calibrated, q_mm, payload_kg,
                                       cone_deg, moment, attach):
        geom, specs = calibrated.geometry, calibrated.tendons
        q = q_mm * 1e-3
        weight = payload_kg * geom.gravity_accel
        angle = math.radians(-90.0 + cone_deg)
        load = ExternalLoad(
            force=(weight * math.cos(angle), weight * math.sin(angle)),
            moment=moment,
            application_point=None if attach is None else _distal_point(q, attach, geom),
        )
        sol = solve_static(PotentialModel(geom, specs, load, q))
        assert sol.iterations <= 5
        assert_matches_oracle(sol, q, geom, specs, load)
        # The solved pose's wrap check never trips on these loads: both
        # wrap angles stay well inside (0, pi).
        alpha2, alpha3 = zero_pose_wrap(geom).angles_at(sol.configuration.theta)
        assert min(alpha2, alpha3, math.pi - alpha2, math.pi - alpha3) > 0.5


class TestOneTensionRule:
    """The solver holds every load whose minimum the energy oracle finds:
    the potential alone decides which tendons are taut."""

    def test_direction_sweep(self, calibrated):
        # Tip forces in 72 directions, of 0.5 and 3 kg, at q = 0, 3 and
        # 6 mm. A rule that let one tendon group hold each load refused
        # 35 of these 432 loads; 33 of them hold both groups taut.
        geom, specs = calibrated.geometry, calibrated.tendons
        mixed = 0
        for q in (0.0, 3e-3, 6e-3):
            for payload_kg in (0.5, 3.0):
                for step in range(72):
                    angle = math.radians(5.0 * step)
                    weight = payload_kg * geom.gravity_accel
                    model = PotentialModel(geom, specs, ExternalLoad(
                        force=(weight * math.cos(angle), weight * math.sin(angle))), q)
                    sol = solve_static(model)
                    eq = find_equilibrium(model)
                    gap = math.hypot(sol.fingertip[0] - eq.fingertip[0],
                                     sol.fingertip[1] - eq.fingertip[1])
                    assert gap <= 1e-4 * geom.total_length
                    mixed += len(set(model.tensions(sol.configuration.theta)[1])) > 1
        assert mixed > 0

    @settings(max_examples=40, deadline=None)
    @given(
        q_mm=st.floats(-6.0, 6.0),
        payload_kg=st.floats(0.0, 3.0),
        direction_deg=st.floats(-180.0, 180.0),
        moment=st.floats(-0.1, 0.1),
    )
    def test_property_agrees_with_oracle(self, calibrated, q_mm, payload_kg,
                                         direction_deg, moment):
        # Both routes succeed or both refuse; where both succeed they find
        # one minimum. At a 1e-12 m threshold the solved pose balances the
        # load to round-off (the default 1e-6 m stops up to about 1e-6 N m
        # short on these ranges).
        geom, specs = calibrated.geometry, calibrated.tendons
        q = q_mm * 1e-3
        weight = payload_kg * geom.gravity_accel
        angle = math.radians(direction_deg)
        load = ExternalLoad(force=(weight * math.cos(angle), weight * math.sin(angle)),
                            moment=moment)
        model = PotentialModel(geom, specs, load, q)
        sol = _outcome(lambda: solve_static(model, threshold=1e-12))
        eq = _outcome(lambda: find_equilibrium(model))
        assert isinstance(sol, TendonFingerError) == isinstance(eq, TendonFingerError)
        if not isinstance(sol, TendonFingerError):
            assert_matches_oracle(sol, q, geom, specs, load)


class TestStopRule:
    """The threshold bounds the fingertip's whole movement between two
    Newton steps, so a step that moves the tip sideways does not end the
    solve."""

    @staticmethod
    def _converged_tip(model, theta, steps=8):
        """The tip after `steps` more Newton steps from `theta`. From a
        solved pose the steps shrink quadratically to round-off, so the
        last ones change the tip by about 1e-16 m, a few ulps of the
        finger's 0.17 m; 1e-12 m covers that with room to spare."""
        for _ in range(steps):
            step = reference_step(model, theta)
            theta = (theta[0] + step[0], theta[1] + step[1], theta[2] + step[2])
        return link_pose(theta, model.geom)[0][3]

    def test_sideways_step_is_not_a_stop(self, calibrated):
        # While the threshold read only the tip's height, this solve
        # stopped after 2 steps with its tip x 10.8 um (10.8 thresholds)
        # from the minimum's.
        load = ExternalLoad(force=(-13.2394, 13.5881), moment=-0.012824)
        model = PotentialModel(calibrated.geometry, calibrated.tendons, load,
                               -5.9159e-3)
        sol = solve_static(model)
        assert sol.iterations == 4
        eq = find_equilibrium(model)
        assert math.dist(sol.fingertip, eq.fingertip) <= statics.DEFAULT_THRESHOLD
        last, before = (link_pose(rec.theta, model.geom)[0][3]
                        for rec in sol.trace[:-3:-1])
        assert sol.residual == math.dist(last, before) == sol.trace[-1].residual

    @settings(max_examples=60, deadline=None)
    @given(
        q_mm=st.floats(-6.0, 6.0),
        payload_kg=st.floats(0.0, 3.0),
        direction_deg=st.floats(-180.0, 180.0),
        moment=st.floats(-0.1, 0.1),
        threshold_exp=st.floats(-12.0, -3.0),
    )
    def test_property_tip_within_threshold(self, calibrated, q_mm, payload_kg,
                                           direction_deg, moment, threshold_exp):
        geom = calibrated.geometry
        threshold = 10.0 ** threshold_exp
        q = q_mm * 1e-3
        weight = payload_kg * geom.gravity_accel
        angle = math.radians(direction_deg)
        load = ExternalLoad(force=(weight * math.cos(angle), weight * math.sin(angle)),
                            moment=moment)
        model = PotentialModel(geom, calibrated.tendons, load, q)
        sol = solve_static(model, threshold=threshold)
        tip = self._converged_tip(model, sol.configuration.theta)
        assert math.dist(sol.fingertip, tip) <= threshold + 1e-12


@dataclasses.dataclass(frozen=True)
class FrozenRecord:
    """A trace record as the frozen loop stores it: every step's taut
    tensions and stretched lengths beside its iterate."""

    index: int
    theta: tuple[float, float, float]
    fingertip_y: float
    tensions: tuple[float, float, float]
    elongated_lengths: tuple[float, float, float]
    residual: float | None


def frozen_solve_static(model, specs, *, threshold=statics.DEFAULT_THRESHOLD,
                        max_iterations=statics.DEFAULT_MAX_ITERATIONS):
    """`solve_static` as it was before its lean step, kept as a reference:
    every step builds a validating `Configuration` and a full `link_pose`,
    then takes the Hooke tensions and their groups in one pass and the
    taut specs by group-keyed lookups into `specs`, and stores the
    tensions and stretched lengths in its `FrozenRecord`. Its residual is
    the fingertip's whole movement, as `solve_static`'s is."""
    if threshold <= 0.0:
        raise ValueError("threshold must be > 0")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    trios = {group: group_specs(specs, group) for group in TendonGroup}

    def tensions_at(theta):
        tensions, groups = [], []
        for s, kf, ke in zip(model.stretches(*theta), model.k_flex, model.k_ext):
            if s >= 0.0:
                tensions.append(kf * s)
                groups.append(TendonGroup.FLEXION)
            else:
                tensions.append(ke * -s)
                groups.append(TendonGroup.EXTENSION)
        return tuple(tensions), tuple(groups)

    geom, nominal, wrap0 = model.geom, model.nominal, model.wrap0
    wrap0.angles_at(nominal.theta)
    y_nominal = model.nominal_pose[0][3][1]

    theta = nominal.theta
    x_prev = y_prev = None
    last_residual = math.inf
    trace = []

    for k in range(1, max_iterations + 1):
        step = reference_step(model, theta)
        if step is None:
            raise NoConvergence(
                f"Hessian not positive definite before step {k}", trace=trace
            )
        theta = (theta[0] + step[0], theta[1] + step[1], theta[2] + step[2])
        if not (math.isfinite(theta[0]) and math.isfinite(theta[1])
                and math.isfinite(theta[2])):
            raise NoConvergence(
                f"Newton step {k} gave a non-finite joint angle", trace=trace
            )
        cfg = Configuration(q=nominal.q, theta=theta)
        tip = link_pose(theta, geom)[0][3]
        tensions, groups = tensions_at(theta)
        taut = tuple(trios[g][i] for i, g in enumerate(groups))
        elongated = elongate_tendons(tensions, taut, wrap0)

        x_k, y_k = tip
        residual = (math.hypot(x_k - x_prev, y_k - y_prev)
                    if y_prev is not None else None)
        trace.append(FrozenRecord(
            index=k, theta=theta, fingertip_y=y_k,
            tensions=tensions,
            elongated_lengths=elongated,
            residual=residual,
        ))

        if residual is not None:
            if residual <= threshold:
                wrap0.angles_at(theta)
                return statics.StaticSolution(
                    configuration=cfg,
                    fingertip=tip,
                    deflection_y=y_nominal - y_k,
                    iterations=k,
                    residual=residual,
                    trace=tuple(trace),
                )
            last_residual = residual
        x_prev, y_prev = x_k, y_k

    raise NoConvergence(
        f"residual {last_residual:.3e} m above threshold {threshold:.3e} m "
        f"after {max_iterations} iterations",
        trace=trace,
    )


def frozen_trace_to_list(trace) -> list[dict]:
    """The `solve` JSON's trace as written from stored `FrozenRecord`s."""
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


def _finger(name, calibrated):
    """(geometry, specs) of one named finger: the shipped calibration, the
    calibration with its extension tendons twice as thick as its flexion
    tendons, or its massless geometry with steel, soft (5 GPa) or
    near-rigid tendons."""
    if name == "calibrated":
        return calibrated.geometry, calibrated.tendons
    if name == "asymmetric":
        return calibrated.geometry, tuple(
            s if s.group is FLEX
            else s._replace(cross_section_area=2.0 * s.cross_section_area)
            for s in calibrated.tendons)
    cal = calibrated.geometry
    massless = FingerGeometry(link_lengths=cal.link_lengths,
                              guide_radii=cal.guide_radii,
                              com_fractions=cal.com_fractions,
                              gravity_accel=cal.gravity_accel)
    youngs = {"steel": STEEL_E, "soft": 5e9, "rigid": 1e17}[name]
    return massless, make_specs(youngs_modulus=youngs)


def _directed(payload_kg, direction_deg, g=9.81, **kwargs):
    weight = payload_kg * g
    angle = math.radians(direction_deg)
    return ExternalLoad(force=(weight * math.cos(angle), weight * math.sin(angle)),
                        **kwargs)


class TestFrozenSolveLoop:
    """The lean Newton step gives the frozen loop's outcome bit for bit:
    solutions, iterates, error types and messages, and the `solve` JSON
    with every trace record's tensions and lengths, signed zeros
    included."""

    # (finger, q, load, solve options, outcome, start of its message):
    # every outcome and every way a solve fails but a non-finite step.
    OUTCOMES = [
        ("calibrated", 0.0, ExternalLoad.tip_payload(3.0), {},
         statics.StaticSolution, "StaticSolution("),
        ("steel", 0.0, ExternalLoad(moment=-0.0), {},
         statics.StaticSolution, "StaticSolution("),
        ("rigid", 4e-3, ExternalLoad.tip_payload(3.0), {},
         statics.StaticSolution, "StaticSolution("),
        ("asymmetric", 0.0, ExternalLoad(force=(0.0, -1.5), moment=0.1), {},
         statics.StaticSolution, "StaticSolution("),
        ("asymmetric", 1e-3, ExternalLoad(force=(0.0, 9.81)), {},
         statics.StaticSolution, "StaticSolution("),
        ("calibrated", 0.0, ExternalLoad.tip_payload(3.0), {"max_iterations": 2},
         NoConvergence, "residual"),
        ("calibrated", 2.9e-3, _directed(37.5, -156.0), {},
         NoConvergence, "Hessian not positive definite"),
        ("soft", 11e-3, ExternalLoad(force=(0.0, -50.0)), {},
         RangeExceeded, "theta_1 = 1.860063 rad"),
        ("calibrated", -1e-3, _directed(41.8, -145.0), {},
         RangeExceeded, "theta_1 = -1.745078 rad"),
        ("calibrated", 13.9e-3, ExternalLoad(force=(30.0, 0.0)), {},
         GeometryInfeasible, "wrap angle -0.0137"),
        ("calibrated", -12e-3, ExternalLoad.tip_payload(1.0), {},
         GeometryInfeasible, "wrap angle 3.2360"),
    ]

    @staticmethod
    def _both(geom, specs, q, load, **kwargs):
        def run(solver, *args):
            # The model is built inside the outcome: it refuses a rigid
            # pose that the coupling tendons cannot wrap (model None).
            try:
                model = PotentialModel(geom, specs, load, q)
            except TendonFingerError as exc:
                return None, exc
            return model, _outcome(lambda: solver(model, *args, **kwargs))

        model, new = run(solve_static)
        _, ref = run(frozen_solve_static, specs)
        assert type(new) is type(ref)
        if isinstance(ref, statics.StaticSolution):
            # Every solution field, and the trace as the frozen records hold it.
            frozen = statics.solution_to_dict(ref._replace(trace=()), model)
            frozen["trace"] = frozen_trace_to_list(ref.trace)
            # The converged pose's tensions and lengths as the frozen loop
            # stored them.
            for key in ("tensions_n", "elongated_lengths_m"):
                frozen[key] = frozen["trace"][-1][key]
            assert_same_outcome(statics.solution_to_dict(new, model), frozen,
                                exact=True, scale=1.0)
        else:
            assert str(new) == str(ref)
            assert_same_outcome(statics.trace_to_list(getattr(new, "trace", []), model),
                                frozen_trace_to_list(getattr(ref, "trace", [])),
                                exact=True, scale=1.0)
        return new

    @pytest.mark.parametrize("name", sorted(TestFrozenReference.CASES))
    def test_reference_cases(self, calibrated, name):
        q, load, kwargs = TestFrozenReference.CASES[name]
        self._both(calibrated.geometry, calibrated.tendons, q, load, **kwargs)

    @pytest.mark.parametrize("finger, q, load, kwargs, outcome, message", OUTCOMES)
    def test_every_outcome(self, calibrated, finger, q, load, kwargs, outcome,
                           message):
        got = self._both(*_finger(finger, calibrated), q, load, **kwargs)
        assert type(got) is outcome
        assert (repr(got) if outcome is statics.StaticSolution
                else str(got)).startswith(message)

    @settings(max_examples=100, deadline=None)
    @given(
        finger=st.sampled_from(["calibrated", "asymmetric", "steel", "soft",
                                "rigid"]),
        q_mm=st.floats(-14.0, 14.0),
        payload_kg=st.floats(0.0, 60.0),
        direction_deg=st.floats(-180.0, 180.0),
        moment=st.just(-0.0) | st.floats(-0.5, 0.5),
        attach=st.none() | st.floats(0.0, 1.0),
        threshold_exp=st.floats(-12.0, -3.0),
        max_iterations=st.sampled_from([1, 2, 3, 100]),
    )
    def test_property_matches_frozen_loop(self, calibrated, finger, q_mm, payload_kg,
                                          direction_deg, moment, attach,
                                          threshold_exp, max_iterations):
        geom, specs = _finger(finger, calibrated)
        q = q_mm * 1e-3
        point = None if attach is None else _distal_point(q, attach, geom)
        load = _directed(payload_kg, direction_deg, geom.gravity_accel,
                         moment=moment, application_point=point)
        self._both(geom, specs, q, load, threshold=10.0 ** threshold_exp,
                   max_iterations=max_iterations)


class TestSolverSettings:
    """A threshold that is not > 0 (NaN included) or a step cap below 1 or
    above `sys.maxsize` is refused once, before any payload or case runs, with the same message
    on every solver entry point."""

    @pytest.mark.parametrize("threshold, max_iterations, message", [
        (0.0, 100, "threshold must be > 0"),
        (-1e-6, 100, "threshold must be > 0"),
        (math.nan, 100, "threshold must be > 0"),
        (1e-6, 0, "max_iterations must be >= 1"),
        (1e-6, -1, "max_iterations must be >= 1"),
        # The largest step count that `islice` takes.
        (1e-6, sys.maxsize + 1, f"max_iterations must be <= {sys.maxsize}"),
    ])
    def test_refused_before_any_solve(self, calibrated, monkeypatch, threshold,
                                      max_iterations, message):
        geom, specs = calibrated.geometry, calibrated.tendons
        settings_ = {"threshold": threshold, "max_iterations": max_iterations}
        steps = count_newton_steps(monkeypatch)
        model = PotentialModel(geom, specs, ExternalLoad.tip_payload(1.0), 0.0)
        match = f"^{re.escape(message)}$"
        with pytest.raises(ValueError, match=match):
            solve_static(model, **settings_)
        for payloads in ([], [-1.0, -2.0], [1.0]):
            with pytest.raises(ValueError, match=match):
                stiffness_sweep(model, payloads, **settings_)
        for cases in ([], [{"load": ExternalLoad.tip_payload(1.0)}]):
            with pytest.raises(ValueError, match=match):
                equilibrium_report(model, cases, **settings_)
        assert steps == []


class TestNewtonDriver:
    """The driver (`PotentialModel.newton_steps`) writes `ldl_step` of
    `derivatives` out inline; it equals that reference (`reference_step`)
    bit for bit: every iterate, its trig and step, every refusal's step
    number and message."""

    STEPS = 30  # per run; a run also ends after a step of at most 1e-13 rad

    @classmethod
    def _reference(cls, model, theta):
        """The reference's items and refusal message (None if it took
        every step) from `theta`."""
        items = []
        for k in range(1, cls.STEPS + 1):
            step = reference_step(model, theta)
            if step is None:
                return items, f"Hessian not positive definite before step {k}"
            theta = (theta[0] + step[0], theta[1] + step[1], theta[2] + step[2])
            if not all(map(math.isfinite, theta)):
                return items, f"Newton step {k} gave a non-finite joint angle"
            items.append((*theta, *link_trig(*theta), *step))
            if max(map(abs, step)) <= 1e-13:
                break
        return items, None

    @classmethod
    def _pin(cls, model, theta):
        """Run the driver as far as the reference and compare the bits;
        the outcome's kind."""
        want, refusal = cls._reference(model, theta)
        got, message = [], None
        try:
            got.extend(islice(model.newton_steps(theta),
                              len(want) + (refusal is not None)))
        except NoConvergence as exc:
            message = str(exc)
        assert [list(map(float.hex, item)) for item in got] == [
            list(map(float.hex, item)) for item in want]
        assert message == refusal
        return "stepped" if refusal is None else refusal.split(" ")[0]

    def test_heavy_corpus_bit_for_bit(self, calibrated, heavy_corpus):
        kinds = Counter()
        for youngs_modulus, q, load in heavy_corpus:
            specs = tuple(s._replace(youngs_modulus=youngs_modulus)
                          for s in calibrated.tendons)
            model = PotentialModel(calibrated.geometry, specs, load, q)
            kinds[self._pin(model, model.nominal.theta)] += 1
        # Runs that end in a refused Hessian and runs that take every step
        # both occur often.
        assert kinds["Hessian"] > 1000 and kinds["stepped"] > 1000
        assert sum(kinds.values()) == len(heavy_corpus)

    def test_non_finite_step(self, calibrated):
        # A -1e308 N m moment sends the first step past the finite numbers.
        model = PotentialModel(calibrated.geometry, calibrated.tendons,
                               ExternalLoad(moment=-1e308), 0.0)
        assert self._pin(model, model.nominal.theta) == "Newton"


class TestLeanStepWork:
    """A solve's steps keep only their iterates, and a sweep's payload
    models share every load-free field."""

    def test_calls_per_step(self, calibrated, monkeypatch):
        poses, configs, stretched, elongated = [], [], [], []
        stretches = PotentialModel.stretches

        def counting_stretches(self, t1, t2, t3):
            stretched.append((t1, t2, t3))
            return stretches(self, t1, t2, t3)

        def counting_elongate_tendons(tensions, specs, wrap):
            elongated.append(tensions)
            return elongate_tendons(tensions, specs, wrap)

        def counting_link_pose(theta, geom):
            poses.append(theta)
            return link_pose(theta, geom)

        def counting_configuration(**kwargs):
            configs.append(kwargs["theta"])
            return Configuration(**kwargs)

        geom, specs = calibrated.geometry, calibrated.tendons
        load = ExternalLoad.tip_payload(3.0, geom.gravity_accel)
        # Built before the spies: a model's nominal pose is its one
        # `link_pose`.
        models = [PotentialModel(geom, specs, load, 1e-3) for _ in range(2)]
        steps = count_newton_steps(monkeypatch)
        monkeypatch.setattr(PotentialModel, "stretches", counting_stretches)
        for module in (model_module, potential, statics):
            if hasattr(module, "link_pose"):
                monkeypatch.setattr(module, "link_pose", counting_link_pose)
        monkeypatch.setattr(statics, "Configuration", counting_configuration)
        monkeypatch.setattr(statics, "elongate_tendons", counting_elongate_tendons)
        sol = solve_static(models[0])
        assert sol.iterations >= 3
        # One gradient and Hessian evaluation per step, at the iterate
        # before it.
        assert steps == [(models[0], models[0].nominal.theta),
                         *((models[0], rec.theta) for rec in sol.trace[:-1])]
        # The driver takes its stretches inline, and nothing else takes one:
        # a solve derives no tension or length. Only the converged pose
        # gets a `Configuration`, and the fingertip is the last iterate's,
        # with no `link_pose`.
        assert stretched == []
        assert configs == [sol.configuration.theta]
        assert poses == []
        assert elongated == []

        steps.clear()
        with pytest.raises(NoConvergence) as err:
            solve_static(models[1], max_iterations=2)
        assert len(steps) == len(err.value.trace) == 2
        assert stretched == []
        assert configs == [sol.configuration.theta]
        assert poses == []
        assert elongated == []

        # A sweep takes one step per payload step, failed rows' steps
        # included, and builds no configuration, length or pose: its
        # rows' nominal pose is the caller's model's.
        for max_iterations in (100, 2):
            steps.clear()
            rows = stiffness_sweep(models[0], [0.5, -1.0, 0.0, 3.0],
                                   max_iterations=max_iterations)
            assert len(steps) == sum(r.iterations or len(r.trace) for r in rows)
            assert stretched == []
            assert poses == []
        assert rows[0].status.startswith("error: NoConvergence")
        assert configs == [sol.configuration.theta]
        assert elongated == []

    @pytest.mark.parametrize("first_tip", [False, True])
    def test_with_load_shares_load_free_fields(self, calibrated, first_tip):
        geom, specs = calibrated.geometry, calibrated.tendons
        q = 0.0008
        attached = ExternalLoad(force=(2.0, -20.0), moment=0.02,
                                application_point=_distal_point(q, 0.7, geom))
        tip = ExternalLoad.tip_payload(3.0, geom.gravity_accel)
        first, second = (tip, attached) if first_tip else (attached, tip)
        base = PotentialModel(geom, specs, first, q)
        before = dict(vars(base))
        shared = base.with_load(second)
        assert type(shared) is PotentialModel
        assert vars(base).keys() == vars(shared).keys() == before.keys()
        per_load = ("load", "attach_local", "load_curvature", "load_lipschitz",
                    "moment_scale")
        for name, value in vars(base).items():
            assert value is before[name], name  # the base model is untouched
            if name not in per_load:
                assert getattr(shared, name) is value, name
        assert base.load is first
        assert shared.load is second
        fresh = PotentialModel(geom, specs, second, q)
        for name in per_load[1:]:
            assert getattr(shared, name) == getattr(fresh, name), name
        # A tip load rides the distal link as the point (L3, -0.0).
        tip_point = repr(shared.attach_local) == repr((geom.link_lengths[2], -0.0))
        assert tip_point == (second.application_point is None)
