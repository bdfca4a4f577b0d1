import math

import numpy as np
import pytest

from tendonfinger.errors import RangeExceeded
from tendonfinger.model import (
    THETA1_MAX,
    THETA1_MIN,
    Configuration,
    FingerGeometry,
    check_theta_1,
    coupling_angles,
    forward_kinematics,
    jacobian,
    link_pose,
)

GEOM = FingerGeometry(
    link_lengths=(0.06, 0.06, 0.051),
    guide_radii=(0.010, 0.0075, 0.005),
)
EQUAL = FingerGeometry(link_lengths=(0.1, 0.1, 0.1), guide_radii=(0.01, 0.01, 0.01))


class TestCouplingAngles:
    def test_zero_displacement(self):
        assert coupling_angles(0.0, GEOM).theta == (0.0, 0.0, 0.0)

    def test_direct_division(self):
        cfg = coupling_angles(0.00785, GEOM)
        assert cfg.theta[0] == pytest.approx(0.785, abs=1e-12)
        assert cfg.theta[1] == pytest.approx(0.00785 / 0.0075, abs=1e-12)
        assert cfg.theta[2] == pytest.approx(1.570, abs=1e-12)

    def test_range_exceeded(self):
        with pytest.raises(RangeExceeded):
            coupling_angles(0.020, GEOM)  # theta_1 = 2.0 rad

    def test_one_range_rule(self):
        # Configurations and solver iterates share one rule: the joint-1
        # range widened by 1e-12 rad, and one message.
        for edge, outward in ((THETA1_MIN - 1e-12, -math.inf),
                              (THETA1_MAX + 1e-12, math.inf)):
            check_theta_1(edge)
            Configuration(q=0.0, theta=(edge, 0.0, 0.0))
            beyond = math.nextafter(edge, outward)
            with pytest.raises(RangeExceeded) as checked:
                check_theta_1(beyond)
            with pytest.raises(RangeExceeded) as built:
                Configuration(q=0.0, theta=(beyond, 0.0, 0.0))
            assert str(checked.value) == str(built.value) == (
                f"theta_1 = {beyond:.6f} rad outside [-1.570796, 1.570796]")

    def test_rigid_coupling_invariant(self):
        rng = np.random.default_rng(11)
        for q in rng.uniform(-0.015, 0.015, 50):
            cfg = coupling_angles(q, GEOM)
            for th, r in zip(cfg.theta, GEOM.guide_radii):
                assert abs(th * r - q) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            q = float(rng.uniform(-0.01, 0.01))
            a = float(rng.uniform(-1.2, 1.2))
            if abs(a * q / GEOM.guide_radii[0]) > math.pi / 2:
                continue
            base = coupling_angles(q, GEOM).theta
            scaled = coupling_angles(a * q, GEOM).theta
            for b, s in zip(base, scaled):
                assert s == pytest.approx(a * b, abs=1e-14)


class TestForwardKinematics:
    def test_straight(self):
        tip = forward_kinematics(coupling_angles(0.0, GEOM), GEOM)
        assert tip[0] == pytest.approx(0.171, abs=1e-12)
        assert tip[1] == 0.0  # exactly, by the frame convention

    def test_rigid_rotation(self):
        cfg = coupling_angles(0.0, GEOM)
        rotated = type(cfg)(q=0.0, theta=(math.pi / 2, 0.0, 0.0))
        tip = forward_kinematics(rotated, GEOM)
        assert tip[0] == pytest.approx(0.0, abs=1e-12)
        assert tip[1] == pytest.approx(0.171, abs=1e-12)

    def test_equal_bend_trig_sums(self):
        # Hand-evaluated cumulative angles 30/60/90 degrees.
        cfg = type(coupling_angles(0.0, EQUAL))(
            q=0.0, theta=(math.pi / 6, math.pi / 6, math.pi / 6)
        )
        tip = forward_kinematics(cfg, EQUAL)
        expect_x = 0.1 * (math.cos(math.pi / 6) + math.cos(math.pi / 3)
                          + math.cos(math.pi / 2))
        expect_y = 0.1 * (math.sin(math.pi / 6) + math.sin(math.pi / 3)
                          + math.sin(math.pi / 2))
        assert tip[0] == pytest.approx(expect_x, abs=1e-12)
        assert tip[1] == pytest.approx(expect_y, abs=1e-12)
        assert tip[0] == pytest.approx(0.13660, abs=1e-5)
        assert tip[1] == pytest.approx(0.23660, abs=1e-5)

    def test_reach_bound(self):
        rng = np.random.default_rng(3)
        for q in rng.uniform(-0.0157, 0.0157, 100):
            tip = forward_kinematics(coupling_angles(q, GEOM), GEOM)
            assert math.hypot(*tip) <= GEOM.total_length + 1e-9

    def test_joint_positions_are_partial_sums(self):
        theta = coupling_angles(0.004, GEOM).theta
        points = link_pose(theta, GEOM)[0]
        assert points[3] == forward_kinematics(coupling_angles(0.004, GEOM), GEOM)
        assert len(points) == 4 and points[0] == (0.0, 0.0)
        phi = np.cumsum(theta)
        for k in range(1, 4):
            x = sum(GEOM.link_lengths[i] * math.cos(phi[i]) for i in range(k))
            y = sum(GEOM.link_lengths[i] * math.sin(phi[i]) for i in range(k))
            assert points[k] == pytest.approx((x, y), abs=1e-15)


class TestFingertipFromDisplacement:
    def test_equal_radii_matches_equal_bend(self):
        q = 0.01 * math.pi / 6
        tip = forward_kinematics(coupling_angles(q, EQUAL), EQUAL)
        assert tip[0] == pytest.approx(0.13660254037844388, abs=1e-12)
        assert tip[1] == pytest.approx(0.23660254037844387, abs=1e-12)

    def test_range_propagates(self):
        with pytest.raises(RangeExceeded):
            forward_kinematics(coupling_angles(0.020, GEOM), GEOM)


def _fd_jacobian(q, geom, h=1e-7):
    xp = forward_kinematics(coupling_angles(q + h, geom), geom)
    xm = forward_kinematics(coupling_angles(q - h, geom), geom)
    return np.array([(xp[0] - xm[0]) / (2 * h), (xp[1] - xm[1]) / (2 * h)])


class TestJacobian:
    def test_straight_pose(self):
        # All sines vanish; the y-rate is sum_i L_i * sum_{j<=i} 1/R_j.
        jac = jacobian(0.0, GEOM)
        rates = np.cumsum(1.0 / np.asarray(GEOM.guide_radii))
        expect = float(np.sum(np.asarray(GEOM.link_lengths) * rates))
        assert jac[0] == 0.0
        assert jac[1] == pytest.approx(expect, rel=1e-14)

    def test_degenerate_lengths(self):
        geom = FingerGeometry(link_lengths=(0.0, 0.0, 0.0),
                              guide_radii=(0.01, 0.0075, 0.005))
        assert np.allclose(jacobian(0.004, geom), (0.0, 0.0))

    def test_finite_difference_at_reference_point(self):
        jac = jacobian(0.004, GEOM)
        fd = _fd_jacobian(0.004, GEOM)
        assert np.linalg.norm(jac - fd) / np.linalg.norm(fd) < 1e-5

    def test_finite_difference_random(self):
        rng = np.random.default_rng(42)
        qmax = GEOM.guide_radii[0] * math.pi / 2 * 0.95
        for q in rng.uniform(-qmax, qmax, 100):
            jac = jacobian(q, GEOM)
            fd = _fd_jacobian(q, GEOM)
            assert np.linalg.norm(jac - fd) / max(np.linalg.norm(fd), 1e-12) < 1e-5

    def test_plain_floats_match_numpy_form(self):
        # The (dx, dy) tuple keeps the bits of the numpy cumsum-and-sum
        # form it replaced, wherever numpy's sin/cos are libm's.
        rng = np.random.default_rng(43)
        qmax = GEOM.guide_radii[0] * math.pi / 2 * 0.95
        for q in rng.uniform(-qmax, qmax, 200).tolist():
            jac = jacobian(q, GEOM)
            assert type(jac) is tuple and all(type(v) is float for v in jac)
            rates = np.cumsum(1.0 / np.asarray(GEOM.guide_radii))
            weighted = np.asarray(GEOM.link_lengths) * rates
            phi = q * rates
            ref = (-np.sum(weighted * np.sin(phi)), np.sum(weighted * np.cos(phi)))
            if (np.sin(phi).tolist() == [math.sin(v) for v in phi.tolist()]
                    and np.cos(phi).tolist() == [math.cos(v) for v in phi.tolist()]):
                assert jac == (float(ref[0]), float(ref[1]))
            else:
                np.testing.assert_allclose(jac, ref, rtol=1e-12)

