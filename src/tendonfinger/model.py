"""
Core data model and kinematics of a synchronously coupled tendon finger.

Three rigid links form a planar chain. A single actuating tendon
displacement q drives all joints through guide cylinders of radius R_i
mounted at each joint, so the relative joint angles are coupled as
theta_i = q / R_i.

Conventions (used everywhere in this package):
  x axis : along the straight finger (q = 0 pose), base joint at origin
  y axis : up; gravity acts along -y
  angles : counter-clockwise positive; the flexion tendon group pulls
           joints toward positive theta, the extension group toward
           negative theta
  units  : SI internally (meters, kilograms, newtons, radians); config
           documents may declare mm/g, converted once at parse time

The package's records are named tuples: immutable, iterable, indexable
and equal to a plain tuple of their fields. The four defined here check
their fields in `__new__`, which `_replace` and `_make` skip, so the
package builds those four only by calling the class.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple

from .errors import RangeExceeded

THETA1_MIN = -math.pi / 2
THETA1_MAX = math.pi / 2

_TOL = 1e-12


class TendonGroup(enum.Enum):
    FLEXION = "flexion"
    EXTENSION = "extension"


class FingerGeometry(namedtuple(
        "FingerGeometry",
        "link_lengths guide_radii link_masses com_fractions gravity_accel")):
    """Static description of the finger: links, guide radii, masses.

    Lengths may be zero (degenerate links are allowed for workspace
    sweeps); the wrap-geometry feasibility conditions R1+R2 < L1 and
    R2+R3 < L2 are enforced where the statics actually needs them.
    """

    __slots__ = ()

    def __new__(cls, link_lengths: tuple[float, float, float],
                guide_radii: tuple[float, float, float],
                link_masses: tuple[float, float, float] = (0.0, 0.0, 0.0),
                com_fractions: tuple[float, float, float] = (0.5, 0.5, 0.5),
                gravity_accel: float = 9.81):
        self = super().__new__(cls, link_lengths, guide_radii, link_masses,
                               com_fractions, gravity_accel)
        for name, triple in zip(self._fields, self[:4]):
            if len(triple) != 3:
                raise ValueError(f"{name} must have exactly 3 entries")
            if not all(map(math.isfinite, triple)):
                raise ValueError(f"{name} contains a non-finite value")
        if min(link_lengths) < 0.0:
            raise ValueError("link lengths must be >= 0")
        if min(guide_radii) <= 0.0:
            raise ValueError("guide radii must be > 0")
        if min(link_masses) < 0.0:
            raise ValueError("link masses must be >= 0")
        if min(com_fractions) < 0.0 or max(com_fractions) > 1.0:
            raise ValueError("com fractions must lie in [0, 1]")
        if not math.isfinite(gravity_accel) or gravity_accel < 0.0:
            raise ValueError("gravity_accel must be finite and >= 0")
        return self

    @property
    def total_length(self) -> float:
        return float(sum(self.link_lengths))


class TendonSpec(namedtuple(
        "TendonSpec", "youngs_modulus cross_section_area rest_length group index")):
    """Elastic and routing properties of one tendon."""

    __slots__ = ()

    def __new__(cls, youngs_modulus: float, cross_section_area: float,
                rest_length: float, group: TendonGroup, index: int):
        if not youngs_modulus > 0.0:  # NaN too
            raise ValueError("youngs_modulus must be > 0")
        if not math.isfinite(youngs_modulus):
            raise ValueError("youngs_modulus must be finite")
        if not cross_section_area > 0.0:
            raise ValueError("cross_section_area must be > 0")
        if not math.isfinite(cross_section_area):
            raise ValueError("cross_section_area must be finite")
        if not rest_length > 0.0:
            raise ValueError("rest_length must be > 0")
        if not math.isfinite(rest_length):
            raise ValueError("rest_length must be finite")
        if type(index) is not int or index not in (1, 2, 3):  # no bool, no float
            raise ValueError("tendon index must be 1, 2 or 3")
        return super().__new__(cls, youngs_modulus, cross_section_area, rest_length,
                               group, index)

    @property
    def axial_stiffness(self) -> float:
        """E*A, newtons per unit strain."""
        return self.youngs_modulus * self.cross_section_area


def check_theta_1(t1: float) -> None:
    """Raise RangeExceeded when the base joint angle t1 lies outside
    [THETA1_MIN, THETA1_MAX], widened by a 1e-12 rad tolerance: the one
    range rule of configurations and solver iterates."""
    if t1 < THETA1_MIN - _TOL or t1 > THETA1_MAX + _TOL:
        raise RangeExceeded(
            f"theta_1 = {t1:.6f} rad outside [{THETA1_MIN:.6f}, {THETA1_MAX:.6f}]"
        )


class Configuration(namedtuple("Configuration", "q theta")):
    """Actuating displacement q plus the three joint angles.

    Only theta_1 is range-limited; elasticity-corrected configurations
    need not satisfy the rigid coupling theta_i = q / R_i.
    """

    __slots__ = ()

    def __new__(cls, q: float, theta: tuple[float, float, float]):
        if len(theta) != 3:
            raise ValueError("theta must have exactly 3 entries")
        if not all(map(math.isfinite, theta)):
            raise ValueError("theta contains a non-finite value")
        if not math.isfinite(q):
            raise ValueError("q must be finite")
        check_theta_1(theta[0])
        return super().__new__(cls, q, theta)


class ExternalLoad(namedtuple("ExternalLoad", "force moment application_point")):
    """Planar force, out-of-plane moment and where the force acts.

    application_point None means the fingertip; otherwise a point given
    in the base frame at the rigid-tendon pose and attached to the distal
    link, so it moves with the link as the finger deflects.
    """

    __slots__ = ()

    def __new__(cls, force: tuple[float, float] = (0.0, 0.0), moment: float = 0.0,
                application_point: tuple[float, float] | None = None):
        vals = [*force, moment]
        if application_point is not None:
            vals.extend(application_point)
        if not all(map(math.isfinite, vals)):
            raise ValueError("load components must be finite")
        return super().__new__(cls, force, moment, application_point)

    @staticmethod
    def tip_payload(mass_kg: float, gravity_accel: float = 9.81) -> "ExternalLoad":
        """Hanging mass at the fingertip."""
        return ExternalLoad(force=(0.0, -mass_kg * gravity_accel), moment=0.0)


def coupling_angles(q: float, geom: FingerGeometry) -> Configuration:
    """Rigid-tendon joint angles for displacement q: theta_i = q / R_i."""
    r1, r2, r3 = geom.guide_radii
    return Configuration(q=q, theta=(q / r1, q / r2, q / r3))


def link_pose(theta, geom: FingerGeometry):
    """Joint points and link centres of mass for joint angles `theta`.

    Returns (points, coms) as tuples of (x, y) float tuples: points are
    [J1, J2, J3, tip], coms the three links' centres of mass. Plain floats,
    3 cosines and 3 sines: a potential model calls this once, for its
    nominal pose, and the solver sums its iterates' fingertips from the
    same cosines and sines in the same order. Sums keep the order of a
    cumulative sum (phi_3 = (theta_1 + theta_2) + theta_3,
    tip = (s_1 + s_2) + s_3), so the values equal the numpy chain's.
    """
    t1, t2, t3 = theta
    l1, l2, l3 = geom.link_lengths
    f1, f2, f3 = geom.com_fractions
    phi2 = t1 + t2
    phi3 = phi2 + t3
    c1, s1 = math.cos(t1), math.sin(t1)
    c2, s2 = math.cos(phi2), math.sin(phi2)
    c3, s3 = math.cos(phi3), math.sin(phi3)
    x1, y1 = l1 * c1, l1 * s1
    x2, y2 = x1 + l2 * c2, y1 + l2 * s2
    x3, y3 = x2 + l3 * c3, y2 + l3 * s3
    points = ((0.0, 0.0), (x1, y1), (x2, y2), (x3, y3))
    a1, a2, a3 = f1 * l1, f2 * l2, f3 * l3
    coms = ((0.0 + a1 * c1, 0.0 + a1 * s1),
            (x1 + a2 * c2, y1 + a2 * s2),
            (x2 + a3 * c3, y2 + a3 * s3))
    return points, coms


def forward_kinematics(config: Configuration,
                       geom: FingerGeometry) -> tuple[float, float]:
    """Fingertip (x, y) for a configuration; `link_pose` gives the joints.

    x = sum_i L_i cos(theta_1 + ... + theta_i), same with sin for y.
    """
    return link_pose(config.theta, geom)[0][3]


def jacobian(q: float, geom: FingerGeometry) -> tuple[float, float]:
    """d(fingertip)/dq of the coupled chain, as (dx, dy).

    The absolute angle of link i is q * C_i with C_i = sum_{j<=i} 1/R_j,
    so d x/d q = -sum_i L_i C_i sin(q C_i) and d y/d q the cosine form.
    """
    coupling_angles(q, geom)  # range check only
    l1, l2, l3 = geom.link_lengths
    r1, r2, r3 = geom.guide_radii
    c1 = 1.0 / r1
    c2 = c1 + 1.0 / r2
    c3 = c2 + 1.0 / r3
    a1, a2, a3 = l1 * c1, l2 * c2, l3 * c3
    dx = -((a1 * math.sin(q * c1) + a2 * math.sin(q * c2)) + a3 * math.sin(q * c3))
    dy = (a1 * math.cos(q * c1) + a2 * math.cos(q * c2)) + a3 * math.cos(q * c3)
    return dx, dy
