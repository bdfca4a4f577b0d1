"""The package's record types: what each validated type refuses, under
positional and keyword construction, what it defaults, and the repr of
each plain-float type."""

import math

import pytest

from tendonfinger.config import FingerConfig
from tendonfinger.energy import EquilibriumResult
from tendonfinger.errors import RangeExceeded
from tendonfinger.model import (
    Configuration,
    ExternalLoad,
    FingerGeometry,
    TendonGroup,
    TendonSpec,
)
from tendonfinger.potential import WrapGeometry
from tendonfinger.statics import IterationRecord, StaticSolution, SweepRow

NAN, INF = math.nan, math.inf
LENGTHS, RADII = (0.06, 0.06, 0.051), (0.01, 0.0075, 0.005)
GEOMETRY = {"link_lengths": LENGTHS, "guide_radii": RADII,
            "link_masses": (0.01, 0.01, 0.005), "com_fractions": (0.5, 0.5, 0.5),
            "gravity_accel": 9.81}
SPEC = {"youngs_modulus": 2e11, "cross_section_area": 7.85e-07,
        "rest_length": 0.1, "group": TendonGroup.FLEXION, "index": 1}


def _geometry(**changed):
    return {**GEOMETRY, **changed}


def _spec(**changed):
    return {**SPEC, **changed}


# (type, keyword arguments in field order, exception type, message)
REFUSALS = [
    *[(FingerGeometry, _geometry(**{name: (0.5, 0.5)}), ValueError,
       f"{name} must have exactly 3 entries")
      for name in ("link_lengths", "guide_radii", "link_masses", "com_fractions")],
    *[(FingerGeometry, _geometry(**{name: (0.5, bad, 0.5)}), ValueError,
       f"{name} contains a non-finite value")
      for name in ("link_lengths", "guide_radii", "link_masses", "com_fractions")
      for bad in (NAN, INF, -INF)],
    (FingerGeometry, _geometry(link_lengths=(0.06, -0.06, 0.051)), ValueError,
     "link lengths must be >= 0"),
    (FingerGeometry, _geometry(guide_radii=(0.01, 0.0, 0.005)), ValueError,
     "guide radii must be > 0"),
    (FingerGeometry, _geometry(link_masses=(0.01, 0.01, -0.005)), ValueError,
     "link masses must be >= 0"),
    (FingerGeometry, _geometry(com_fractions=(0.5, 1.5, 0.5)), ValueError,
     "com fractions must lie in [0, 1]"),
    (FingerGeometry, _geometry(com_fractions=(-0.1, 0.5, 0.5)), ValueError,
     "com fractions must lie in [0, 1]"),
    *[(FingerGeometry, _geometry(gravity_accel=bad), ValueError,
       "gravity_accel must be finite and >= 0") for bad in (NAN, INF, -1.0)],
    # Order: every triple's length and finiteness first, field by field,
    # then the signs in field order, then gravity.
    (FingerGeometry, _geometry(link_lengths=(-1.0, 0.06, 0.051), com_fractions=(0.5,)),
     ValueError, "com_fractions must have exactly 3 entries"),
    (FingerGeometry, _geometry(link_lengths=(0.06, NAN, 0.051), guide_radii=(0.01,)),
     ValueError, "link_lengths contains a non-finite value"),
    (FingerGeometry, _geometry(guide_radii=(-0.01, 0.0075, 0.005),
                               link_lengths=(-1.0, 0.06, 0.051), gravity_accel=NAN),
     ValueError, "link lengths must be >= 0"),
    (FingerGeometry, _geometry(link_masses=(-1.0, 0.0, 0.0), com_fractions=(2.0, 0.5, 0.5)),
     ValueError, "link masses must be >= 0"),
    (FingerGeometry, _geometry(com_fractions=(2.0, 0.5, 0.5), gravity_accel=-1.0),
     ValueError, "com fractions must lie in [0, 1]"),
    *[(TendonSpec, _spec(youngs_modulus=bad), ValueError, "youngs_modulus must be > 0")
      for bad in (0.0, -2e11, -INF, NAN)],
    (TendonSpec, _spec(cross_section_area=0.0), ValueError,
     "cross_section_area must be > 0"),
    (TendonSpec, _spec(rest_length=-0.1), ValueError, "rest_length must be > 0"),
    *[(TendonSpec, _spec(**{name: bad}), ValueError, f"{name} must be > 0")
      for name in ("cross_section_area", "rest_length") for bad in (NAN, -INF)],
    *[(TendonSpec, _spec(**{name: INF}), ValueError, f"{name} must be finite")
      for name in ("youngs_modulus", "cross_section_area", "rest_length")],
    (TendonSpec, _spec(youngs_modulus=INF, rest_length=NAN), ValueError,
     "youngs_modulus must be finite"),
    *[(TendonSpec, _spec(index=bad), ValueError, "tendon index must be 1, 2 or 3")
      for bad in (0, 4, 1.5, True, 1.0)],
    (TendonSpec, _spec(youngs_modulus=0.0, cross_section_area=0.0, index=9), ValueError,
     "youngs_modulus must be > 0"),
    (TendonSpec, _spec(rest_length=0.0, index=9), ValueError, "rest_length must be > 0"),
    (Configuration, {"q": 0.0, "theta": (0.1, 0.2)}, ValueError,
     "theta must have exactly 3 entries"),
    *[(Configuration, {"q": 0.0, "theta": theta}, ValueError,
       "theta contains a non-finite value")
      for theta in ((NAN, 0.0, 0.0), (0.0, INF, 0.0), (0.0, 0.0, -INF), (2.0, NAN, 0.0))],
    *[(Configuration, {"q": bad, "theta": (0.1, 0.2, 0.3)}, ValueError,
       "q must be finite") for bad in (NAN, INF, -INF)],
    (Configuration, {"q": NAN, "theta": (2.0, 0.2, 0.3)}, ValueError,
     "q must be finite"),
    (Configuration, {"q": 0.02, "theta": (2.0, 0.2, 0.3)}, RangeExceeded,
     "theta_1 = 2.000000 rad outside [-1.570796, 1.570796]"),
    (Configuration, {"q": -0.02, "theta": (-1.6, 0.0, 0.0)}, RangeExceeded,
     "theta_1 = -1.600000 rad outside [-1.570796, 1.570796]"),
    *[(ExternalLoad, {"force": force, "moment": moment, "application_point": point},
       ValueError, "load components must be finite")
      for force, moment, point in (((NAN, 0.0), 0.0, None), ((0.0, -INF), 0.0, None),
                                   ((0.0, -1.0), INF, None), ((0.0, -1.0), 0.0, (0.1, NAN)))],
]


def _ids(case):
    cls, kwargs, _, message = case
    return f"{cls.__name__}-{message}-{kwargs!r}"


class TestRefusals:
    @pytest.mark.parametrize("case", REFUSALS, ids=[_ids(c) for c in REFUSALS])
    def test_positional(self, case):
        cls, kwargs, error, message = case
        with pytest.raises(error) as exc:
            cls(*kwargs.values())
        assert type(exc.value) is error
        assert str(exc.value) == message

    @pytest.mark.parametrize("case", REFUSALS, ids=[_ids(c) for c in REFUSALS])
    def test_keyword(self, case):
        cls, kwargs, error, message = case
        with pytest.raises(error) as exc:
            cls(**kwargs)
        assert type(exc.value) is error
        assert str(exc.value) == message

    def test_refused_with_defaults(self):
        with pytest.raises(ValueError, match="^guide radii must be > 0$"):
            FingerGeometry(LENGTHS, (0.0, 0.01, 0.01))
        with pytest.raises(ValueError, match="^load components must be finite$"):
            ExternalLoad((0.0, NAN))
        with pytest.raises(ValueError, match="^load components must be finite$"):
            ExternalLoad(moment=NAN)

    def test_accepted_edges(self):
        # Zero lengths, masses and gravity, and the com fraction ends,
        # are allowed; theta_1 passes within 1e-12 rad of its range.
        FingerGeometry((0.0, 0.0, 0.0), RADII, (0.0, 0.0, 0.0), (0.0, 1.0, 0.5), 0.0)
        Configuration(0.0, (math.pi / 2 + 5e-13, 0.0, 0.0))
        TendonSpec(1.0, 1.0, 1.0, TendonGroup.EXTENSION, 3)


class TestDefaults:
    def test_external_load(self):
        load = ExternalLoad()
        assert (load.force, load.moment, load.application_point) == ((0.0, 0.0), 0.0, None)
        assert ExternalLoad((1.0, 2.0)).moment == 0.0

    def test_finger_geometry(self):
        for geom in (FingerGeometry(LENGTHS, RADII),
                     FingerGeometry(link_lengths=LENGTHS, guide_radii=RADII)):
            assert geom.link_lengths == LENGTHS and geom.guide_radii == RADII
            assert geom.link_masses == (0.0, 0.0, 0.0)
            assert geom.com_fractions == (0.5, 0.5, 0.5)
            assert geom.gravity_accel == 9.81

    def test_keyword_and_positional_agree(self):
        assert FingerGeometry(**GEOMETRY) == FingerGeometry(*GEOMETRY.values())
        assert TendonSpec(**SPEC) == TendonSpec(*SPEC.values())
        assert Configuration(q=0.0, theta=(0.1, 0.2, 0.3)) == Configuration(0.0, (0.1, 0.2, 0.3))
        assert ExternalLoad.tip_payload(3.0) == ExternalLoad(force=(0.0, -3.0 * 9.81))


RECORD = IterationRecord(theta=(0.1, 0.2, 0.3), fingertip_y=0.05, residual=None)
CONFIG = Configuration(q=0.001, theta=(0.1, 0.2, 0.3))

REPRS = [
    (FingerGeometry(LENGTHS, RADII),
     "FingerGeometry(link_lengths=(0.06, 0.06, 0.051), guide_radii=(0.01, 0.0075, 0.005), "
     "link_masses=(0.0, 0.0, 0.0), com_fractions=(0.5, 0.5, 0.5), gravity_accel=9.81)"),
    (TendonSpec(**SPEC),
     "TendonSpec(youngs_modulus=200000000000.0, cross_section_area=7.85e-07, "
     "rest_length=0.1, group=<TendonGroup.FLEXION: 'flexion'>, index=1)"),
    (FingerConfig(FingerGeometry(LENGTHS, RADII), (TendonSpec(**SPEC),)),
     "FingerConfig(geometry=FingerGeometry(link_lengths=(0.06, 0.06, 0.051), "
     "guide_radii=(0.01, 0.0075, 0.005), link_masses=(0.0, 0.0, 0.0), "
     "com_fractions=(0.5, 0.5, 0.5), gravity_accel=9.81), "
     "tendons=(TendonSpec(youngs_modulus=200000000000.0, cross_section_area=7.85e-07, "
     "rest_length=0.1, group=<TendonGroup.FLEXION: 'flexion'>, index=1),))"),
    (CONFIG,
     "Configuration(q=0.001, theta=(0.1, 0.2, 0.3))"),
    (ExternalLoad(),
     "ExternalLoad(force=(0.0, 0.0), moment=0.0, application_point=None)"),
    (ExternalLoad((1.5, -2.0), -0.25, (0.1, 0.02)),
     "ExternalLoad(force=(1.5, -2.0), moment=-0.25, application_point=(0.1, 0.02))"),
    (EquilibriumResult((0.1, 0.2, 0.3), (0.16, 0.05), -1.25, 5),
     "EquilibriumResult(theta=(0.1, 0.2, 0.3), fingertip=(0.16, 0.05), energy=-1.25, "
     "evaluations=5)"),
    (WrapGeometry(2.0, 2.5, 0.03, 0.025),
     "WrapGeometry(alpha2_0=2.0, alpha3_0=2.5, rest_length_2=0.03, rest_length_3=0.025)"),
    (RECORD,
     "IterationRecord(theta=(0.1, 0.2, 0.3), fingertip_y=0.05, residual=None)"),
    (IterationRecord((0.1, 0.2, 0.3), 0.04, 1e-09),
     "IterationRecord(theta=(0.1, 0.2, 0.3), fingertip_y=0.04, residual=1e-09)"),
    (StaticSolution(CONFIG, (0.16, 0.04), -0.01, 2, 1e-09, trace=(RECORD, RECORD)),
     "StaticSolution(configuration=Configuration(q=0.001, theta=(0.1, 0.2, 0.3)), "
     "fingertip=(0.16, 0.04), deflection_y=-0.01, iterations=2, residual=1e-09)"),
    (SweepRow(0.5, 0.001, 4905.0, 3, "ok"),
     "SweepRow(payload_kg=0.5, deflection_m=0.001, stiffness_n_per_m=4905.0, "
     "iterations=3, status='ok')"),
    (SweepRow(0.5, NAN, NAN, 1, "error: NoConvergence: capped", trace=(RECORD,)),
     "SweepRow(payload_kg=0.5, deflection_m=nan, stiffness_n_per_m=nan, "
     "iterations=1, status='error: NoConvergence: capped')"),
]


@pytest.mark.parametrize("obj, expected", REPRS, ids=[expected.split("(")[0] + str(i)
                                                      for i, (_, expected) in enumerate(REPRS)])
def test_repr(obj, expected):
    assert repr(obj) == expected
