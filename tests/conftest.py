import math

import numpy as np
import pytest
from hypothesis import settings

from tendonfinger.config import default_config_path, load_finger_config
from tendonfinger.model import ExternalLoad, FingerGeometry, TendonGroup, TendonSpec
from tendonfinger.potential import PotentialModel, ldl_step, link_trig

# Property tests draw the same examples on every run: each test's draws
# follow from its own source, and no example database carries failures
# over from an earlier run. Each test sets its own max_examples and
# deadline.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

STEEL_E = 2.0e11
STEEL_AREA = math.pi * 0.001 ** 2 / 4.0


def make_specs(youngs_modulus=STEEL_E, area=STEEL_AREA, actuating_rest=0.1):
    """Both tendon groups with identical elastic properties.

    Coupling-tendon rest lengths here are placeholders: the one potential
    model that the statics and the energy oracle share takes them from
    the zero-pose wrap geometry (`PotentialModel.wrap0`).
    """
    specs = []
    for group in (TendonGroup.FLEXION, TendonGroup.EXTENSION):
        for index in (1, 2, 3):
            rest = actuating_rest if index == 1 else 0.02
            specs.append(TendonSpec(
                youngs_modulus=youngs_modulus, cross_section_area=area,
                rest_length=rest, group=group, index=index,
            ))
    return tuple(specs)


def trig_is_math(angles) -> bool:
    """True when np.sin/np.cos give math.sin/math.cos bit for bit on
    `angles` (true on common libms; a numpy build with its own SIMD
    sin/cos may differ in the last ulp)."""
    angles = np.asarray(angles, dtype=float)
    return (np.sin(angles).tolist() == [math.sin(a) for a in angles.tolist()]
            and np.cos(angles).tolist() == [math.cos(a) for a in angles.tolist()])


def reference_step(model, theta):
    """The Newton step of `model`'s potential at joint angles `theta` by
    the reference route, `ldl_step` of `derivatives`, or None where the
    Hessian is not positive definite: what the driver
    (`PotentialModel.newton_steps`) writes out inline."""
    return ldl_step(*model.derivatives(*theta, *link_trig(*theta)))


def unloaded_model(geom, specs, q=0.0):
    """The load-free model at displacement q that each command that solves
    builds once and hands to `stiffness_sweep` or `equilibrium_report`."""
    return PotentialModel(geom, specs, ExternalLoad(), q)


HEAVY_MODULI = (2e11, 4e10, 1e10, 5e9)  # Pa: the calibration's steel down to 1/40


def heavy_load_corpus(n=3000, seed=3, gravity_accel=9.81):
    """Seeded heavy loads: (youngs_modulus, q, load) triples, each drawn in
    this order from one `numpy.random.default_rng(seed)`: E from
    HEAVY_MODULI; q within +-6 mm; 0-40 kg in any direction; a moment
    within +-0.3 N m; and, with probability 1/2, an application point in
    (0.05-0.2, +-0.05) m."""
    rng = np.random.default_rng(seed)
    corpus = []
    for _ in range(n):
        youngs_modulus = float(rng.choice(HEAVY_MODULI))
        q = float(rng.uniform(-6e-3, 6e-3))
        weight = float(rng.uniform(0.0, 40.0)) * gravity_accel
        angle = float(rng.uniform(-math.pi, math.pi))
        moment = float(rng.uniform(-0.3, 0.3))
        point = None
        if rng.random() < 0.5:
            point = (float(rng.uniform(0.05, 0.2)), float(rng.uniform(-0.05, 0.05)))
        corpus.append((youngs_modulus, q, ExternalLoad(
            force=(weight * math.cos(angle), weight * math.sin(angle)),
            moment=moment, application_point=point)))
    return corpus


def count_newton_steps(monkeypatch):
    """Record every Newton step that the driver (`PotentialModel.newton_steps`)
    takes, a refused one included, as (model, iterate it starts from): one
    gradient and Hessian evaluation each. The driver is lazy, so a step is
    taken only when its consumer asks for the next iterate."""
    steps = []
    driver = PotentialModel.newton_steps

    def counting(self, theta):
        iterates = driver(self, theta)
        at = tuple(theta)
        while True:
            steps.append((self, at))
            item = next(iterates)
            at = item[:3]
            yield item

    monkeypatch.setattr(PotentialModel, "newton_steps", counting)
    return steps


def count_models(monkeypatch):
    """Record the arguments of every `PotentialModel.__init__` and the
    load of every `PotentialModel.with_load` call."""
    built, loads = [], []
    init, with_load = PotentialModel.__init__, PotentialModel.with_load

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    def counting_with_load(self, load):
        loads.append(load)
        return with_load(self, load)

    monkeypatch.setattr(PotentialModel, "__init__", counting_init)
    monkeypatch.setattr(PotentialModel, "with_load", counting_with_load)
    return built, loads


@pytest.fixture(scope="session")
def calibrated():
    return load_finger_config(default_config_path())


@pytest.fixture(scope="session")
def heavy_corpus(calibrated):
    """The committed heavy-load corpus on the shipped finger's gravity."""
    return heavy_load_corpus(gravity_accel=calibrated.geometry.gravity_accel)


@pytest.fixture(scope="session")
def geom_cal(calibrated):
    return calibrated.geometry


@pytest.fixture
def geom_massless(geom_cal):
    return FingerGeometry(
        link_lengths=geom_cal.link_lengths,
        guide_radii=geom_cal.guide_radii,
        link_masses=(0.0, 0.0, 0.0),
        com_fractions=geom_cal.com_fractions,
        gravity_accel=geom_cal.gravity_accel,
    )
