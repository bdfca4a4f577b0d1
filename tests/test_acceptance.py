"""
Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line with the measured values.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import math
import subprocess
import sys
import time
from io import BytesIO

import numpy as np
import pytest
from scipy.integrate import quad

from tendonfinger.config import default_config_path, load_finger_config
from tendonfinger.energy import equilibrium_report, random_tip_load_cases
from tendonfinger.model import (
    Configuration,
    ExternalLoad,
    TendonSpec,
    coupling_angles,
    forward_kinematics,
    jacobian,
)
from tendonfinger.potential import PotentialModel
from tendonfinger.statics import solve_static, wrap_moment
from tendonfinger.workspace import (
    CLOUD_CSV_HEADER,
    blank_grid,
    mark_cells,
    sweep_extent,
    sweep_slabs,
    write_csv_rows,
)

CONFIG_PATH = default_config_path()

REFERENCE_DEFLECTION_M = 24.386e-3
REFERENCE_STIFFNESS = 1.2e3
PAYLOADS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


def report(number, name, ok, detail):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "tendonfinger", *args],
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def calibration():
    return load_finger_config(default_config_path())


def test_criterion_1_kinematics_oracle(calibration):
    geom = calibration.geometry
    start = time.perf_counter()

    straight = forward_kinematics(coupling_angles(0.0, geom), geom)
    exact_straight = (abs(straight[0] - geom.total_length) <= 1e-12
                      and abs(straight[1]) <= 1e-12)

    rotated = forward_kinematics(
        Configuration(q=0.0, theta=(math.pi / 2, 0.0, 0.0)), geom
    )
    exact_rotated = (abs(rotated[0]) <= 1e-12
                     and abs(rotated[1] - geom.total_length) <= 1e-12)

    rng = np.random.default_rng(2024)
    qmax = geom.guide_radii[0] * math.pi / 2 * 0.95
    h = 1e-7
    worst = 0.0
    for q in rng.uniform(-qmax, qmax, 100):
        jac = jacobian(q, geom)
        xp = forward_kinematics(coupling_angles(q + h, geom), geom)
        xm = forward_kinematics(coupling_angles(q - h, geom), geom)
        fd = np.array([(xp[0] - xm[0]) / (2 * h), (xp[1] - xm[1]) / (2 * h)])
        worst = max(worst, np.linalg.norm(jac - fd) / np.linalg.norm(fd))

    elapsed = time.perf_counter() - start
    ok = exact_straight and exact_rotated and worst <= 1e-5 and elapsed < 1.0
    report(1, "kinematics oracle", ok,
           f"max jacobian rel err {worst:.2e}, runtime {elapsed:.2f} s")
    assert exact_straight and exact_rotated
    assert worst <= 1e-5
    assert elapsed < 1.0


def test_criterion_2_wrap_moment_quadrature():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        n = float(rng.uniform(0.1, 200.0))
        lever = float(rng.uniform(0.01, 0.2))
        theta = float(rng.uniform(0.0, 1.2))
        alpha = float(rng.uniform(0.1, math.pi - theta - 0.05))
        closed = wrap_moment(n, lever, theta, alpha)
        numeric, _ = quad(lambda t: n * lever * math.sin(t),
                          theta, alpha + theta, epsabs=1e-14, epsrel=1e-13)
        worst = max(worst, abs(closed - numeric) / abs(numeric))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    report(2, "wrap-moment closed form", ok,
           f"max rel err {worst:.2e} over 1000 draws, runtime {elapsed:.2f} s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_3_convergence_over_payloads(calibration):
    geom, specs = calibration.geometry, calibration.tendons
    for spec in specs:
        assert spec.youngs_modulus == pytest.approx(2.0e11)
        assert spec.cross_section_area == pytest.approx(math.pi * 0.001 ** 2 / 4)
    start = time.perf_counter()
    deflections = []
    iters = []
    for m in PAYLOADS:
        load = ExternalLoad.tip_payload(m, geom.gravity_accel)
        sol = solve_static(PotentialModel(geom, specs, load, 0.0), threshold=1e-6)
        assert sol.iterations <= 50
        assert sol.residual <= 1e-6
        deflections.append(sol.deflection_y)
        iters.append(sol.iterations)
    elapsed = time.perf_counter() - start
    increasing = all(b > a for a, b in zip(deflections, deflections[1:]))
    ok = increasing and elapsed < 5.0
    report(3, "static-solve convergence", ok,
           f"iterations {iters}, monotone {increasing}, runtime {elapsed:.2f} s")
    assert increasing
    assert elapsed < 5.0


def test_criterion_4_reference_numbers(calibration):
    geom, specs = calibration.geometry, calibration.tendons
    load = ExternalLoad.tip_payload(3.0, geom.gravity_accel)
    sol = solve_static(PotentialModel(geom, specs, load, 0.0))
    stiffness = 3.0 * geom.gravity_accel / sol.deflection_y
    defl_ok = abs(sol.deflection_y - REFERENCE_DEFLECTION_M) \
        <= 0.25 * REFERENCE_DEFLECTION_M
    stiff_ok = abs(stiffness - REFERENCE_STIFFNESS) <= 0.25 * REFERENCE_STIFFNESS
    report(4, "reference deflection/stiffness", defl_ok and stiff_ok,
           f"deflection {sol.deflection_y * 1e3:.3f} mm vs 24.386 mm, "
           f"stiffness {stiffness:.0f} N/m vs 1200 N/m, tolerance 25%")
    assert defl_ok
    assert stiff_ok


def test_criterion_5_oracle_equivalence(calibration):
    geom, specs = calibration.geometry, calibration.tendons
    start = time.perf_counter()
    cases = random_tip_load_cases(10, 7, geom)
    model = PotentialModel(geom, specs, ExternalLoad(), 0.0)
    summary = equilibrium_report(model, cases)["summary"]
    elapsed = time.perf_counter() - start

    worst = summary["max_delta_fraction_of_length"]
    gap = "n/a" if worst is None else f"{100 * worst:.2e}%"
    ok = summary["within_tolerance"] and elapsed < 60.0
    report(5, "oracle equivalence", ok,
           f"max fingertip gap {gap} of finger length vs 1%, "
           f"compared {summary['compared_cases']} of {len(cases)}, "
           f"runtime {elapsed:.1f} s")
    assert summary["within_tolerance"]
    assert elapsed < 60.0


def test_criterion_6_workspace_properties(calibration):
    geom = calibration.geometry
    start = time.perf_counter()

    from tendonfinger.model import FingerGeometry
    single = FingerGeometry(link_lengths=(geom.link_lengths[0], 0.0, 0.0),
                            guide_radii=geom.guide_radii)
    grid = blank_grid(sweep_extent(single, 400), 5e-4)
    for link, slab in sweep_slabs(single, 400):
        if link == 1:
            mark_cells(grid, slab)
    half_disk = math.pi * geom.link_lengths[0] ** 2 / 2
    area_err = abs(grid.area - half_disk) / half_disk

    def export():
        csv, slabs = BytesIO(), []
        csv.write(CLOUD_CSV_HEADER)
        for link, slab in sweep_slabs(geom, 200):
            write_csv_rows(csv, link, slab)
            slabs.append(slab)
        return csv.getvalue(), np.vstack(slabs)

    (csv_a, pts), (csv_b, _) = export(), export()
    byte_stable = csv_a == csv_b

    cell = 1e-3
    occupied = {(int(math.floor(x / cell)), int(math.floor(y / cell)))
                for x, y in pts}
    rng = np.random.default_rng(6)
    mirror_ok = True
    for x, y in pts[rng.choice(len(pts), 3000, replace=False)]:
        cx, cy = int(math.floor(x / cell)), int(math.floor(-y / cell))
        if not any((cx + dx, cy + dy) in occupied
                   for dx in (-1, 0, 1) for dy in (-1, 0, 1)):
            mirror_ok = False
            break

    elapsed = time.perf_counter() - start
    ok = area_err <= 0.05 and mirror_ok and byte_stable and elapsed < 10.0
    report(6, "workspace properties", ok,
           f"half-disk area err {100 * area_err:.2f}%, mirror {mirror_ok}, "
           f"byte-stable {byte_stable}, runtime {elapsed:.1f} s")
    assert area_err <= 0.05
    assert mirror_ok
    assert byte_stable
    assert elapsed < 10.0


def test_criterion_7_rigid_limit(calibration):
    # Tendon stretch is the finger's only compliance, so under Hooke's
    # law the tip deflection scales as 1/E and vanishes as the tendons
    # become rigid. The bounds follow from that:
    # - bound: criterion 4's window (paper deflection + 25%) scaled by
    #   2e11 / 1e15 to the rigid modulus;
    # - scaling: deflection at 1e15 Pa over the 200 GPa deflection x
    #   2e11 / 1e15 lies in [1, 1.03]; the 3% is the moment-arm change
    #   of the sagged 200 GPa pose (see test_rigid_limit_scaling);
    # - no floor: two more decades of modulus shrink it 100x (0.1%).
    geom = calibration.geometry
    load = ExternalLoad.tip_payload(3.0, geom.gravity_accel)

    def deflection(modulus):
        specs = tuple(
            TendonSpec(modulus, s.cross_section_area, s.rest_length,
                       s.group, s.index)
            for s in calibration.tendons
        )
        return solve_static(PotentialModel(geom, specs, load, 0.0)).deflection_y

    start = time.perf_counter()
    soft, rigid, stiffer = deflection(2e11), deflection(1e15), deflection(1e17)
    elapsed = time.perf_counter() - start

    bound = 1.25 * REFERENCE_DEFLECTION_M * 2e11 / 1e15
    scaling = rigid / (soft * 2e11 / 1e15)
    step = rigid / stiffer
    bound_ok = rigid <= bound
    scaling_ok = 1.0 <= scaling <= 1.03
    step_ok = abs(step - 100.0) <= 0.1
    ok = bound_ok and scaling_ok and step_ok and elapsed < 1.0
    report(7, "rigid-tendon limit", ok,
           f"deflection {rigid:.3e} m vs bound {bound:.2e} m, "
           f"1/E scaling ratio {scaling:.4f} in [1, 1.03], "
           f"1e15/1e17 ratio {step:.4f} vs 100, runtime {elapsed:.3f} s")
    assert bound_ok
    assert scaling_ok
    assert step_ok
    assert elapsed < 1.0


def test_criterion_8_cli_golden(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    res = run_cli("validate", "--config", str(CONFIG_PATH), "--out", str(out_a))
    success_ok = res.returncode == 0
    run_cli("validate", "--config", str(CONFIG_PATH), "--out", str(out_b))
    byte_stable = out_a.read_bytes() == out_b.read_bytes()
    rows = out_a.read_text(encoding="utf-8").strip().split("\n")
    rows_ok = len(rows) == 7 and rows[0].startswith("payload_kg,")

    # The rigid pose at 13.9 mm wraps; the loaded pose the force bends it
    # to does not, so the coupling tendons cannot hold it.
    infeasible = run_cli("solve", "mm:13.9", "--force=30,0",
                         "--config", str(CONFIG_PATH))
    infeasible_ok = (infeasible.returncode == 2
                     and "GeometryInfeasible" in infeasible.stderr)

    nonconv = run_cli("solve", "0", "--force", "0,-29.43", "--max-iter", "2",
                      "--config", str(CONFIG_PATH),
                      "--out", str(tmp_path / "trace.json"))
    nonconv_ok = (nonconv.returncode == 3
                  and (tmp_path / "trace.json").exists())

    ok = success_ok and byte_stable and rows_ok and infeasible_ok and nonconv_ok
    report(8, "cli golden + exit codes", ok,
           f"success {success_ok}, byte-stable {byte_stable}, "
           f"infeasible exit 2 {infeasible_ok}, no-convergence exit 3 {nonconv_ok}")
    assert success_ok and byte_stable and rows_ok
    assert infeasible_ok
    assert nonconv_ok
