"""Checks of the command line in a fresh interpreter,
`python -m tendonfinger ...`, against whichever package that interpreter
imports. Tier-1 runs them on the source tree (PYTHONPATH=src); CI runs
this module a second time against the installed package.
"""

import json
import math
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from tendonfinger.config import default_config_path, load_finger_config
from tendonfinger.model import THETA1_MAX, THETA1_MIN


def run(*args):
    """`python -m tendonfinger *args`, its stdout and stderr as text."""
    return subprocess.run([sys.executable, "-m", "tendonfinger", *args],
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Five JSON documents by command (`docs`), each run once with its
    exit code checked: four from stdout and the workspace sidecar; and
    that workspace run's CSV bytes (`csv`)."""
    out = tmp_path_factory.mktemp("console")
    docs = {}
    for name, code, args in (
        ("solve", 0, ["solve", "0", "--force", "0,-29.43"]),
        # A step-capped solve exits 3 and still writes its trace.
        ("capped", 3, ["solve", "0", "--force", "0,-29.43", "--max-iter", "2"]),
        ("stiffness", 0, ["stiffness", "--payloads", "0.5,3", "--format", "json"]),
        ("oracle", 0, ["oracle-check", "--cases", "10", "--seed", "7"]),
    ):
        res = run(*args)
        assert res.returncode == code, res.stderr
        docs[name] = res.stdout
    res = run("workspace", "--resolution", "50", "--out", str(out / "ws"))
    assert res.returncode == 0, res.stderr
    docs["workspace"] = (out / "ws.json").read_text(encoding="utf-8")
    return SimpleNamespace(docs=docs, csv=(out / "ws.csv").read_bytes(),
                           pgm=(out / "ws.pgm").read_bytes())


def rebuilt_points(resolution: int) -> list:
    """The shipped finger's workspace points built point by point, as
    (link, x, y) arrays: each point gathers its angles and adds l * cos
    and l * sin to zeros, joint by joint."""
    geom = load_finger_config(default_config_path()).geometry
    radii = np.asarray(geom.guide_radii)
    rate = radii[0] / radii
    points = []
    for link in (1, 2, 3):
        n = max(2, math.ceil(resolution ** (2.0 / (link + 1))))
        theta1 = np.linspace(THETA1_MIN, THETA1_MAX, n)
        phi = np.cumsum(theta1[:, None] * rate[None, :], axis=1)
        axes = [np.linspace(0.0, geom.link_lengths[j], n) for j in range(link)]
        grids = np.meshgrid(np.arange(n), *axes, indexing="ij")
        idx = grids[0].ravel()
        x = np.zeros(idx.shape)
        y = np.zeros(idx.shape)
        for j in range(link):
            x += grids[1 + j].ravel() * np.cos(phi[idx, j])
            y += grids[1 + j].ravel() * np.sin(phi[idx, j])
        points.append((link, x, y))
    return points


def rebuilt_csv(points) -> bytes:
    """The CSV of `rebuilt_points`, each coordinate written with `%.9g`."""
    lines = ["link,x_m,y_m"]
    for link, x, y in points:
        for xv, yv in zip(x.tolist(), y.tolist()):
            lines.append(f"{link},{xv:.9g},{yv:.9g}")
    return ("\n".join(lines) + "\n").encode("ascii")


def rebuilt_grid(points, cell: float):
    """The union occupancy grid of `rebuilt_points` as the PGM's bytes,
    its origin and its shape: the origin is the stacked points' min, a
    point's cell floor((v - min) / cell), clipped to the grid."""
    x = np.concatenate([px for _, px, _ in points])
    y = np.concatenate([py for _, _, py in points])
    origin = [float(x.min()), float(y.min())]
    nx = math.floor((x.max() - x.min()) / cell) + 1
    ny = math.floor((y.max() - y.min()) / cell) + 1
    rows = np.clip(np.floor((y - y.min()) / cell).astype(int), 0, ny - 1)
    cols = np.clip(np.floor((x - x.min()) / cell).astype(int), 0, nx - 1)
    cells = set(zip(rows.tolist(), cols.tolist()))
    lines = ["P2", f"{nx} {ny}", "1"]
    for row in reversed(range(ny)):  # the top row is at the largest y
        lines.append(" ".join("1" if (row, col) in cells else "0"
                              for col in range(nx)))
    return ("\n".join(lines) + "\n").encode("ascii"), origin, nx, ny


def test_workspace_csv_is_the_point_by_point_rebuild(written):
    assert written.csv == rebuilt_csv(rebuilt_points(50))


def test_workspace_grid_is_the_point_by_point_rebuild(written):
    # The default 1 mm cells, gridded without the package's grid code.
    pgm, origin, nx, ny = rebuilt_grid(rebuilt_points(50), 1e-3)
    assert written.pgm == pgm
    sidecar = json.loads(written.docs["workspace"])
    assert (sidecar["origin_m"], sidecar["nx"], sidecar["ny"]) == (origin, nx, ny)


def test_step_capped_solve_trace(written):
    # Its two records each hold their pose's three tensions and stretched
    # lengths. The status and the record fields are checked in
    # tests/test_cli.py (TestSolve.test_no_convergence_exit_3_writes_trace).
    trace = json.loads(written.docs["capped"])["trace"]
    assert [rec["iteration"] for rec in trace] == [1, 2], trace
    for rec in trace:
        assert len(rec["tensions_n"]) == len(rec["elongated_lengths_m"]) == 3, rec


def test_oracle_check_certifies_every_drawn_case(written):
    # mu > 0 and a fingertip bound within 1% of finger length.
    length = load_finger_config(default_config_path()).geometry.total_length
    cases = json.loads(written.docs["oracle"])["cases"]
    assert len(cases) == 10, len(cases)
    for case in cases:
        cert = case["certificate"]
        assert cert["mu_nm_per_rad"] > 0, cert
        assert cert["fingertip_bound_m"] <= 0.01 * length, cert


def test_documents_are_indented_json(written):
    # Byte for byte the standard library's indented text of what each
    # document holds.
    for name, text in written.docs.items():
        assert text == json.dumps(json.loads(text), indent=2) + "\n", name


def test_soft_tendons_are_proven_locally(tmp_path):
    # Every E = 4e10 Pa, a fifth of the calibration's: drawn cases 2 and 5
    # lie beyond the global certificate, so the local proof covers them,
    # with the oracle's Newton steps alone, and the report still passes.
    doc = json.loads(default_config_path().read_text(encoding="utf-8"))
    for tendon in doc["tendons"]:
        tendon["youngs_modulus_pa"] = 4e10
    config = tmp_path / "soft_e.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    report = tmp_path / "o_soft.json"
    res = run("oracle-check", "--cases", "6", "--seed", "7",
              "--config", str(config), "--out", str(report))
    assert res.returncode == 0, res.stderr
    cases = json.loads(report.read_text(encoding="utf-8"))["cases"]
    local = [i for i, case in enumerate(cases, 1)
             if "ball_radius_rad" in case["certificate"]]
    assert local == [2, 5], cases
    for case in cases:
        cert = case["certificate"]
        assert (cert["mu_nm_per_rad"] <= 0) is ("ball_radius_rad" in cert), cert
        assert cert["fingertip_bound_m"] is not None, cert
        assert case["energy_search"]["evaluations"] < 21 ** 3, case


# Soft massless tendons (E = 5 GPa) on a finger with no link masses.
SOFT_MASSLESS = {
    "units": {"length": "millimeters", "mass": "grams"},
    "geometry": {"link_lengths": [60, 60, 51],
                 "guide_radii": [11.3955, 9.1164, 7.597],
                 "link_masses": [0, 0, 0]},
    "tendons": [
        {"group": group, "index": index, "youngs_modulus_pa": 5e9, "diameter": 1,
         **({"rest_length": 100} if index == 1 else {})}
        for group in ("flexion", "extension") for index in (1, 2, 3)
    ],
}


SUCCEEDING = [
    ["validate", "--out", "{tmp}/v.csv"],
    ["oracle-check", "--cases", "2", "--out", "{tmp}/o.json"],
    # A spaced negative pair is a value, not an option.
    ["solve", "0", "--force", "-10,-40"],
    ["solve", "--help"],
    ["fk", "mm:-9"],
    ["fk", "-1e-3"],
    ["fk", "-1.e-3"],
    ["solve", "mm:3", "--force=3.4684,3.4684"],
]

# (exit code, arguments, text the stderr holds)
REFUSED = [
    (1, ["fk", "0", "--bogus"], ""),
    (2, ["solve", "mm:13.9", "--force=30,0"], ""),
    (2, ["fk", "mm:-12"], ""),
    (1, ["oracle-check", "--cases", "1", "--seed=-1"], ""),
    (3, ["solve", "0", "--moment=-1e308"], ""),
    (1, ["fk", "0", "--format", "json"], ""),
    (2, ["fk", "-5."], "RangeExceeded"),
    (1, ["fk", "-inf"], "finite"),
    (1, ["workspace", "--resolution", "1", "--out", "{tmp}/w1"], ""),
]


@pytest.mark.parametrize("args", SUCCEEDING, ids=" ".join)
def test_command_succeeds(tmp_path, args):
    res = run(*(a.format(tmp=tmp_path) for a in args))
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("code, args, stderr_holds", REFUSED,
                         ids=[" ".join(args) for _, args, _ in REFUSED])
def test_refusal_exit_code(tmp_path, code, args, stderr_holds):
    res = run(*(a.format(tmp=tmp_path) for a in args))
    assert res.returncode == code, res.stderr
    assert stderr_holds in res.stderr


def test_duplicate_reference_writes_nothing(tmp_path):
    reference = tmp_path / "dup.csv"
    reference.write_text("payload_kg,deflection_mm\n0.5,1.0\n0.5,900.0\n",
                         encoding="utf-8")
    res = run("validate", "--reference", str(reference))
    assert res.returncode == 1, res.stderr
    assert res.stdout == ""


def test_config_error_is_one_line(tmp_path):
    config = tmp_path / "units5.json"
    config.write_text('{"units": 5}', encoding="utf-8")
    res = run("fk", "0", "--config", str(config))
    assert res.returncode == 1
    assert res.stderr.count("\n") == 1, res.stderr


def test_unsorted_payloads_read_monotone():
    res = run("validate", "--payloads", "3,1,2")
    assert res.returncode == 0, res.stderr
    assert "monotone: yes" in res.stderr


def test_soft_tendons_leave_the_joint_range(tmp_path):
    # Under a heavy load a Newton iterate leaves the joint-1 range, and the
    # solve and the table row say where.
    config = tmp_path / "soft.json"
    config.write_text(json.dumps(SOFT_MASSLESS), encoding="utf-8")
    res = run("solve", "mm:11", "--force=0,-50", "--config", str(config))
    assert res.returncode == 2, res.stderr
    assert "RangeExceeded: theta_1 = 1.860063 rad" in res.stderr
    res = run("stiffness", "--q=mm:11", "--payloads", "5.1", "--config", str(config))
    assert res.returncode == 2, res.stderr
    last = res.stdout.splitlines()[-1]
    assert re.search(r"error: RangeExceeded: theta_1 = 1\.860650 rad outside "
                     r"\[-1\.570796, 1\.570796\]$", last), last


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("q, line", [
    ("mm:1000", "error: RangeExceeded: theta_1 = 87.753938 rad outside "
                "[-1.570796, 1.570796]\n"),
    ("mm:-12", "error: GeometryInfeasible: wrap angle 3.2360 rad outside "
               "(0, pi) at theta = -1.3163\n"),
])
def test_out_of_range_table_q_is_refused_once(tmp_path, fmt, q, line):
    # A table's q whose rigid pose leaves the joint range, or that the
    # coupling tendons cannot wrap, is refused before any row, as `solve`
    # refuses it: one error line, no table, no --out file.
    out = tmp_path / f"table.{fmt}"
    for args in (["stiffness", "--payloads", "1,2", f"--q={q}", "--format", fmt],
                 ["stiffness", "--payloads", "1,2", f"--q={q}", "--format", fmt,
                  "--out", str(out)],
                 ["solve", q]):
        res = run(*args)
        assert res.returncode == 2, res.stderr
        assert res.stderr == line
        assert res.stdout == ""
    assert not out.exists()
