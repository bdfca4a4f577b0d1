"""Seeded operation streams for the three benchmark workloads.

Each workload is an endless stream of `Op`s drawn from one seed, so the
same seed always yields the same inputs. An op is one `tendonfinger`
command line (without `--out`, which the worker appends) plus what the
output checks need to know about it.

Input ranges are chosen so that every draw solves at the parent commit of
this benchmark; they are ranges, never filters on the program's answers:

* `solve`: q in +-1.5 mm, payload 0.5-3 kg, force within +-20 degrees of
  straight down, moment +-0.03 N m, and half the time the force acts at a
  point on the distal link instead of the fingertip. A +-5 mm x +-60 degree
  draw fails with TensionInfeasible on about 15% of solves; this range
  had no failure in 40,000 draws.
* tables: 2-24 payloads of 0.5-3 kg hanging at the tip, q in +-1.5 mm.
* `oracle-check`: the program draws its own cases from `--seed`; seeds
  0-399 at 4 cases (whose first k cases are the k-case draws) were all
  checked to produce no error entry.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("statics-mix", "oracle-check", "workspace-export")

SOLVE_THRESHOLD = "1e-6"
Q_MAX_MM = 1.5
PAYLOAD_KG = (0.5, 3.0)
CONE_HALF_ANGLE_DEG = 20.0
MOMENT_MAX_NM = 0.03
TABLE_PAYLOADS = (2, 24)
ORACLE_SEEDS = 400
RESOLUTION = (100, 400)
CELLS_M = ("0.0005", "0.001", "0.002")
# Steps of Roberts' R2 low-discrepancy sequence: 1/g and 1/g**2 for the
# plastic number g, the real root of g**3 = g + 1.
_PLASTIC = 1.324717957244746
R2_STEPS = (1.0 / _PLASTIC, 1.0 / _PLASTIC ** 2)

# Ops per shuffled block. statics-mix: 9 solves and 11 tables, so the
# median op is a small table rather than the boundary between two kinds.
# oracle-check: k = 1, 2, 3, 3, 4, so the median lies inside the k = 3
# ops and the 90th percentile inside the k = 4 ops.
STATICS_BLOCK = ("solve",) * 9 + ("table",) * 11
ORACLE_BLOCK = (1, 2, 3, 3, 4)


@dataclass(frozen=True)
class Op:
    """One CLI call: its arguments, its kind and what its output must hold.

    Values that may be negative are passed as `--flag=value`, since
    argparse reads a separate "-5,-16" as an option name.
    """

    argv: tuple[str, ...]
    kind: str  # "solve", "table-csv", "table-json", "oracle" or "workspace"
    items: int  # load cases solved, oracle cases, or points exported
    expect: dict = field(default_factory=dict)


def shipped_geometry(root: Path) -> tuple[list[float], list[float]]:
    """Link lengths and guide radii (meters) of the shipped calibration."""
    doc = json.loads(
        (root / "src" / "tendonfinger" / "data" / "default.json").read_text()
    )
    scale = 1e-3 if doc["units"]["length"] == "millimeters" else 1.0
    geom = doc["geometry"]
    return ([v * scale for v in geom["link_lengths"]],
            [v * scale for v in geom["guide_radii"]])


def distal_point(q: float, fraction: float, lengths, radii) -> tuple[float, float]:
    """Base-frame point `fraction` of the way along the distal link at the
    rigid pose theta_i = q / R_i."""
    x = y = phi = 0.0
    for i, (length, radius) in enumerate(zip(lengths, radii)):
        phi += q / radius
        reach = length * fraction if i == 2 else length
        x += reach * math.cos(phi)
        y += reach * math.sin(phi)
    return x, y


def _solve_op(rng: random.Random, geometry) -> Op:
    q = rng.uniform(-Q_MAX_MM, Q_MAX_MM) * 1e-3
    weight = rng.uniform(*PAYLOAD_KG) * 9.81
    angle = math.radians(-90.0 + rng.uniform(-CONE_HALF_ANGLE_DEG,
                                             CONE_HALF_ANGLE_DEG))
    argv = ["solve", f"mm:{q * 1e3:.4f}",
            f"--force={weight * math.cos(angle):.6g},{weight * math.sin(angle):.6g}",
            f"--moment={rng.uniform(-MOMENT_MAX_NM, MOMENT_MAX_NM):.6g}",
            "--threshold", SOLVE_THRESHOLD]
    if rng.random() < 0.5:
        x, y = distal_point(q, rng.uniform(0.5, 1.0), *geometry)
        argv.append(f"--at={x:.9g},{y:.9g}")
    return Op(tuple(argv), "solve", 1, {"threshold": float(SOLVE_THRESHOLD)})


def _table_op(rng: random.Random) -> Op:
    payloads = [f"{rng.uniform(*PAYLOAD_KG):.3f}"
                for _ in range(rng.randint(*TABLE_PAYLOADS))]
    fmt = rng.choice(("csv", "json"))
    if rng.random() < 0.5:
        argv = ["stiffness", f"--q=mm:{rng.uniform(-Q_MAX_MM, Q_MAX_MM):.4f}"]
    else:
        argv = ["validate"]
    argv += ["--payloads", ",".join(payloads), "--format", fmt,
             "--threshold", SOLVE_THRESHOLD]
    return Op(tuple(argv), f"table-{fmt}", len(payloads), {"payloads": payloads})


def workspace_points(resolution: int) -> int:
    """Points of a sweep: link i gets max(2, ceil(r ** (2 / (i + 1))))
    samples on each of its i + 1 variables (see the workspace docs)."""
    return sum(
        max(2, math.ceil(resolution ** (2.0 / (link + 1)))) ** (link + 1)
        for link in (1, 2, 3)
    )


def _statics_mix(rng: random.Random, geometry):
    while True:
        block = list(STATICS_BLOCK)
        rng.shuffle(block)
        for kind in block:
            yield _solve_op(rng, geometry) if kind == "solve" else _table_op(rng)


def _oracle_check(rng: random.Random):
    while True:
        block = list(ORACLE_BLOCK)
        rng.shuffle(block)
        for k in block:
            argv = ("oracle-check", "--cases", str(k),
                    "--seed", str(rng.randrange(ORACLE_SEEDS)))
            yield Op(argv, "oracle", k, {"cases": k})


def _workspace_export(rng: random.Random):
    # The first op is the largest one, so the run's peak memory does not
    # depend on how many ops fit in it. After it, (resolution, cell) pairs
    # follow Roberts' two-dimensional golden-ratio sequence from a seeded
    # start, so the ops of a run cover the 100-400 x cell plane evenly
    # whatever the seed, their slowest tenth included.
    lo, hi = RESOLUTION
    yield Op(("workspace", "--resolution", str(hi), "--cell", CELLS_M[0]),
             "workspace", workspace_points(hi))
    start_r, start_c = rng.random(), rng.random()
    i = 0
    while True:
        r = lo + round((hi - lo) * ((start_r + i * R2_STEPS[0]) % 1.0))
        cell = CELLS_M[int(len(CELLS_M) * ((start_c + i * R2_STEPS[1]) % 1.0))]
        i += 1
        yield Op(("workspace", "--resolution", str(r), "--cell", cell),
                 "workspace", workspace_points(r))


def ops(workload: str, seed: int, root: Path):
    """Endless op stream of `workload`, determined by `seed`."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "statics-mix":
        return _statics_mix(rng, shipped_geometry(root))
    if workload == "oracle-check":
        return _oracle_check(rng)
    if workload == "workspace-export":
        return _workspace_export(rng)
    raise ValueError(f"unknown workload {workload!r}")
