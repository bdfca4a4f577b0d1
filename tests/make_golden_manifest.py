"""Write `tests/golden_manifest.json`, which `tests/test_golden_manifest.py`
replays byte for byte.

    PYTHONPATH=src python tests/make_golden_manifest.py

The lines, in this order:
- `argv_corpus()` of `tests/test_cli.py`, the shipped calibration's path
  given as "{config}";
- the first 400 `statics-mix` and 200 `oracle-check` ops of
  `perfbench/workloads.py` at seed 1, each with `--out {tmp}/op.out`, as
  the benchmark's worker runs them (the manifest holds them as literal
  argv, so the replay imports nothing from `perfbench/`);
- `REFUSAL_LINES`, one line per refusal of the command line that the
  lines above do not reach;
- 100 `solve` lines drawn from one seeded `random.Random`: q 0, -0,
  mm:-0.0 or within +-1.5 mm, force components within +-80 N, and at
  random a moment, a point on the distal link (`--at`), a two-step cap
  and `--out`.

Run it on the commit whose bytes the manifest pins; a change that moves
bytes on purpose reruns it and names the entries that changed.
"""

import json
import random
import sys
import tempfile
from itertools import islice
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
sys.path[:0] = [str(TESTS), str(ROOT)]

from tendonfinger.config import default_config_path  # noqa: E402

from perfbench import workloads  # noqa: E402
from test_cli import argv_corpus  # noqa: E402
from test_golden_manifest import COLUMNS, MANIFEST, python_version, record  # noqa: E402

# Lines that the command line refuses with a named error and exit code.
REFUSAL_LINES = [
    ["oracle-check", "--cases", "0"], ["oracle-check", "--seed=-3"],
    ["solve", "0", "--threshold", "0"], ["solve", "0", "--max-iter", "0"],
    ["stiffness", "--payloads", ""], ["stiffness", "--payloads=1,-2"],
    ["validate", "--payloads", ","], ["solve", "0", "--force", "1,2,3"],
    ["solve", "0", "--force", "1"], ["solve", "0", "--at", "0.1,0.02,7"],
    ["solve", "0", "--at", "x,y"], ["fk", "mm:x"], ["fk", "0.02"],
    ["solve", "0.02"], ["solve", "mm:-12"], ["stiffness", "--payloads", "1", "--q=mm:-12"],
    ["workspace"], ["workspace", "--out", "{tmp}/"], ["workspace", "--out", "{tmp}/ws",
                                                      "--resolution", "1"],
    ["workspace", "--out", "{tmp}/ws", "--cell", "0"],
    ["validate", "--reference", "{tmp}"], ["fk", "0", "--config", "{tmp}/none.json"],
    ["solve", "0", "--out", "{tmp}/no/such/dir"],
]
SOLVE_LINES = 100
SOLVE_SEED = 41


def solve_lines(n=SOLVE_LINES, seed=SOLVE_SEED):
    """`n` drawn `solve` lines; values that may be negative are given in
    `=` form, as the benchmark's are."""
    rng = random.Random(seed)
    geometry = workloads.shipped_geometry(ROOT)
    lines = []
    zeros = ("0", "-0", "mm:-0.0")
    for i in range(n):
        # The first six lines load each signed zero q at the tip and at a point.
        q_text = zeros[i % 3] if i < 6 else rng.choice(
            (*zeros, f"mm:{rng.uniform(-1.5, 1.5):.4f}"))
        q = 0.0 if q_text in zeros else float(q_text[3:]) * 1e-3
        argv = ["solve", q_text,
                f"--force={rng.uniform(-80.0, 80.0):.6g},{rng.uniform(-80.0, 80.0):.6g}"]
        if rng.random() < 0.5:
            argv.append(f"--moment={rng.uniform(-0.05, 0.05):.6g}")
        if (3 <= i < 6) or (i >= 6 and rng.random() < 0.5):
            x, y = workloads.distal_point(q, rng.uniform(0.0, 1.0), *geometry)
            argv.append(f"--at={x:.9g},{y:.9g}")
        if rng.random() < 0.1:
            argv += ["--max-iter", "2"]  # a step-capped solve writes its trace
        if rng.random() < 0.25:
            argv += ["--out", "{tmp}/o"]
        lines.append(argv)
    return lines


def benchmark_lines(workload, count):
    return [[*op.argv, "--out", "{tmp}/op.out"]
            for op in islice(workloads.ops(workload, 1, ROOT), count)]


def main():
    config = str(default_config_path())
    lines = [[a.replace(config, "{config}") for a in argv] for argv in argv_corpus()]
    lines += benchmark_lines("statics-mix", 400)
    lines += benchmark_lines("oracle-check", 200)
    lines += REFUSAL_LINES
    lines += solve_lines()
    with tempfile.TemporaryDirectory() as tmp:
        entries = [record(argv, Path(tmp)) for argv in lines]
    body = ",\n".join(json.dumps(entry, separators=(",", ":")) for entry in entries)
    MANIFEST.write_text(
        f'{{"python":"{python_version()}","columns":{COLUMNS},"entries":[\n{body}\n]}}\n',
        encoding="utf-8")
    print(f"wrote {len(entries)} entries to {MANIFEST}")


if __name__ == "__main__":
    main()
