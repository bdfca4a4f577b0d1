"""Self-test of the benchmark itself (not part of the package's test suite).

    python3 perfbench/selftest.py

Checks that a tiny run of every workload emits exactly the metrics that
BENCHMARK.json names, with their units; that the output checks flag
deliberately corrupted outputs; that the exact counts repeat between two
runs of the same seed; and that the benchmark refuses to run without the
package sources. Takes under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

# Counts that must repeat exactly between two runs of the same ops.
EXACT_COUNTS = (
    "statics.passes_per_solve",
    "model.chain_points.calls_per_pass",
    "energy.evals_per_case",
    "workspace.points_per_op",
    "workspace.csv_bytes_per_op",
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_OPS = {"statics-mix": 40, "oracle-check": 5, "workspace-export": 3}


def bench(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT):
    """Run run.py with a fixed op count; (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "60", "--trace", str(trace),
         "--ops", str(TINY_OPS[workload])],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


class TinyRuns(unittest.TestCase):
    """One tiny run per workload and trace mode, shared by the tests."""

    results: dict = {}

    @classmethod
    def setUpClass(cls):
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                code, lines = bench(workload, trace)
                assert code == 0, f"{workload} trace {trace} exited {code}"
                cls.results[workload, trace] = json.loads(lines[-1])
            code, lines = bench(workload, 1)
            cls.results[workload, "again"] = json.loads(lines[-1])

    def test_every_named_metric_with_its_unit(self):
        for (workload, trace), res in self.results.items():
            section = "end_to_end" if trace == 0 else "per_layer"
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                want = {m["name"]: m["unit"] for m in SPEC[section]}
                got = {name: m["unit"] for name, m in res["metrics"].items()}
                self.assertEqual(got, want)
                for name, m in res["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)
                    if section == "end_to_end":
                        self.assertGreater(m["value"], 0.0, name)

    def test_spans_account_for_the_op_latency(self):
        for workload in workloads.WORKLOADS:
            share = self.results[workload, 1]["metrics"]["cli.main.op_share_pct"]["value"]
            with self.subTest(workload=workload):
                self.assertGreater(share, 90.0)
                self.assertLessEqual(share, 100.0)

    def test_exact_counts_repeat(self):
        exercised = {
            "statics-mix": ("statics.passes_per_solve", "model.chain_points.calls_per_pass"),
            "oracle-check": ("energy.evals_per_case",),
            "workspace-export": ("workspace.points_per_op", "workspace.csv_bytes_per_op"),
        }
        for workload in workloads.WORKLOADS:
            first = self.results[workload, 1]["metrics"]
            again = self.results[workload, "again"]["metrics"]
            for name in EXACT_COUNTS:
                with self.subTest(workload=workload, metric=name):
                    self.assertEqual(first[name]["value"], again[name]["value"])
            for name in exercised[workload]:
                with self.subTest(workload=workload, metric=name):
                    self.assertGreater(first[name]["value"], 0)


class CorruptedOutputs(unittest.TestCase):
    """The output checks accept real outputs and flag damaged copies."""

    def setUp(self):
        from tendonfinger import cli
        self.cli = cli
        OUT_DIR.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(dir=OUT_DIR))
        self.addCleanup(shutil.rmtree, self.dir)

    def produce(self, op):
        out = self.dir / ("ws" if op.kind == "workspace" else "op.out")
        with contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(self.cli.main([*op.argv, "--out", str(out)]), 0)
        self.assertIsNone(checks.check_op(op, out))
        return out

    def first_op(self, workload, kind):
        return next(op for op in workloads.ops(workload, 3, ROOT) if op.kind == kind)

    def assertFlagged(self, op, out, edit, path=None):
        """Apply `edit` to one output file; the check must then fail."""
        path = path or out
        good = path.read_text()
        path.write_text(edit(good))
        self.assertIsNotNone(checks.check_op(op, out))
        path.write_text(good)

    def test_solve(self):
        op = self.first_op("statics-mix", "solve")
        out = self.produce(op)
        self.assertFlagged(op, out, lambda t: t.replace('"ok"', '"no_convergence"', 1))
        self.assertFlagged(op, out, lambda t: json.dumps({**json.loads(t), "residual_m": 1.0}))
        self.assertFlagged(
            op, out, lambda t: json.dumps({**json.loads(t), "deflection_y_m": float("nan")}))
        self.assertFlagged(op, out, lambda t: t[: len(t) // 2])

    def test_tables(self):
        op = self.first_op("statics-mix", "table-csv")
        out = self.produce(op)
        self.assertFlagged(op, out, drop_last_line)
        self.assertFlagged(op, out, lambda t: t.replace(",ok", ",error: X", 1))
        op = self.first_op("statics-mix", "table-json")
        out = self.produce(op)
        self.assertFlagged(op, out, lambda t: json.dumps(json.loads(t)[1:]))
        self.assertFlagged(op, out, lambda t: t.replace('"ok"', '"error: X"', 1))

    def test_oracle(self):
        op = self.first_op("oracle-check", "oracle")
        out = self.produce(op)

        def error_case(t):
            doc = json.loads(t)
            doc["cases"][0]["energy_search"] = {"error": "BoundaryMinimum: x"}
            return json.dumps(doc)

        def drop_case(t):
            doc = json.loads(t)
            doc["cases"].pop()
            return json.dumps(doc)

        self.assertFlagged(op, out, error_case)
        self.assertFlagged(op, out, drop_case)

    def test_workspace(self):
        op = workloads.Op(("workspace", "--resolution", "60", "--cell", "0.002"),
                          "workspace", workloads.workspace_points(60))
        out = self.produce(op)

        def widen_pgm(t):
            lines = t.split("\n")
            nx, ny = lines[1].split()
            lines[1] = f"{int(nx) + 1} {ny}"
            return "\n".join(lines)

        def widen_sidecar(t):
            doc = json.loads(t)
            doc["nx"] += 1
            return json.dumps(doc)

        self.assertFlagged(op, out, drop_last_line, out.with_suffix(".csv"))
        self.assertFlagged(op, out, drop_last_line, out.with_suffix(".pgm"))
        self.assertFlagged(op, out, widen_pgm, out.with_suffix(".pgm"))
        self.assertFlagged(op, out, widen_sidecar, out.with_suffix(".json"))


def drop_last_line(text: str) -> str:
    return text.rstrip("\n").rsplit("\n", 1)[0] + "\n"


class SpeedScaling(unittest.TestCase):
    def test_each_op_takes_the_speed_around_it(self):
        ref = speed.KERNEL_REF_S
        # One op per second; the box halves its speed after 20 s.
        samples = [(t + 0.9, ref if t < 20 else 2 * ref) for t in range(-1, 40)]
        out = speed.scaled([0.5] * 40, [float(t) for t in range(40)], samples)
        self.assertEqual(out[:19], [0.5] * 19)
        self.assertEqual(out[21:], [0.25] * 19)


class NoSources(unittest.TestCase):
    def test_refuses_without_package_sources(self):
        OUT_DIR.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(dir=OUT_DIR))
        self.addCleanup(shutil.rmtree, bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, lines = bench("statics-mix", 0, cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main(verbosity=2)
