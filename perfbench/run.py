"""Benchmark entry point for the tendonfinger toolkit.

    python3 perfbench/run.py --workload statics-mix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. `--trace 0` measures set-up time
(fresh interpreters that import `tendonfinger.cli` and load the shipped
config) and then runs the workload untraced for `--seconds` in a fresh
worker process; it prints the end-to-end metrics. `--trace 1` runs the
same op stream untraced and then traced, each for half of `--seconds`,
and prints the per-layer metrics with the tracing overhead. The last
line of stdout is the result JSON; the line before it (`perfbench-meta`)
holds the run metadata. Both are also saved under `perfbench/out/`.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

# Set-up launches per run: a dropped warm-up launch (it may compile
# bytecode), then half before and half after the workload, so that the
# median does not hang on one moment's machine speed.
SETUP_BEFORE, SETUP_AFTER = 5, 4
SETUP_SNIPPET = (
    "import tendonfinger.cli\n"
    "from tendonfinger.config import default_config_path, load_finger_config\n"
    "load_finger_config(default_config_path())\n"
)
# One client on a 2-core box: keep BLAS/OpenMP pools from adding threads.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
# What one work item is on each workload (the `work_items_per_s` metric).
ITEMS = {"statics-mix": "solves_per_s", "oracle-check": "oracle_cases_per_s",
         "workspace-export": "points_per_s"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "work_items_per_s": "1/s",
}


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    return env


def launch_seconds(env: dict) -> float:
    """Wall seconds of one fresh interpreter that imports the CLI and loads
    the shipped config. `wait()` without a timeout blocks in waitpid;
    with a timeout it polls at up to 50 ms steps, which would quantize
    the measurement, so a timer kills a launch that hangs instead."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_SNIPPET], env=env,
                            cwd=ROOT, stdin=subprocess.DEVNULL)
    killer = threading.Timer(60.0, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"set-up launch exited with code {code}")
    return elapsed


def scaled_launch(env: dict) -> tuple[float, float]:
    """(scaled, raw) seconds of one set-up launch; the scale comes from
    three speed samples taken right after it."""
    raw = launch_seconds(env)
    near = [speed.sample() for _ in range(3)]
    return raw * speed.KERNEL_REF_S / statistics.median(near), raw


def run_worker(env: dict, workload: str, seed: int, seconds: float,
               trace: bool, ops: int | None) -> dict:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    fd, result_path = tempfile.mkstemp(suffix=".json", dir=OUT_DIR)
    os.close(fd)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace)), "--result", result_path]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    try:
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=seconds + 100,
                       stdin=subprocess.DEVNULL)
        return json.loads(Path(result_path).read_text(encoding="utf-8"))
    finally:
        os.unlink(result_path)


def percentile(values, q: int) -> float:
    """q-th percentile, linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(res: dict, scale: bool = True) -> dict:
    """Loop metrics of one worker, scaled to reference speed unless not
    `scale`."""
    lat = res["latencies_s"]
    if scale:
        lat = speed.scaled(lat, res["starts_s"], res["speed_samples"])
    busy = sum(lat)
    return {
        "throughput_ops_s": len(lat) / busy,
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "latency_p90_ms": percentile(lat, 90) * 1e3,
        "peak_rss_mb": res["peak_rss_mb"],
        "work_items_per_s": sum(res["items"]) / busy,
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_digest() -> str:
    """SHA-256 over the package sources, since a checkout may lack git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "tendonfinger").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description="tendonfinger benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--ops", type=int, default=None,
                    help="run exactly this many ops per worker (self-test)")
    args = ap.parse_args()

    if not (SRC / "tendonfinger" / "cli.py").is_file():
        print(f"perfbench: no tendonfinger sources under {SRC}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2

    env = child_env()
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "git_commit": git_commit(),
        "source_sha256": source_digest(), "thread_env": THREAD_ENV,
    }

    if args.trace == 0:
        launch_seconds(env)
        setup = [scaled_launch(env) for _ in range(SETUP_BEFORE)]
        res = run_worker(env, args.workload, args.seed, args.seconds, False, args.ops)
        setup += [scaled_launch(env) for _ in range(SETUP_AFTER)]
        metrics = {"setup_s": statistics.median(s for s, _ in setup), **end_to_end(res)}
        units = END_TO_END_UNITS
        meta.update(setup_samples_s=[raw for _, raw in setup],
                    unscaled={"setup_s": statistics.median(raw for _, raw in setup),
                              **end_to_end(res, scale=False)},
                    speed_sample_median_s=statistics.median(
                        v for _, v in res["speed_samples"]),
                    speed_samples=len(res["speed_samples"]))
        meta[ITEMS[args.workload]] = metrics["work_items_per_s"]
        runs = [res]
    else:
        half = args.seconds / 2.0
        plain = run_worker(env, args.workload, args.seed, half, False, args.ops)
        traced = run_worker(env, args.workload, args.seed, half, True, args.ops)
        metrics = dict(traced["layers"])
        rates = [end_to_end(r)["throughput_ops_s"] for r in (plain, traced)]
        metrics["trace.overhead_pct"] = 100.0 * (1.0 - rates[1] / rates[0])
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        meta.update(untraced_throughput_ops_s=rates[0],
                    traced_throughput_ops_s=rates[1],
                    spans=traced["spans"],
                    untraced_functions=traced["untraced_functions"])
        runs = [plain, traced]

    last = runs[-1]
    attempted = sum(len(r["latencies_s"]) for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    meta.update(
        numpy=last["numpy"],
        latency_samples=len(last["latencies_s"]),
        op_kinds={k: last["kinds"].count(k) for k in sorted(set(last["kinds"]))},
        error_rate=len(failures) / attempted,
        failures=failures[:5],
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "result": result}, indent=1), encoding="utf-8")
    print("perfbench-meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
