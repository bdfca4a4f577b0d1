"""One workload in one fresh interpreter: a closed loop with one client.

Each op is one in-process `tendonfinger.cli.main(argv)` call writing to a
scratch directory; the client checks the output and only then sends the
next op. Only the `cli.main` call is timed. The worker writes one JSON
document to `--result`; `run.py` turns it into the benchmark's metrics.

    python3 perfbench/worker.py --workload statics-mix --seed 1 \
        --seconds 5 --trace 0 --result out.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
# Seconds between machine-speed samples (one per op when ops are longer).
CALIBRATION_INTERVAL_S = 0.05


def run(workload: str, seed: int, seconds: float, trace: bool,
        max_ops: int | None) -> dict:
    import numpy
    import tendonfinger
    from tendonfinger import cli

    source = Path(tendonfinger.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"tendonfinger imported from {source}, not from {ROOT / 'src'}")

    stream = workloads.ops(workload, seed, ROOT)
    tracer = tracing.Tracer() if trace else None
    starts, latencies, kinds, items, failures = [], [], [], [], []
    samples = [(time.perf_counter(), speed.sample())]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    if tracer is not None:
        tracer.install()
    try:
        start = last_sample = time.perf_counter()
        deadline = start + seconds
        while (len(latencies) < max_ops if max_ops is not None
               else time.perf_counter() < deadline):
            op = next(stream)
            out = scratch / ("ws" if op.kind == "workspace" else "op.out")
            argv = [*op.argv, "--out", str(out)]
            if tracer is not None:
                tracer.op_id = len(latencies)
            err = io.StringIO()
            problem = None
            with contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = cli.main(argv)
                except (Exception, SystemExit) as exc:
                    code = None
                    problem = traceback.format_exception_only(exc)[-1].strip()
                t1 = time.perf_counter()
            if problem is None and code != 0:
                problem = f"exit code {code}: {err.getvalue().strip()[:300]}"
            if problem is None:
                problem = checks.check_op(op, out)
            if problem is not None:
                failures.append({"op": len(latencies), "argv": argv[:-2],
                                 "problem": problem})
            starts.append(t0)
            latencies.append(t1 - t0)
            kinds.append(op.kind)
            items.append(op.items)
            for path in scratch.iterdir():
                path.unlink()
            if time.perf_counter() - last_sample >= CALIBRATION_INTERVAL_S:
                last_sample = time.perf_counter()
                samples.append((last_sample, speed.sample()))
        elapsed = time.perf_counter() - start
        samples.append((time.perf_counter(), speed.sample()))
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)

    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "latencies_s": latencies,
        "kinds": kinds,
        "items": items,
        "failures": failures,
        "elapsed_s": elapsed,
        "starts_s": starts,
        "speed_samples": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, len(latencies),
                                                 sum(latencies))
        result["untraced_functions"] = tracer.missing
        result["spans"] = len(tracer.names)
        tracer.write(OUT_DIR / f"{workload}.spans.csv")
    return result


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=None,
                    help="run exactly this many ops instead of --seconds")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.ops)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
