"""Machine-speed calibration for timings taken on a shared, drifting box.

On the 2-core reference box an op's latency drifts by up to 50% within a
few minutes as other tenants' load comes and goes, in phases from a
second to several minutes long, so no run length averages it away. A
fixed pure-Python loop timed in the same moments slows down with it.

So the worker takes a `sample()` of the loop at least every 50 ms between
ops (after every op when ops are longer), and each op's latency is
scaled by `KERNEL_REF_S` over the median of the samples taken around it:
timings read as milliseconds on the reference box in its usual state.
The loop is benchmark code, so no change to the program can move it.
Unscaled values are kept in the run metadata.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

# Typical loop time on the reference box (2-core Xeon sandbox).
KERNEL_REF_S = 0.45e-3
# An op's factor comes from the samples taken within this many seconds
# of it, and always from the last sample before and the first after it.
WINDOW_S = 0.25


def _kernel_seconds() -> float:
    """Wall time of a fixed interpreter-bound loop (integer arithmetic, a
    dict, float formatting), with the collector paused so that the
    program's heap size does not leak into it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = 0
        for i in range(3000):
            total += i * i
        table = {}
        for i in range(500):
            table[str(i)] = i
        for i in range(300):
            table[i] = f"{0.1 * i:.9g}"
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def sample() -> float:
    """One calibration sample: the second of two back-to-back loop runs,
    so that caches the program's last op left cold do not count."""
    _kernel_seconds()
    return _kernel_seconds()


def scaled(latencies, starts, samples) -> list[float]:
    """Each latency times KERNEL_REF_S over the median of the samples
    around its op. `starts` are the ops' start times and `samples` holds
    (time, sample seconds) pairs in time order, on the same clock."""
    times = [t for t, _ in samples]
    seconds = [v for _, v in samples]
    out = []
    for start, latency in zip(starts, latencies):
        end = start + latency
        lo = min(bisect.bisect_left(times, start - WINDOW_S),
                 max(0, bisect.bisect_left(times, start) - 1))
        hi = max(bisect.bisect_right(times, end + WINDOW_S),
                 min(len(times), bisect.bisect_right(times, end) + 1))
        out.append(latency * KERNEL_REF_S / statistics.median(seconds[lo:hi]))
    return out
