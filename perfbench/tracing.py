"""Span tracing of the program's layer functions, from outside the program.

`Tracer.install` wraps each function in `TRACED` at every module of the
package that binds it (`model.chain_points` is bound in `model`, `statics`
and `energy`, for example), so calls inside a module are seen as well as
calls across modules. A span is (name, start, end, parent, op id, value,
failed); `value` is a count read from the return value where one exists
(solver passes, oracle evaluations, swept points, CSV bytes). Spans stay
in memory and are written out when the run ends.

`layer_metrics` turns the spans into the per-layer metrics listed in
README.md. Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array

PACKAGE = "tendonfinger"
TRACED = {
    "config": ("load_finger_config",),
    "cli": ("build_parser", "main"),
    "model": ("chain_points", "com_points", "forward_kinematics"),
    "statics": ("solve_static", "net_external_moments", "solve_tensions",
                "elongate_tendons", "update_configuration", "wrap_angles",
                "stiffness_sweep", "solution_to_dict", "sweep_to_csv"),
    "energy": ("find_equilibrium", "balance_residuals", "equilibrium_report"),
    "workspace": ("sweep_workspace", "occupancy_grid", "cloud_to_csv",
                  "grid_to_pgm", "grid_sidecar"),
}

# Counts read from return values. A later version of the program may
# change a return type; the count is then left empty rather than failing.
VALUES = {
    "statics.solve_static": lambda sol: sol.iterations,
    "energy.find_equilibrium": lambda eq: eq.evaluations,
    "workspace.sweep_workspace": lambda cloud: sum(len(p) for p in cloud.points_per_link),
    "workspace.cloud_to_csv": len,  # ASCII text, so characters are bytes
}


class Tracer:
    """Wraps the layer functions and records one span per call.

    Spans are stored by column (a traced statics-mix run holds over half
    a million of them): name, start and end times, parent span index (-1
    for none), op id, and sparse `values` and `failed` entries.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.values: dict[int, int] = {}
        self.failed: set[int] = set()
        self.op_id = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        names, starts, ends, parents, ops = (
            self.names, self.starts, self.ends, self.parents, self.ops)
        values, failed, stack, clock = self.values, self.failed, self._stack, time.perf_counter
        extract = VALUES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed.add(i)
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if extract is not None:
                try:
                    values[i] = extract(result)
                except (AttributeError, TypeError):
                    pass
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for short, names in TRACED.items():
            home = sys.modules.get(f"{PACKAGE}.{short}")
            for fn_name in names:
                original = getattr(home, fn_name, None)
                if original is None:
                    self.missing.append(f"{short}.{fn_name}")
                    continue
                wrapper = self._wrap(f"{short}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,op,value,failed\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i]:.9f},{self.ends[i]:.9f},"
                         f"{self.parents[i]},{self.ops[i]},{self.values.get(i, '')},"
                         f"{int(i in self.failed)}\n")


# Per-layer metrics: (name, unit, better). README.md maps each to the
# end-to-end metric and workload it should move.
LAYER_METRICS = (
    ("config.load_finger_config.ms", "ms", "lower"),
    ("cli.build_parser.ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("cli.main.op_share_pct", "%", "higher"),
    ("model.chain_points.calls_per_pass", "count", "lower"),
    ("model.chain_points.us", "us", "lower"),
    ("model.com_points.us", "us", "lower"),
    ("model.forward_kinematics.us", "us", "lower"),
    ("statics.passes_per_solve", "count", "lower"),
    ("statics.pass_us", "us", "lower"),
    ("statics.solve_static.ms", "ms", "lower"),
    ("statics.net_external_moments.self_us", "us", "lower"),
    ("statics.solve_tensions.self_us", "us", "lower"),
    ("statics.elongate_tendons.self_us", "us", "lower"),
    ("statics.update_configuration.self_us", "us", "lower"),
    ("statics.wrap_angles.calls_per_solve", "count", "lower"),
    ("statics.stiffness_sweep.ms", "ms", "lower"),
    ("statics.solution_to_dict.ms", "ms", "lower"),
    ("statics.sweep_to_csv.ms", "ms", "lower"),
    ("statics.failed_solves", "count", "lower"),
    ("energy.find_equilibrium.ms", "ms", "lower"),
    ("energy.evals_per_case", "count", "lower"),
    ("energy.evals_per_s", "1/s", "higher"),
    ("energy.balance_residuals.ms", "ms", "lower"),
    ("energy.equilibrium_report.self_ms", "ms", "lower"),
    ("workspace.sweep_workspace.ms", "ms", "lower"),
    ("workspace.points_per_op", "count", "higher"),
    ("workspace.occupancy_grid.ms", "ms", "lower"),
    ("workspace.occupancy_grid.calls_per_op", "count", "lower"),
    ("workspace.cloud_to_csv.ms", "ms", "lower"),
    ("workspace.csv_bytes_per_op", "bytes", "lower"),
    ("workspace.grid_to_pgm.ms", "ms", "lower"),
    ("workspace.grid_sidecar.ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def _slope(xs, ys) -> float:
    """Least-squares slope of ys on xs; the plain ratio when xs are all equal."""
    if not xs:
        return 0.0
    if len(set(xs)) < 2:
        return sum(ys) / sum(xs) if sum(xs) else 0.0
    return statistics.linear_regression(xs, ys).slope


def layer_metrics(t: Tracer, ops: int, op_seconds: float) -> dict[str, float]:
    """Per-layer metrics from one traced run of `ops` ops whose latencies
    sum to `op_seconds` (the trace overhead is added by the caller)."""
    names, starts, ends, parents = t.names, t.starts, t.ends, t.parents
    n = len(names)
    child = array("d", bytes(8 * n))  # summed child durations per span
    solve_of = array("q", [-1]) * n  # nearest enclosing solve_static span
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    in_solve = {"model.chain_points": {}, "statics.wrap_angles": {}}
    for i in range(n):  # a parent always precedes its children
        p = parents[i]
        if p >= 0:
            child[p] += ends[i] - starts[i]
            solve_of[i] = p if names[p] == "statics.solve_static" else solve_of[p]
            per = in_solve.get(names[i])
            if per is not None and solve_of[i] >= 0:
                per[solve_of[i]] = per.get(solve_of[i], 0) + 1
    for i in range(n):
        name, dur = names[i], ends[i] - starts[i]
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        self_total[name] = self_total.get(name, 0.0) + dur - child[i]
    values: dict[str, list] = {}
    for i, v in t.values.items():
        if i not in t.failed:
            values.setdefault(names[i], []).append((i, v, ends[i] - starts[i]))

    def mean(name, scale, table=total):
        return table.get(name, 0.0) / count[name] * scale if count.get(name) else 0.0

    def value_total(name):
        return sum(v for _, v, _ in values.get(name, []))

    solves = values.get("statics.solve_static", [])
    passes = [v for _, v, _ in solves]
    chain_calls = [in_solve["model.chain_points"].get(i, 0) for i, _, _ in solves]
    wrap_calls = sum(in_solve["statics.wrap_angles"].get(i, 0) for i, _, _ in solves)
    evals = values.get("energy.find_equilibrium", [])
    per_op = 1.0 / ops if ops else 0.0
    main_seconds = total.get("cli.main", 0.0)

    m = {
        "config.load_finger_config.ms": mean("config.load_finger_config", 1e3),
        "cli.build_parser.ms": mean("cli.build_parser", 1e3),
        "cli.main.self_ms": mean("cli.main", 1e3, self_total),
        "cli.main.op_share_pct": 100.0 * main_seconds / op_seconds if op_seconds else 0.0,
        "model.chain_points.calls_per_pass": round(_slope(passes, chain_calls), 6),
        "model.chain_points.us": mean("model.chain_points", 1e6),
        "model.com_points.us": mean("model.com_points", 1e6),
        "model.forward_kinematics.us": mean("model.forward_kinematics", 1e6),
        "statics.passes_per_solve": round(sum(passes) / len(passes), 6) if passes else 0.0,
        "statics.pass_us": _slope(passes, [d for _, _, d in solves]) * 1e6,
        "statics.solve_static.ms": mean("statics.solve_static", 1e3),
        "statics.wrap_angles.calls_per_solve": wrap_calls / len(solves) if solves else 0.0,
        "statics.stiffness_sweep.ms": mean("statics.stiffness_sweep", 1e3),
        "statics.solution_to_dict.ms": mean("statics.solution_to_dict", 1e3),
        "statics.sweep_to_csv.ms": mean("statics.sweep_to_csv", 1e3),
        "statics.failed_solves": sum(1 for i in t.failed
                                     if names[i] == "statics.solve_static"),
        "energy.find_equilibrium.ms": mean("energy.find_equilibrium", 1e3),
        "energy.evals_per_case": (value_total("energy.find_equilibrium") / len(evals)
                                  if evals else 0.0),
        "energy.evals_per_s": (value_total("energy.find_equilibrium")
                               / sum(d for _, _, d in evals) if evals else 0.0),
        "energy.balance_residuals.ms": mean("energy.balance_residuals", 1e3),
        "energy.equilibrium_report.self_ms": mean("energy.equilibrium_report", 1e3, self_total),
        "workspace.sweep_workspace.ms": mean("workspace.sweep_workspace", 1e3),
        "workspace.points_per_op": value_total("workspace.sweep_workspace") * per_op,
        "workspace.occupancy_grid.ms": mean("workspace.occupancy_grid", 1e3),
        "workspace.occupancy_grid.calls_per_op": count.get("workspace.occupancy_grid", 0) * per_op,
        "workspace.cloud_to_csv.ms": mean("workspace.cloud_to_csv", 1e3),
        "workspace.csv_bytes_per_op": value_total("workspace.cloud_to_csv") * per_op,
        "workspace.grid_to_pgm.ms": mean("workspace.grid_to_pgm", 1e3),
        "workspace.grid_sidecar.ms": mean("workspace.grid_sidecar", 1e3),
    }
    for name in ("net_external_moments", "solve_tensions", "elongate_tendons",
                 "update_configuration"):
        m[f"statics.{name}.self_us"] = mean(f"statics.{name}", 1e6, self_total)
    return m
