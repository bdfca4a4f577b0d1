"""Output checks for benchmark ops.

No golden bytes are pinned: each check tests properties that any correct
build must satisfy, so a model change that moves the numbers (a different
elastic model, say) passes while a broken output does not. A check
returns None when the output is good and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
from pathlib import Path


def _finite_numbers(value, path="$"):
    """Yield the path of every non-finite or non-numeric leaf."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _finite_numbers(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _finite_numbers(item, f"{path}[{i}]")
    elif isinstance(value, bool) or value is None:
        yield path
    elif isinstance(value, (int, float)):
        if not math.isfinite(value):
            yield path
    elif not isinstance(value, str):
        yield path


def check_solve(text: str, expect: dict) -> str | None:
    doc = json.loads(text)
    if doc.get("status") != "ok":
        return f"status {doc.get('status')!r}"
    if not doc["residual_m"] <= expect["threshold"]:
        return f"residual {doc['residual_m']} above {expect['threshold']}"
    trace = doc.get("trace") or []
    # The first pass has no previous pass to differ from.
    bad = [p for p in _finite_numbers(doc)
           if not (trace and p == "$.trace[0].residual_m")]
    if bad:
        return f"non-finite value at {bad[0]}"
    return None


def _rows_ok(rows, payloads) -> str | None:
    if len(rows) != len(payloads):
        return f"{len(rows)} rows for {len(payloads)} payloads"
    for (payload, status, numbers), sent in zip(rows, payloads):
        if status != "ok":
            return f"row {sent} status {status!r}"
        if abs(payload - float(sent)) > 5e-4:
            return f"row for payload {sent} reads {payload}"
        if not all(math.isfinite(v) for v in numbers):
            return f"row {sent} has a non-finite value"
    return None


def check_table_csv(text: str, expect: dict) -> str | None:
    lines = text.splitlines()
    header = lines[0].split(",")
    cols = {name: i for i, name in enumerate(header)}
    numeric = ("deflection_mm", "stiffness_N_per_m")
    rows = []
    for line in lines[1:]:
        cells = line.split(",", len(header) - 1)
        rows.append((float(cells[cols["payload_kg"]]), cells[cols["status"]],
                     [float(cells[cols[n]]) for n in numeric]))
    return _rows_ok(rows, expect["payloads"])


def check_table_json(text: str, expect: dict) -> str | None:
    rows = [
        (r["payload_kg"], r["status"],
         [float("nan") if r[n] is None else r[n]
          for n in ("deflection_mm", "stiffness_N_per_m")])
        for r in json.loads(text)
    ]
    return _rows_ok(rows, expect["payloads"])


def check_oracle(text: str, expect: dict) -> str | None:
    cases = json.loads(text)["cases"]
    if len(cases) != expect["cases"]:
        return f"{len(cases)} cases for --cases {expect['cases']}"
    for i, case in enumerate(cases):
        for part in ("fixed_point", "energy_search"):
            if "error" in case.get(part, {"error": "missing"}):
                return f"case {i} {part} error"
        if not math.isfinite(case["fingertip_delta_mm"]):
            return f"case {i} fingertip gap is not finite"
    return None


def check_workspace(base: Path, points: int) -> str | None:
    """CSV rows equal the sample-count product; PGM matches its sidecar."""
    with open(base.with_suffix(".csv"), "rb") as fh:
        newlines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    rows = newlines - 1  # the header
    if rows != points:
        return f"{rows} CSV rows, expected {points}"
    side = json.loads(base.with_suffix(".json").read_text())
    tokens = base.with_suffix(".pgm").read_text().split()
    if tokens[0] != "P2":
        return f"PGM magic {tokens[0]!r}"
    nx, ny = int(tokens[1]), int(tokens[2])
    if (nx, ny) != (side["nx"], side["ny"]):
        return f"PGM is {nx}x{ny}, sidecar says {side['nx']}x{side['ny']}"
    if len(tokens) - 4 != nx * ny:
        return f"PGM holds {len(tokens) - 4} cells, header says {nx * ny}"
    return None


TEXT_CHECKS = {
    "solve": check_solve,
    "table-csv": check_table_csv,
    "table-json": check_table_json,
    "oracle": check_oracle,
}


def check_op(op, out: Path) -> str | None:
    """Check the files one op wrote at `out`; None when they are good."""
    try:
        if op.kind == "workspace":
            return check_workspace(out, op.items)
        return TEXT_CHECKS[op.kind](out.read_text(encoding="utf-8"), op.expect)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc.__class__.__name__}: {exc}"
