"""
Command-line front end.

Subcommands: fk, workspace, solve, stiffness, validate, oracle-check.
Each accepts only the options its handler reads: all take --config and
--out; the four that solve (solve, stiffness, validate, oracle-check)
take --threshold and --max-iter; the two tables (stiffness, validate)
take --format. Machine-readable output (CSV / JSON) goes to --out or
stdout; human status lines go to stderr. Exit codes: 0 success, 1
configuration or usage errors (a malformed or out-of-range argument, an
unreadable or unwritable file, an option the command does not take), 2
a pose the coupling tendons cannot wrap / an exceeded joint range / an
energy minimum the oracle cannot prove / an oracle-check verdict out of
tolerance, 3 non-convergence, a Newton blow-up included
(diagnostics are still written). Every refusal is a TendonFingerError raised where it is
checked, and `main` maps it to its class's exit code: an exit-1 refusal
is a ConfigError, printed without its class name. `stiffness` and
`validate` report a failing payload in its row instead. Every command
that solves builds its one `PotentialModel` in its handler, so a q whose
rigid pose leaves the joint range, or that the coupling tendons cannot
wrap, is refused once, before any row or case.

`main` reads a command line with the invoked command's quiet parser,
which prints nothing and reads no terminal size. Any line that it does
not accept whole (-h and --help among them) goes to the full parser,
which prints every help text and usage error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from pathlib import Path

from . import __version__
from .config import default_config_path, load_finger_config
from .energy import TOLERANCE_FRACTION, equilibrium_report, random_tip_load_cases
from .errors import ConfigError, NoConvergence, TendonFingerError
from .jsonout import dumps
from .model import ExternalLoad, coupling_angles, forward_kinematics, jacobian
from .potential import PotentialModel, zero_pose_wrap
from .statics import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_THRESHOLD,
    solution_to_dict,
    solve_static,
    stiffness_sweep,
    sweep_to_csv,
    trace_to_list,
)
from .workspace import (
    CLOUD_CSV_HEADER,
    blank_grid,
    grid_sidecar,
    grid_to_pgm,
    mark_cells,
    samples_per_variable,
    sweep_extent,
    sweep_slabs,
    write_csv_rows,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 2

REFERENCE_PAYLOADS = "0.5,1.0,1.5,2.0,2.5,3.0"
PAYLOAD_MATCH_KG = 1e-9  # a reference row matches a payload this close
WORKSPACE_SUFFIXES = (".csv", ".pgm", ".json")


# -<digits>[.[<digits>]] and -.<digits> with an optional exponent, -inf,
# -infinity and -nan are negative numbers, not options, so `_finite` can
# name their fault; the argparse of Python 3.11 reads only -<digits> and
# -[<digits>].<digits>. So is a comma pair whose first number is negative
# (`--force -10,-40`), for `_parse_pair`.
_NUMBER = r"((\d+\.?\d*|\.\d+)([eE][+-]?\d+)?|inf|infinity|nan)"
_NEGATIVE_NUMBER = re.compile(rf"^-{_NUMBER}(,\s*[+-]?{_NUMBER})?$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to the config exit code, and
    negative numbers in exponent or trailing-dot form, and comma pairs
    whose first number is negative, read as values (`fk -1e-3`, `fk -5.`,
    `--force -10,-40`)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        self.exit(ConfigError.exit_code, f"{self.prog}: error: {message}\n")


class _Refused(Exception):
    """A command line that a quiet parser does not accept whole."""


class _QuietParser(_Parser):
    """One command's own arguments, without -h, for a parser that prints
    nothing: a refusal raises _Refused, and the formatter that argparse
    builds to check each metavar gets a width instead of reading the
    terminal's."""

    def __init__(self, prog):
        super().__init__(prog=prog, add_help=False,
                         formatter_class=functools.partial(
                             argparse.HelpFormatter, width=80))

    def error(self, message):
        raise _Refused(message)


def _finite(text: str, what: str) -> float:
    """float(text), refusing garbage, nan and infinities."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be a finite number, got {text.strip()!r}")
    return value


def _finite_arg(text: str) -> float:
    """argparse type for float options: finite numbers only."""
    try:
        return _finite(text, "value")
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_q(text: str, geom) -> float:
    """Tendon displacement: meters by default, 'mm:' prefix for
    millimeters; its rigid joint angles q / R_i must be finite."""
    text = text.strip()
    if text.startswith("mm:"):
        q = _finite(text[3:], "length") * 1e-3
    else:
        q = _finite(text, "length")
    if not all(math.isfinite(q / r) for r in geom.guide_radii):
        raise ConfigError("theta contains a non-finite value")
    return q


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{what} must be two comma-separated numbers")
    return (_finite(parts[0], what), _finite(parts[1], what))


def _parse_payloads(text: str) -> list[float]:
    items = [p for p in text.split(",") if p.strip()]
    if not items:
        raise ConfigError("payload list is empty")
    values = [_finite(p, "payload") for p in items]
    if any(v < 0.0 for v in values):
        raise ConfigError("payloads must be >= 0")
    return values


def _emit(text: str, out_path: str | None) -> None:
    try:
        if out_path is None:
            sys.stdout.write(text)
        else:
            with open(out_path, "w", encoding="utf-8") as f:
                f.write(text)
    except OSError as exc:
        raise ConfigError(str(exc)) from None


def _status(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _add_io(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None,
                        help="finger config JSON (default: shipped calibration)")
    parser.add_argument("--out", default=None, help="output path")


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="table output format (default csv)")


def _add_solver(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threshold", type=_finite_arg, default=DEFAULT_THRESHOLD,
                        help="solver residual threshold in meters")
    parser.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITERATIONS,
                        help="solver iteration cap")


def _add_q(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("q", help="tendon displacement, meters (or mm:<value>)")


def _add_workspace(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--resolution", type=int, default=100)
    parser.add_argument("--cell", type=_finite_arg, default=1e-3,
                        help="occupancy cell size in meters (default 1 mm)")


def _add_solve(parser: argparse.ArgumentParser) -> None:
    _add_solver(parser)
    _add_q(parser)
    parser.add_argument("--force", default="0,0", help="tip force FX,FY in newtons")
    parser.add_argument("--moment", type=_finite_arg, default=0.0,
                        help="external moment in newton-meters")
    parser.add_argument("--at", default=None,
                        help="force application point X,Y in meters (default fingertip)")


def _add_stiffness(parser: argparse.ArgumentParser) -> None:
    _add_format(parser)
    _add_solver(parser)
    parser.add_argument("--payloads", required=True, help="comma-separated masses in kg")
    parser.add_argument("--q", default="0", help="tendon displacement (default 0)")


def _add_validate(parser: argparse.ArgumentParser) -> None:
    _add_format(parser)
    _add_solver(parser)
    parser.add_argument("--payloads", default=REFERENCE_PAYLOADS,
                        help=f"comma-separated masses in kg (default {REFERENCE_PAYLOADS})")
    parser.add_argument("--reference", default=None,
                        help="reference CSV with payload_kg,deflection_mm columns")


def _add_oracle_check(parser: argparse.ArgumentParser) -> None:
    _add_solver(parser)
    parser.add_argument("--cases", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The quiet parser of one command, or with no command the full parser.

    A command's parser has the prog and the arguments of the full
    parser's subparser for it, without -h. It prints nothing: a line it
    does not accept raises _Refused. The full parser prints the help and
    the usage errors, wrapped to the terminal.
    """
    if command is not None:
        _, add_arguments, _ = _COMMANDS[command]
        parser = _QuietParser(prog=f"tendonfinger {command}")
        _add_io(parser)
        add_arguments(parser)
        return parser
    parser = _Parser(prog="tendonfinger",
                     description="Coupled tendon-finger simulation toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        _add_io(p)
        add_arguments(p)
    return parser


def _load_config(args):
    path = args.config if args.config is not None else default_config_path()
    return load_finger_config(path)


def _load_solver_config(args):
    """The config of a command that solves, which must declare tendons;
    the solver settings are --threshold and --max-iter alone."""
    cfg = _load_config(args)
    if not cfg.tendons:
        raise ConfigError(
            "config declares no tendons; this command needs the full "
            "six-tendon definition"
        )
    if args.threshold <= 0.0:
        raise ConfigError("--threshold must be > 0")
    if args.max_iter < 1:
        raise ConfigError("--max-iter must be >= 1")
    if args.max_iter > sys.maxsize:
        raise ConfigError(f"--max-iter must be <= {sys.maxsize}")
    return cfg


def _cmd_fk(args) -> int:
    cfg = _load_config(args)
    q = _parse_q(args.q, cfg.geometry)
    config = coupling_angles(q, cfg.geometry)
    if cfg.tendons:
        # Refuses a pose the tendons cannot wrap.
        zero_pose_wrap(cfg.geometry).angles_at(config.theta)
    tip = forward_kinematics(config, cfg.geometry)
    jac = jacobian(q, cfg.geometry)
    lines = [
        f"q_m = {q:.9g}",
        "theta_rad = " + " ".join(f"{t:.9g}" for t in config.theta),
        "theta_deg = " + " ".join(f"{math.degrees(t):.9g}" for t in config.theta),
        f"fingertip_mm = {tip[0] * 1e3:.6f} {tip[1] * 1e3:.6f}",
        f"jacobian = {jac[0]:.9g} {jac[1]:.9g}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_workspace(args) -> int:
    cfg = _load_config(args)
    if args.out is None:
        raise ConfigError("workspace requires --out <basename> for its files")
    # The raw argument's last component: `Path` drops a trailing "/" and
    # keeps a last ".." as a name, so "o/x/" would write o/x.csv.
    if os.path.basename(args.out) in ("", ".", ".."):
        raise ConfigError(
            f"workspace --out must end in a file name, got {args.out!r}")
    geom, resolution = cfg.geometry, args.resolution
    # One grid per link, each over the whole cloud's bounding box, so their
    # cells align; both refusals come before any file is made.
    bbox = sweep_extent(geom, resolution)
    grids = [blank_grid(bbox, args.cell) for _ in (1, 2, 3)]

    # A basename may contain dots ("run_0.5"); only one of the three output
    # suffixes is replaced, any other tail is kept.
    base = Path(args.out)
    if base.suffix in WORKSPACE_SUFFIXES:
        base = base.with_suffix("")
    csv_path, pgm_path, json_path = (
        base.with_name(base.name + suffix) for suffix in WORKSPACE_SUFFIXES)
    try:
        base.parent.mkdir(parents=True, exist_ok=True)
        with open(csv_path, "wb") as fh:
            fh.write(CLOUD_CSV_HEADER)
            # Each slab is gridded and written before the next is swept.
            for link, pts in sweep_slabs(geom, resolution):
                mark_cells(grids[link - 1], pts)
                write_csv_rows(fh, link, pts)
        union = grids[0]._replace(
            marked=grids[0].marked | grids[1].marked | grids[2].marked)
        per_link = {str(link): grid.area for link, grid in zip((1, 2, 3), grids)}
        pgm_path.write_bytes(grid_to_pgm(union))
        json_path.write_text(grid_sidecar(union, per_link), encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write workspace output: {exc}") from None

    for link in (1, 2, 3):
        n = samples_per_variable(resolution, link)
        _status(
            f"link {link}: points={n ** (link + 1)} "
            f"(samples per variable: {n}) "
            f"area_m2={per_link[str(link)]:.6e}"
        )
    _status(f"union area_m2={union.area:.6e} cell_m={args.cell}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    cfg = _load_solver_config(args)
    q = _parse_q(args.q, cfg.geometry)
    force = _parse_pair(args.force, "--force")
    at = _parse_pair(args.at, "--at") if args.at is not None else None
    load = ExternalLoad(force=force, moment=args.moment, application_point=at)
    model = PotentialModel(cfg.geometry, cfg.tendons, load, q)
    try:
        sol = solve_static(model, threshold=args.threshold,
                           max_iterations=args.max_iter)
    except NoConvergence as exc:
        doc = {
            "status": "no_convergence",
            "detail": str(exc),
            "trace": trace_to_list(exc.trace, model),
        }
        _emit(dumps(doc) + "\n", args.out)
        _status(f"no convergence: {exc}")
        return exc.exit_code
    doc = {"status": "ok", **solution_to_dict(sol, model)}
    _emit(dumps(doc) + "\n", args.out)
    return EXIT_OK


def _rows_to_output(rows, fmt: str) -> str:
    if fmt == "csv":
        return sweep_to_csv(rows)
    return dumps(
        [
            {
                "payload_kg": r.payload_kg,
                "deflection_mm": None if math.isnan(r.deflection_m)
                else r.deflection_m * 1e3,
                "stiffness_N_per_m": None if math.isnan(r.stiffness_n_per_m)
                else r.stiffness_n_per_m,
                "iterations": r.iterations,
                "status": r.status,
            }
            for r in rows
        ],
    ) + "\n"


def _cmd_stiffness(args) -> int:
    cfg = _load_solver_config(args)
    payloads = _parse_payloads(args.payloads)
    q = _parse_q(args.q, cfg.geometry)
    model = PotentialModel(cfg.geometry, cfg.tendons, ExternalLoad(), q)
    rows = stiffness_sweep(model, payloads, threshold=args.threshold,
                           max_iterations=args.max_iter)
    _emit(_rows_to_output(rows, args.format), args.out)
    return EXIT_OK if all(r.status == "ok" for r in rows) else EXIT_INFEASIBLE


def _read_reference(path: str) -> dict[float, float]:
    """payload_kg -> deflection_mm from a reference CSV, one row per
    payload: a row within PAYLOAD_MATCH_KG of an earlier row is refused."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read reference '{path}': {exc}") from None
    lines = text.strip().splitlines()
    if not lines:
        raise ConfigError(f"reference file '{path}' is empty")
    header = [h.strip() for h in lines[0].split(",")]
    try:
        i_payload = header.index("payload_kg")
        i_defl = header.index("deflection_mm")
    except ValueError:
        raise ConfigError(
            "reference CSV must carry payload_kg and deflection_mm columns"
        ) from None
    table = {}
    line_of = {}
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) < len(header):
            raise ConfigError(
                f"reference line {lineno} has {len(cells)} cells, "
                f"the header has {len(header)}"
            )
        try:
            payload = _finite(cells[i_payload], "payload_kg")
            deflection = _finite(cells[i_defl], "deflection_mm")
        except ConfigError as exc:
            raise ConfigError(f"reference line {lineno}: {exc}") from None
        for earlier in table:
            if abs(earlier - payload) < PAYLOAD_MATCH_KG:
                raise ConfigError(
                    f"reference line {lineno}: payload_kg "
                    f"{cells[i_payload].strip()} repeats the payload of line "
                    f"{line_of[earlier]}"
                )
        table[payload] = deflection
        line_of[payload] = lineno
    return table


def _cmd_validate(args) -> int:
    cfg = _load_solver_config(args)
    payloads = _parse_payloads(args.payloads)
    ref = None if args.reference is None else _read_reference(args.reference)
    model = PotentialModel(cfg.geometry, cfg.tendons, ExternalLoad(), 0.0)
    rows = stiffness_sweep(model, payloads, threshold=args.threshold,
                           max_iterations=args.max_iter)
    _emit(_rows_to_output(rows, args.format), args.out)

    ok_rows = [r for r in rows if r.status == "ok"]
    # In payload order; rows of equal payload are not compared.
    ordered = sorted(ok_rows, key=lambda r: r.payload_kg)
    monotone = all(b.deflection_m > a.deflection_m
                   for a, b in zip(ordered, ordered[1:])
                   if b.payload_kg > a.payload_kg)
    _status(f"rows: {len(rows)} ok: {len(ok_rows)} "
            f"deflection monotone: {'yes' if monotone else 'no'}")

    if ref is not None:
        devs = []
        for r in ok_rows:
            for ref_payload, ref_mm in ref.items():
                if abs(ref_payload - r.payload_kg) < PAYLOAD_MATCH_KG:
                    devs.append(abs(r.deflection_m * 1e3 - ref_mm))
        if devs:
            total_mm = cfg.geometry.total_length * 1e3
            max_dev, mean_dev = max(devs), sum(devs) / len(devs)
            _status(
                f"reference comparison: max deviation {max_dev:.3f} mm "
                f"({100.0 * max_dev / total_mm:.3f}% of finger length), "
                f"mean {mean_dev:.3f} mm ({100.0 * mean_dev / total_mm:.3f}%)"
            )
        else:
            _status("reference comparison: no matching payloads")

    return EXIT_OK if len(ok_rows) == len(rows) else EXIT_INFEASIBLE


def _cmd_oracle_check(args) -> int:
    if args.cases < 1:
        raise ConfigError(f"--cases must be >= 1, got {args.cases}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    cfg = _load_solver_config(args)
    cases = random_tip_load_cases(args.cases, args.seed, cfg.geometry)
    model = PotentialModel(cfg.geometry, cfg.tendons, ExternalLoad(), 0.0)
    report = equilibrium_report(model, cases, threshold=args.threshold,
                                max_iterations=args.max_iter)
    _emit(dumps(report) + "\n", args.out)
    summary = report["summary"]
    worst = summary["max_delta_fraction_of_length"]
    gap = "n/a" if worst is None else f"{100.0 * worst:.4f}% of finger length"
    _status(
        f"cases: {len(report['cases'])} compared: {summary['compared_cases']} "
        f"max fingertip gap: {gap} (tolerance {100.0 * TOLERANCE_FRACTION:g}%)"
    )
    return EXIT_OK if summary["within_tolerance"] else EXIT_INFEASIBLE


# name -> (help, adds the command's own arguments, handler)
_COMMANDS = {
    "fk": ("coupled kinematics at displacement q", _add_q, _cmd_fk),
    "workspace": ("sweep reachable points per link", _add_workspace,
                  _cmd_workspace),
    "solve": ("static configuration under load", _add_solve, _cmd_solve),
    "stiffness": ("deflection/stiffness over payloads", _add_stiffness,
                  _cmd_stiffness),
    "validate": ("static-loading validation table", _add_validate,
                 _cmd_validate),
    "oracle-check": ("static solve vs energy-minimization comparison",
                     _add_oracle_check, _cmd_oracle_check),
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = None
    if argv and argv[0] in _COMMANDS:
        # Only the invoked command's quiet parser is built. A line that it
        # refuses (leftover arguments, -h and --help among them) is read
        # again by the full parser, which prints the help or the usage
        # error and exits.
        try:
            args = build_parser(argv[0]).parse_args(
                argv[1:], argparse.Namespace(command=argv[0]))
        except _Refused:
            pass
    if args is None:
        args = build_parser().parse_args(argv)
    _, _, handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except TendonFingerError as exc:
        name = "" if isinstance(exc, ConfigError) else f"{exc.__class__.__name__}: "
        _status(f"error: {name}{exc}")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
