import argparse
import hashlib
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tendonfinger import cli, errors, statics
from tendonfinger.config import default_config_path
from tendonfinger.statics import SWEEP_CSV_HEADER, SweepRow

from conftest import trig_is_math

CONFIG = default_config_path()


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "tendonfinger", *args],
        capture_output=True, text=True, **kwargs,
    )


@pytest.fixture
def massless_config(tmp_path):
    doc = json.loads(CONFIG.read_text(encoding="utf-8"))
    doc["geometry"]["link_masses"] = [0.0, 0.0, 0.0]
    path = tmp_path / "massless.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestFk:
    def test_straight_pose(self):
        res = run_cli("fk", "0", "--config", str(CONFIG))
        assert res.returncode == 0
        lines = dict(l.split(" = ") for l in res.stdout.strip().split("\n"))
        x, y = lines["fingertip_mm"].split()
        assert float(x) == pytest.approx(171.0, abs=1e-6)
        assert float(y) == 0.0

    def test_mm_prefix(self):
        res = run_cli("fk", "mm:2", "--config", str(CONFIG))
        assert res.returncode == 0
        assert "q_m = 0.002" in res.stdout

    def test_range_exceeded_exit_2(self):
        res = run_cli("fk", "0.02", "--config", str(CONFIG))
        assert res.returncode == 2
        assert "RangeExceeded" in res.stderr

    def test_wrap_infeasible_pose_exit_2(self):
        # The same one (0, pi) test and message as `solve mm:-12`.
        res = run_cli("fk", "mm:-12", "--config", str(CONFIG))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == ("error: GeometryInfeasible: wrap angle 3.2360 rad "
                              "outside (0, pi) at theta = -1.3163\n")
        solve = run_cli("solve", "mm:-12", "--config", str(CONFIG))
        assert (solve.returncode, solve.stderr) == (2, res.stderr)

    def test_wrap_feasible_pose_and_geometry_only_config(self, tmp_path):
        assert run_cli("fk", "mm:-9", "--config", str(CONFIG)).returncode == 0
        # Without tendons there is no wrap to check: plain kinematics.
        doc = json.loads(CONFIG.read_text(encoding="utf-8"))
        del doc["tendons"]
        cfg = tmp_path / "geomonly.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        res = run_cli("fk", "mm:-12", "--config", str(cfg))
        assert res.returncode == 0
        assert res.stderr == ""
        assert "theta_rad = -1.05" in res.stdout

    def test_malformed_config_names_key(self, tmp_path):
        doc = json.loads(CONFIG.read_text(encoding="utf-8"))
        doc["geometry"]["link_lenghts"] = doc["geometry"].pop("link_lengths")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        res = run_cli("fk", "0", "--config", str(bad))
        assert res.returncode == 1
        assert "link_lenghts" in res.stderr


class TestSolve:
    def test_unloaded_massless(self, massless_config):
        res = run_cli("solve", "0", "--config", str(massless_config))
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["status"] == "ok"
        assert doc["deflection_y_mm"] == 0.0

    def test_payload_deflection(self, tmp_path):
        out = tmp_path / "sol.json"
        res = run_cli("solve", "0", "--force", "0,-29.43",
                      "--config", str(CONFIG), "--out", str(out))
        assert res.returncode == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert 18.0 < doc["deflection_y_mm"] < 31.0
        assert doc["iterations"] >= 1
        assert len(doc["trace"]) == doc["iterations"]

    def test_zero_threshold_rejected(self):
        res = run_cli("solve", "0", "--threshold", "0", "--config", str(CONFIG))
        assert res.returncode == 1

    @pytest.mark.parametrize("command", ["solve", "stiffness", "validate", "oracle-check"])
    def test_solver_option_defaults(self, command):
        # The options are the one source of the solver settings; unset,
        # they are the library's defaults.
        parser = cli.build_parser(command)
        assert parser.get_default("threshold") == statics.DEFAULT_THRESHOLD == 1e-6
        assert parser.get_default("max_iter") == statics.DEFAULT_MAX_ITERATIONS == 100

    def test_solver_block_refused(self, tmp_path):
        # A document no longer carries solver settings: a solver block is
        # an unknown key like any other.
        doc = json.loads(CONFIG.read_text(encoding="utf-8"))
        doc["solver"] = {"threshold": 0.001, "max_iterations": 100}
        path = tmp_path / "solver.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        res = run_cli("solve", "0", "--config", str(path))
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr == "error: unknown key 'solver' in config document\n"

    @pytest.mark.parametrize("massless, args, groups", [
        # Once refused (exit 2) because no single tendon group holds them.
        (True, ("0", "--force", "0,-1.5", "--moment", "0.1"),
         ["flexion", "flexion", "extension"]),
        (False, ("mm:3", "--force=3.4684,3.4684"),
         ["extension", "flexion", "flexion"]),
    ])
    def test_mixed_group_load_solves(self, massless_config, massless, args, groups):
        config = massless_config if massless else CONFIG
        res = run_cli("solve", *args, "--config", str(config))
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["tension_groups"] == groups
        assert min(doc["tensions_n"]) > 0.0

    def test_wrap_infeasible_solved_pose_exit_2(self):
        # The rigid pose at 13.9 mm wraps; the loaded one does not.
        res = run_cli("solve", "mm:13.9", "--force=30,0", "--config", str(CONFIG))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.splitlines() == [
            "error: GeometryInfeasible: wrap angle -0.0137 rad outside (0, pi)"
            " at theta = 1.8668"]

    def test_no_convergence_exit_3_writes_trace(self, tmp_path):
        out = tmp_path / "failed.json"
        res = run_cli("solve", "0", "--force", "0,-29.43", "--max-iter", "2",
                      "--config", str(CONFIG), "--out", str(out))
        assert res.returncode == 3
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["status"] == "no_convergence"
        assert len(doc["trace"]) == 2
        # The same record fields as a converged solve's trace.
        assert set(doc["trace"][0]) == {
            "iteration", "theta_rad", "fingertip_y_m", "tensions_n",
            "elongated_lengths_m", "residual_m"}


class TestValidate:
    def test_reference_payload_set(self, tmp_path):
        out = tmp_path / "table.csv"
        res = run_cli("validate", "--config", str(CONFIG), "--out", str(out))
        assert res.returncode == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "payload_kg,deflection_mm,stiffness_N_per_m,iterations,status"
        assert len(lines) == 7
        deflections = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(b > a for a, b in zip(deflections, deflections[1:]))
        assert "deflection monotone: yes" in res.stderr

    @pytest.mark.parametrize("payloads", ["3,1,2", "1,1"])
    def test_monotone_in_payload_order(self, payloads, capsys):
        # Rows are compared sorted by payload; equal payloads are no
        # violation.
        assert cli.main(["validate", "--payloads", payloads]) == 0
        assert "deflection monotone: yes" in capsys.readouterr().err

    def test_monotone_violation(self, monkeypatch, capsys):
        rows = [SweepRow(m, d, m * 9.81 / d, 3, "ok")
                for m, d in ((2.0, 0.01), (1.0, 0.02))]
        monkeypatch.setattr(cli, "stiffness_sweep", lambda *a, **k: rows)
        assert cli.main(["validate", "--payloads", "2,1"]) == 0
        assert "deflection monotone: no" in capsys.readouterr().err

    def test_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("validate", "--config", str(CONFIG), "--out", str(a))
        run_cli("validate", "--config", str(CONFIG), "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_golden_default_table(self):
        # The paper-reproduction table at %.6f: its bytes do not depend on
        # last-ulp differences between sin/cos implementations.
        res = run_cli("validate")
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout.encode("utf-8")).hexdigest() == (
            "1fccd373c71e83e7f7429a3495a002e0869e4c0392d201be7867619abecc177e")

    def test_empty_payloads_exit_1(self):
        res = run_cli("validate", "--payloads", "", "--config", str(CONFIG))
        assert res.returncode == 1

    def test_reference_comparison(self, tmp_path):
        out = tmp_path / "table.csv"
        run_cli("validate", "--config", str(CONFIG), "--out", str(out))
        ref = tmp_path / "ref.csv"
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        ref_rows = ["payload_kg,deflection_mm"]
        for line in lines[1:]:
            cells = line.split(",")
            ref_rows.append(f"{cells[0]},{float(cells[1]) + 0.5:.6f}")
        ref.write_text("\n".join(ref_rows) + "\n", encoding="utf-8")
        res = run_cli("validate", "--config", str(CONFIG),
                      "--out", str(tmp_path / "again.csv"),
                      "--reference", str(ref))
        assert res.returncode == 0
        assert "mean 0.500 mm" in res.stderr
        assert "% of finger length" in res.stderr

    def test_reference_short_row_exit_1(self, tmp_path):
        ref = tmp_path / "ref.csv"
        ref.write_text("payload_kg,deflection_mm\n0.5,10.0\n1.0\n", encoding="utf-8")
        res = run_cli("validate", "--config", str(CONFIG), "--payloads", "0.5",
                      "--out", str(tmp_path / "table.csv"), "--reference", str(ref))
        assert res.returncode == 1
        assert "reference line 3" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("row, message", [
        ("0.5,nan", "reference line 3: deflection_mm must be a finite number, got 'nan'"),
        ("0.5,-inf", "reference line 3: deflection_mm must be a finite number, got '-inf'"),
        ("inf,10.0", "reference line 3: payload_kg must be a finite number, got 'inf'"),
        ("0.5,abc", "reference line 3: could not convert string to float: 'abc'"),
    ])
    def test_reference_bad_cell_exit_1(self, tmp_path, row, message):
        ref = tmp_path / "ref.csv"
        ref.write_text(f"payload_kg,deflection_mm\n1.0,20.0\n{row}\n", encoding="utf-8")
        res = run_cli("validate", "--config", str(CONFIG), "--payloads", "0.5",
                      "--out", str(tmp_path / "table.csv"), "--reference", str(ref))
        assert res.returncode == 1
        assert f"error: {message}\n" in res.stderr
        assert "reference comparison" not in res.stderr


    @pytest.mark.parametrize("rows, message", [
        ("0.5,1.0\n0.5,900.0", "reference line 3: payload_kg 0.5 repeats the "
                                "payload of line 2"),
        ("1.0,20.0\n0.5,1.0\n1.0000000001,20.0",
         "reference line 4: payload_kg 1.0000000001 repeats the payload of line 2"),
        ("0.5,abc", "reference line 2: could not convert string to float: 'abc'"),
        ("0.5", "reference line 2 has 1 cells, the header has 2"),
    ])
    def test_bad_reference_writes_nothing(self, tmp_path, capsys, rows, message):
        # The reference is read and checked before any payload is solved.
        ref = tmp_path / "ref.csv"
        ref.write_text(f"payload_kg,deflection_mm\n{rows}\n", encoding="utf-8")
        out = tmp_path / "table.csv"
        assert cli.main(["validate", "--reference", str(ref)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert cli.main(["validate", "--reference", str(ref), "--out", str(out)]) == 1
        assert not out.exists()

    def test_reference_with_byte_order_mark(self, tmp_path, capsys):
        # Spreadsheets export UTF-8 CSV with a leading byte-order mark.
        ref = tmp_path / "ref.csv"
        ref.write_text("payload_kg,deflection_mm\n0.5,1.0\n",
                       encoding="utf-8-sig")
        assert ref.read_bytes().startswith(b"\xef\xbb\xbfpayload_kg")
        assert cli.main(["validate", "--payloads", "0.5",
                         "--reference", str(ref)]) == 0
        assert "reference comparison: max deviation" in capsys.readouterr().err

    def test_distinct_close_payloads_accepted(self, tmp_path, capsys):
        ref = tmp_path / "ref.csv"
        ref.write_text("payload_kg,deflection_mm\n0.5,1.0\n0.50001,2.0\n",
                       encoding="utf-8")
        assert cli.main(["validate", "--payloads", "0.5",
                         "--reference", str(ref)]) == 0
        assert "reference comparison: max deviation" in capsys.readouterr().err


class TestStiffness:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "stiff.csv"
        res = run_cli("stiffness", "--payloads", "0.5,1.0",
                      "--config", str(CONFIG), "--out", str(out))
        assert res.returncode == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 3

    def test_json_format(self):
        res = run_cli("stiffness", "--payloads", "0.5", "--format", "json",
                      "--config", str(CONFIG))
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc[0]["status"] == "ok"


class TestWorkspace:
    def test_outputs_and_counts(self, tmp_path):
        base = tmp_path / "ws"
        res = run_cli("workspace", "--resolution", "50",
                      "--config", str(CONFIG), "--out", str(base))
        assert res.returncode == 0
        assert (tmp_path / "ws.csv").exists()
        assert (tmp_path / "ws.pgm").exists()
        assert (tmp_path / "ws.json").exists()
        assert "points=2500" in res.stderr      # 50^2
        assert "points=2744" in res.stderr      # 14^3
        assert "points=4096" in res.stderr      # 8^4

    def test_byte_identical_reruns(self, tmp_path):
        for name in ("one", "two"):
            run_cli("workspace", "--resolution", "30",
                    "--config", str(CONFIG), "--out", str(tmp_path / name))
        for suffix in (".csv", ".pgm", ".json"):
            assert ((tmp_path / "one").with_suffix(suffix).read_bytes()
                    == (tmp_path / "two").with_suffix(suffix).read_bytes())

    @pytest.mark.parametrize("out, stem", [
        ("run_0.5", "run_0.5"),
        ("run_0.7", "run_0.7"),
        ("plain", "plain"),
        ("x.csv", "x"),
    ])
    def test_out_basename(self, tmp_path, out, stem):
        # Only a .csv/.pgm/.json suffix is replaced; a dotted tail is kept.
        res = run_cli("workspace", "--resolution", "2",
                      "--config", str(CONFIG), "--out", str(tmp_path / out))
        assert res.returncode == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"{stem}.csv", f"{stem}.json", f"{stem}.pgm"]

    def test_missing_out_exit_1(self):
        res = run_cli("workspace", "--resolution", "10", "--config", str(CONFIG))
        assert res.returncode == 1

    @pytest.mark.parametrize("resolution, points", [
        ("2339", "16,780,955"),
        ("100000", "30,105,912,996"),
        # A count beyond float range.
        ("1" + "0" * 399, "inf"),
    ])
    def test_resolution_too_high_exit_1(self, tmp_path, resolution, points):
        # Refused from the point count alone: nothing is allocated or written.
        base = tmp_path / "ws"
        res = run_cli("workspace", "--resolution", resolution,
                      "--config", str(CONFIG), "--out", str(base), timeout=30)
        assert res.returncode == 1
        assert res.stderr == (f"error: resolution {resolution} sweeps {points} "
                              f"points, over the 16,777,216-point cap\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cell", ["1e-300", "1e-7"])
    def test_cell_too_small_exit_1(self, tmp_path, cell):
        # Refused from the cell count alone: no grid is allocated.
        base = tmp_path / "ws"
        res = run_cli("workspace", "--resolution", "2", "--cell", cell,
                      "--config", str(CONFIG), "--out", str(base), timeout=30)
        assert res.returncode == 1
        assert f"cell size {float(cell):g} m needs about" in res.stderr
        assert "Warning" not in res.stderr
        assert "Traceback" not in res.stderr
        assert list(tmp_path.iterdir()) == []

    def test_degenerate_single_link_area(self, tmp_path):
        doc = json.loads(CONFIG.read_text(encoding="utf-8"))
        del doc["tendons"]
        doc["geometry"]["link_lengths"] = [60.0, 0.0, 0.0]
        cfg = tmp_path / "single.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        base = tmp_path / "single_ws"
        res = run_cli("workspace", "--resolution", "400", "--cell", "0.0005",
                      "--config", str(cfg), "--out", str(base))
        assert res.returncode == 0
        sidecar = json.loads(base.with_suffix(".json").read_text(encoding="utf-8"))
        import math
        half_disk = math.pi * 0.06 ** 2 / 2
        assert abs(sidecar["per_link_area_m2"]["1"] - half_disk) < 0.05 * half_disk

    def test_statics_command_needs_tendons(self, tmp_path):
        doc = json.loads(CONFIG.read_text(encoding="utf-8"))
        del doc["tendons"]
        cfg = tmp_path / "geomonly.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        res = run_cli("solve", "0", "--config", str(cfg))
        assert res.returncode == 1
        assert "tendons" in res.stderr


class TestOracleCheck:
    def test_report_written(self, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli("oracle-check", "--cases", "2", "--config", str(CONFIG),
                      "--out", str(out))
        assert res.returncode == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert len(doc["cases"]) == 2
        assert doc["summary"]["within_tolerance"] is True

    def test_failed_solves_are_not_a_pass(self, tmp_path):
        # One solver step never converges, so nothing is compared: the
        # verdict is false and the exit code says so.
        out = tmp_path / "report.json"
        res = run_cli("oracle-check", "--cases", "2", "--max-iter", "1",
                      "--config", str(CONFIG), "--out", str(out))
        assert res.returncode == 2
        summary = json.loads(out.read_text(encoding="utf-8"))["summary"]
        assert summary["compared_cases"] == 0
        assert summary["within_tolerance"] is False
        # With nothing compared there is no gap to report, not a 0% one.
        assert summary["max_delta_fraction_of_length"] is None
        assert "cases: 2 compared: 0 max fingertip gap: n/a " in res.stderr

    @pytest.mark.parametrize("cases", ["0", "-1"])
    def test_no_cases_exit_1(self, tmp_path, cases):
        out = tmp_path / "report.json"
        res = run_cli("oracle-check", "--cases", cases, "--config", str(CONFIG),
                      "--out", str(out))
        assert res.returncode == 1
        assert f"--cases must be >= 1, got {cases}" in res.stderr
        assert "max fingertip gap" not in res.stderr
        assert not out.exists()


class TestGoldenBytes:
    # args: (exit code, SHA-256 of stdout). The step-capped solve writes
    # its trace records with the exit code of NoConvergence. The two
    # `solve` digests were re-pinned when the residual became the
    # fingertip's whole movement; only their `residual_m` fields moved.
    DIGESTS = {
        ("fk", "0.004"): (
            0, "85866e90e66b52be7635f8b33ed88b5b9b5b40c05d68037f865488bafcb98254"),
        ("solve", "0", "--force", "0,-29.43"): (
            0, "5c6d664cc606cc0bdb190735ade0fccf611d3ef7fb1d4d2eea826190bea35aa9"),
        ("solve", "0", "--force", "0,-29.43", "--max-iter", "2"): (
            3, "e5a2f8924c253b075def61a23157ebb99929c590ee46cbd64cd2f36d4a8645b2"),
        ("stiffness", "--payloads", "0.5,3", "--format", "json"): (
            0, "b9f78627a60e580474df284f456cabed1b9b107b540c7f90b7c767d27dcf97fb"),
        ("oracle-check", "--cases", "2", "--seed", "7"): (
            0, "00e8ed04e7b92fe6f1eb1bfd1162dabea19b1cdc3b1ed92a251df431bc8ef582"),
    }

    @pytest.mark.parametrize("args", sorted(DIGESTS),
                             ids=["_".join(args) for args in sorted(DIGESTS)])
    def test_stdout_unchanged(self, args):
        code, expected = self.DIGESTS[args]
        res = run_cli(*args)
        assert res.returncode == code
        # `solve` and the JSON table print repr floats, so the digests hold
        # where the platform's trig is the libm one they were taken with.
        if trig_is_math(np.random.default_rng(0).uniform(-2.5, 2.5, 20000)):
            digest = hashlib.sha256(res.stdout.encode("utf-8")).hexdigest()
            assert digest == expected


class TestUsage:
    @pytest.mark.parametrize("args", [
        ("solve", "mm:1", "--threshold", "nan"),
        ("workspace", "--cell", "inf"),
        ("solve", "0", "--moment", "nan"),
        ("solve", "nan"),
        ("fk", "mm:inf"),
        ("solve", "0", "--force", "0,nan"),
        ("solve", "0", "--at", "inf,0"),
        ("stiffness", "--payloads", "1,nan"),
        ("validate", "--payloads", "inf"),
        # Read as negative numbers, not as options.
        ("fk", "-inf"),
        ("fk", "-nan"),
        ("fk", "-Infinity"),
        ("stiffness", "--payloads", "1", "--q", "-inf"),
    ])
    def test_non_finite_number_exit_1(self, args):
        res = run_cli(*args, "--config", str(CONFIG))
        assert res.returncode == 1
        assert "must be a finite number" in res.stderr
        assert "Traceback" not in res.stderr

    def test_unknown_flag_exit_1(self):
        res = run_cli("fk", "0", "--bogus")
        assert res.returncode == 1

    def test_version(self):
        res = run_cli("--version")
        assert res.returncode == 0


_IO = {"--config", "--out"}
_SOLVER = {"--threshold", "--max-iter"}
COMMAND_OPTIONS = {
    "fk": _IO | {"q"},
    "workspace": _IO | {"--resolution", "--cell"},
    "solve": _IO | _SOLVER | {"q", "--force", "--moment", "--at"},
    "stiffness": _IO | _SOLVER | {"--format", "--payloads", "--q"},
    "validate": _IO | _SOLVER | {"--format", "--payloads", "--reference"},
    "oracle-check": _IO | _SOLVER | {"--cases", "--seed"},
}
# (command, option) pairs that were accepted and ignored or refused by a
# check of a setting the command never reads; now argparse refuses them.
REMOVED_OPTIONS = [
    ("fk", "--format"), ("fk", "--threshold"), ("fk", "--max-iter"),
    ("workspace", "--format"), ("workspace", "--threshold"),
    ("workspace", "--max-iter"), ("solve", "--format"),
    ("oracle-check", "--format"),
]
REMOVED_VALUES = {"--format": "json", "--threshold": "1e-6", "--max-iter": "5"}


def _described(parser):
    """What `parser` reads of each of its arguments, the help action aside."""
    return [(a.option_strings, a.dest, a.default, a.type, a.choices, a.nargs,
             a.required, a.metavar, a.help)
            for a in parser._actions if not isinstance(a, argparse._HelpAction)]


class TestInProcess:
    """`cli.main` and `cli.build_parser` called directly."""

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_command_parser_matches_full_parser(self, command):
        # The quiet parser reads what the full parser's subparser reads,
        # and has no help action.
        sub, = (a.choices[command] for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
        quiet = cli.build_parser(command)
        assert quiet.prog == sub.prog == f"tendonfinger {command}"
        assert not any(isinstance(a, argparse._HelpAction) for a in quiet._actions)
        assert any(isinstance(a, argparse._HelpAction) for a in sub._actions)
        assert _described(quiet) == _described(sub)

    def test_command_option_sets(self):
        # Each command accepts only the options its handler reads.
        found = {
            command: {s for a in cli.build_parser(command)._actions
                      for s in a.option_strings or [a.dest]}
            for command in cli._COMMANDS
        }
        assert found == COMMAND_OPTIONS
        assert sum(map(len, found.values())) == 35

    @pytest.mark.parametrize("command, option", REMOVED_OPTIONS)
    def test_removed_option_is_unrecognized(self, tmp_path, monkeypatch, capsys,
                                            command, option):
        monkeypatch.chdir(tmp_path)
        flag = f"{option}={REMOVED_VALUES[option]}"
        q = ["0"] if command in ("fk", "solve") else []
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *q, "--out", "x", flag])
        assert exc.value.code == 1
        assert capsys.readouterr() == (
            "", f"tendonfinger: error: unrecognized arguments: {flag}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, first_line", [
        (["fk", "-1e-3"], "q_m = -0.001"),
        (["stiffness", "--payloads", "0.5", "--q", "-1e-3"], SWEEP_CSV_HEADER),
        (["solve", "-2.5E-4"], "{"),
        (["fk", "-1.e-3"], "q_m = -0.001"),
    ])
    def test_negative_exponent_is_a_number(self, capsys, argv, first_line):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.splitlines()[0] == first_line

    @pytest.mark.parametrize("argv", [
        ["fk", "-5."],
        ["stiffness", "--payloads", "1", "--q", "-5."],
    ])
    def test_negative_trailing_dot_is_a_number(self, capsys, argv):
        # q = -5 m is read as a value, and the joint range refuses it.
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert "RangeExceeded: theta_1 = -438.769690 rad outside" in out + err

    @pytest.mark.parametrize("option, pair", [
        ("--force", "-10,-40"),
        ("--force", "-1e1,-4E+1"),
        ("--at", "-0.01,0.05"),
        ("--force", "-inf,0"),
    ])
    def test_negative_pair_is_a_value(self, capsys, option, pair):
        # `--force -10,-40` reads as `--force=-10,-40`, to the byte; a
        # non-finite number is still refused by name.
        force = [] if option == "--force" else ["--force", "0,-10"]
        results = []
        for tail in ([option, pair], [f"{option}={pair}"]):
            code = cli.main(["solve", "0", *force, *tail])
            results.append((code, capsys.readouterr()))
        assert results[0] == results[1]
        code, (out, err) = results[0]
        if "inf" in pair:
            assert (code, out) == (1, "")
            assert f"{option} must be a finite number" in err
        else:
            assert code == 0
            assert json.loads(out)["status"] == "ok"

    def test_leftover_argument_is_a_top_level_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fk", "0", "--bogus"])
        assert exc.value.code == 1
        assert capsys.readouterr().err == (
            "tendonfinger: error: unrecognized arguments: --bogus\n")

    def test_argv_defaults_to_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv",
                            ["tendonfinger", "fk", "mm:2", "--config", str(CONFIG)])
        assert cli.main() == 0
        assert capsys.readouterr().out.startswith("q_m = 0.002\n")

    @pytest.mark.parametrize("error, code", [
        (errors.ConfigError, 1),
        (errors.RangeExceeded, 2),
        (errors.GeometryInfeasible, 2),
        (errors.UnprovenMinimum, 2),
        (errors.NoConvergence, 3),
    ])
    def test_error_exit_code(self, error, code, monkeypatch, capsys):
        assert error.exit_code == code

        def fail(args):
            raise error("boom")

        help_text, add_arguments, _ = cli._COMMANDS["fk"]
        monkeypatch.setitem(cli._COMMANDS, "fk", (help_text, add_arguments, fail))
        assert cli.main(["fk", "0"]) == code
        named = "" if code == 1 else f"{error.__name__}: "
        assert capsys.readouterr().err == f"error: {named}boom\n"

    def test_foreign_error_is_not_an_exit_code(self, monkeypatch):
        # Only TendonFingerError maps to an exit code: any other exception
        # is a bug and propagates.
        def fail(args):
            raise ValueError("boom")

        help_text, add_arguments, _ = cli._COMMANDS["fk"]
        monkeypatch.setitem(cli._COMMANDS, "fk", (help_text, add_arguments, fail))
        with pytest.raises(ValueError, match="boom"):
            cli.main(["fk", "0"])


class TestNamedRefusals:
    """Refusals raised as named errors where they are checked, run in
    process: one `error:` line, the documented code, nothing written."""

    def test_solver_blow_up_exit_3(self, capsys):
        # The first Newton step leaves the finite numbers: a
        # non-convergence with its (empty) trace, not a config error.
        assert cli.main(["solve", "0", "--moment=-1e308"]) == 3
        out, err = capsys.readouterr()
        assert json.loads(out) == {
            "status": "no_convergence",
            "detail": "Newton step 1 gave a non-finite joint angle",
            "trace": [],
        }
        assert err == "no convergence: Newton step 1 gave a non-finite joint angle\n"

    @pytest.mark.parametrize("command", ["stiffness", "validate"])
    def test_overflowing_payload_fails_its_row(self, capsys, command):
        assert cli.main([command, "--payloads", "0.5,1e308"]) == 2
        out, _ = capsys.readouterr()
        header, ok, failed = out.splitlines()
        assert ok.startswith("0.500,") and ok.endswith(",ok")
        assert failed.endswith(",nan,nan,0,error: payload weight is not finite")

    def test_geometry_only_far_tip_exit_0(self, tmp_path, capsys):
        # |tip| <= sum of link lengths holds by construction; at 1e10 m
        # links the rounding of the tip exceeds any absolute tolerance.
        doc = {"units": {"length": "meters", "mass": "kilograms"},
               "geometry": {"link_lengths": [1e10, 1e10, 1e10],
                            "guide_radii": [1.0, 1.0, 1.0]}}
        cfg = tmp_path / "far.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["fk", "1e-8", "--config", str(cfg)]) == 0
        out, err = capsys.readouterr()
        assert "\nfingertip_mm = 2999999999999" in out
        assert err == ""

    @pytest.mark.parametrize("argv, message", [
        (["oracle-check", "--cases", "1", "--seed=-1"], "--seed must be >= 0, got -1"),
        (["solve", "1e308"], "theta contains a non-finite value"),
        (["stiffness", "--payloads", "0.5", "--q", "1e308"],
         "theta contains a non-finite value"),
        (["solve", "0", "--force", "a,b"], "could not convert string to float: 'a'"),
        (["solve", "0", "--at", "1,2,3"], "--at must be two comma-separated numbers"),
        (["workspace", "--cell", "0", "--out", "ws"], "cell_size must be > 0"),
        (["workspace", "--cell", "5", "--out", "ws"],
         "cell_size exceeds the bounding-box diagonal"),
        (["workspace", "--out", ""], "workspace --out must end in a file name, got ''"),
        (["workspace", "--out", "."], "workspace --out must end in a file name, got '.'"),
        (["workspace", "--out", "/"], "workspace --out must end in a file name, got '/'"),
        (["workspace", "--out", "o/x/"],
         "workspace --out must end in a file name, got 'o/x/'"),
        (["workspace", "--out", "o/x/."],
         "workspace --out must end in a file name, got 'o/x/.'"),
        (["workspace", "--out", "o/"],
         "workspace --out must end in a file name, got 'o/'"),
        (["workspace", "--out", ".."],
         "workspace --out must end in a file name, got '..'"),
        (["workspace", "--out", "x/.."],
         "workspace --out must end in a file name, got 'x/..'"),
        # The name is opened as given: a trailing "/" does not write "o".
        (["solve", "0", "--out", "o/"], "[Errno 21] Is a directory: 'o/'"),
        # Above the largest step count that `islice` takes.
        (["solve", "0", "--max-iter", str(2**63)],
         f"--max-iter must be <= {sys.maxsize}"),
    ])
    def test_refusal_exit_1(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["fk", "solve"])
    def test_unwritable_out_exit_1(self, tmp_path, capsys, command):
        out = tmp_path / "missing" / "x"
        assert cli.main([command, "0", "--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "", f"error: [Errno 2] No such file or directory: '{out}'\n")

    def test_unreadable_reference_names_file(self, tmp_path, capsys):
        ref = tmp_path / "latin1.csv"
        ref.write_bytes(b"payload_kg,deflection_mm\n0.5,\xff\n")
        assert cli.main(["validate", "--reference", str(ref)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot read reference '{ref}': 'utf-8' codec")
        assert cli.main(["validate", "--reference", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 21] Is a directory: '{tmp_path}'\n")


NUMBERS = ["0", "0.5", "3", "-1", "-0.004", "-1e-3", "1e-8", "1e308", "-1e308",
           "nan", "inf", "-inf", "mm:2", "mm:-9", "abc", ""]
NUMBER = st.sampled_from(NUMBERS)
PAIR = st.lists(NUMBER, min_size=1, max_size=3).map(",".join)
# {tmp} is replaced by a per-session directory; "missing" never exists
# when a command starts.
OUTS = ["", ".", "{tmp}/missing/x", "{tmp}/out"]
CONFIGS = [str(CONFIG), "{tmp}/massless.json", "{tmp}/geometry_only.json"]


def _option(name, values):
    """`--name=value` for a value drawn from `values`, or nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    argv = [command]
    if command in ("fk", "solve"):
        argv.append(draw(NUMBER))
    if command == "solve":
        argv += draw(_option("force", PAIR)) + draw(_option("at", PAIR))
        argv += draw(_option("moment", NUMBER))
    if command in ("stiffness", "validate"):
        argv += draw(_option("payloads", PAIR))
    if command == "stiffness":
        argv += draw(_option("q", NUMBER))
    if command == "workspace":
        # Small sweeps and coarse grids only: nothing allocates much.
        argv += draw(_option("resolution", st.integers(-2, 40)))
        argv += draw(_option("cell", st.sampled_from(
            ["0.001", "0.01", "0", "-1", "5", "1e-7", "nan", "abc"])))
    if command == "oracle-check":
        argv += draw(_option("cases", st.integers(1, 4)))
        argv += draw(_option("seed", st.sampled_from(["0", "7", "-1", "x"])))
    argv += draw(_option("config", st.sampled_from(CONFIGS)))
    argv += draw(_option("out", st.sampled_from(OUTS)))
    if "--threshold" in COMMAND_OPTIONS[command]:
        argv += draw(_option("threshold", NUMBER))
        argv += draw(_option("max-iter", st.sampled_from(
            ["0", "1", "3", "-2", "x", str(2**63)])))
    if "--format" in COMMAND_OPTIONS[command]:
        argv += draw(_option("format", st.sampled_from(["csv", "json"])))
    # Help or an unknown option at a random position: the full parser
    # prints the help (exit 0) or the usage error (exit 1).
    for extra in draw(st.lists(st.sampled_from(["-h", "--help", "--bogus"]),
                               max_size=1)):
        argv.insert(draw(st.integers(0, len(argv))), extra)
    return argv


def _only_named_errors(handler):
    """`handler`, failing the test when it raises anything but a
    TendonFingerError."""
    def run(args):
        try:
            return handler(args)
        except errors.TendonFingerError:
            raise
        except Exception as exc:
            raise AssertionError(
                f"{type(exc).__name__} escaped {handler.__name__}: {exc}") from exc
    return run


@pytest.fixture(scope="module")
def session_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_any")
    doc = json.loads(CONFIG.read_text(encoding="utf-8"))
    doc["geometry"]["link_masses"] = [0.0, 0.0, 0.0]
    (root / "massless.json").write_text(json.dumps(doc), encoding="utf-8")
    del doc["tendons"]
    (root / "geometry_only.json").write_text(json.dumps(doc), encoding="utf-8")
    return root


class TestAnyArguments:
    @settings(max_examples=50, deadline=None)
    @given(argv=cli_argvs())
    @example(argv=["solve", "0", "--moment=-1e308"])
    @example(argv=["stiffness", "--payloads=0.5,1e308"])
    @example(argv=["oracle-check", "--cases=1", "--seed=-1"])
    @example(argv=["workspace", "--resolution=2", "--out=."])
    @example(argv=["solve", "0", f"--max-iter={2**63}"])
    def test_exit_code_or_usage_error(self, session_dir, argv):
        # Every handler failure is a named error, so `main` returns one of
        # the four documented codes; argparse refusals exit 1 (help 0).
        argv = [a.replace("{tmp}", str(session_dir)) for a in argv]
        checked = {name: (help_text, add_arguments, _only_named_errors(handler))
                   for name, (help_text, add_arguments, handler)
                   in cli._COMMANDS.items()}
        out, err = io.StringIO(), io.StringIO()
        try:
            with mock.patch.dict(cli._COMMANDS, checked), \
                    redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 1)
        else:
            assert code in (0, 1, 2, 3)
        finally:
            shutil.rmtree(session_dir / "missing", ignore_errors=True)
        assert "Traceback" not in err.getvalue()


# One cheap line per command that its quiet parser accepts whole; {tmp}
# is replaced by a per-test directory.
BASE_LINES = {
    "fk": ["fk", "0"],
    "workspace": ["workspace", "--resolution", "2", "--out", "{tmp}/ws"],
    "solve": ["solve", "0", "--force", "0,-10"],
    "stiffness": ["stiffness", "--payloads", "0.5,1"],
    "validate": ["validate", "--payloads", "0.5"],
    "oracle-check": ["oracle-check", "--cases", "1"],
}
GOOD_VALUES = {
    "--config": str(CONFIG), "--out": "{tmp}/o", "--threshold": "1e-7",
    "--max-iter": "50", "--format": "json", "--resolution": "3",
    "--cell": "0.01", "--cases": "2", "--seed": "3", "--force": "0,-5",
    "--moment": "0.1", "--at": "0.05,0.1", "--payloads": "1.5", "--q": "mm:1",
    "--reference": "{tmp}/missing.csv",
}
# A value that argparse refuses (a type or a choice), per option that has one.
BAD_VALUES = {"--threshold": "x", "--max-iter": "1.5", "--format": "xml",
              "--resolution": "a", "--cell": "nan", "--cases": "z",
              "--seed": "1e3", "--moment": "-inf"}
HELP_TOKENS = ["-h", "--help", "--hel", "--he", "--h"]
NEGATIVE_NUMBERS = ["-1e-3", "-5.", "-.5e-3", "-1", "-inf", "-nan", "-0x1"]


def argv_corpus():
    """Command lines for comparing `main` with the full parser alone:
    every command with help at every position and in abbreviation, bad
    types and choices, missing values, abbreviated and foreign options,
    leftovers, --version and negative numbers."""
    lines = [[], ["-h"], ["--help"], ["--he"], ["--version"], ["--vers"],
             ["--version", "fk", "0"], ["bogus"], ["Fk", "0"], ["-x"],
             ["--config", str(CONFIG), "fk", "0"], ["--", "fk", "0"],
             ["fk", "--", "-1"], ["fk", "--", "-h"], ["solve", "0", "--", "1"]]
    options = sorted(GOOD_VALUES)
    for command, base in BASE_LINES.items():
        own = COMMAND_OPTIONS[command]
        lines += [base, [command], [command, "-h"], base + ["--version"],
                  base + ["extra"], base + ["--bogus"], base + ["--bogus=1"],
                  base + ["-x"], base + ["--bogus", "-h"], base + ["-h", "--bogus"],
                  base + ["--out", "-h"], base + ["--config=-h"],
                  base + ["--config", "-h"], base + ["--out"]]
        lines += [base[:i] + [token] + base[i:]
                  for token in HELP_TOKENS for i in range(len(base) + 1)]
        for option in options:
            if option not in own:
                lines += [base + [option, GOOD_VALUES[option]],
                          base + [f"{option}={GOOD_VALUES[option]}"]]
                continue
            lines += [base + [option], base + [option, "--out", "{tmp}/o"],
                      base + [option, GOOD_VALUES[option]],
                      base + [option[:5], GOOD_VALUES[option]],
                      base + [f"{option[:4]}={GOOD_VALUES[option]}"],
                      base + [option, GOOD_VALUES[option], "-h"]]
            if option in BAD_VALUES:
                lines += [base + [option, BAD_VALUES[option]],
                          base + [f"{option}={BAD_VALUES[option]}"],
                          base + [option, BAD_VALUES[option], "--help"]]
    for number in NEGATIVE_NUMBERS:
        lines += [["fk", number], ["solve", number], ["solve", "0", "--moment", number],
                  ["stiffness", "--payloads", "1", "--q", number],
                  ["solve", "0", "--force", f"{number},-40"],
                  ["solve", "0", "--at", f"{number},0.05"],
                  ["oracle-check", "--seed", number], ["solve", "0", "--max-iter", number]]
    return [list(line) for line in dict.fromkeys(map(tuple, lines))]


def _full_parser_main(argv):
    """`main` as it runs with the full parser alone."""
    args = cli.build_parser().parse_args(argv)
    _, _, handler = cli._COMMANDS[args.command]
    try:
        return handler(args)
    except errors.TendonFingerError as exc:
        name = "" if isinstance(exc, errors.ConfigError) else f"{type(exc).__name__}: "
        sys.stderr.write(f"error: {name}{exc}\n")
        return exc.exit_code


def _outcome(run, argv):
    """(how `run(argv)` ended, its code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            ended = ("return", run(argv))
        except SystemExit as exc:
            ended = ("exit", exc.code)
    return (*ended, out.getvalue(), err.getvalue())


class TestQuietParser:
    """`main` reads a line that the command's quiet parser accepts with
    that parser alone, which has no help action and reads no terminal
    size; every other line goes to the full parser, which prints the
    help and the usage errors wrapped to the terminal."""

    def test_corpus_matches_full_parser(self, tmp_path):
        corpus = argv_corpus()
        assert len(corpus) > 500
        endings = set()
        for argv in corpus:
            argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
            got = _outcome(cli.main, argv)
            assert got == _outcome(_full_parser_main, argv), argv
            endings.add(got[:2])
        # Help, usage errors, successes and refusals all occur.
        assert {("exit", 0), ("exit", 1), ("return", 0), ("return", 1),
                ("return", 2)} <= endings

    @pytest.fixture
    def built(self, monkeypatch):
        """The command of each `build_parser` call, None for the full parser."""
        commands = []
        build = cli.build_parser

        def spy(command=None):
            commands.append(command)
            return build(command)

        monkeypatch.setattr(cli, "build_parser", spy)
        return commands

    @pytest.mark.parametrize("argv", [
        ["solve", "0", "--force", "0,-10"],
        ["stiffness", "--payloads", "0.5,1"],
        ["oracle-check", "--cases", "1"],
    ])
    def test_valid_line_builds_one_quiet_parser(self, monkeypatch, capsys, built,
                                                argv):
        def no_terminal(*args, **kwargs):
            raise AssertionError("the terminal size was read")

        monkeypatch.setattr(shutil, "get_terminal_size", no_terminal)
        assert cli.main(argv) == 0
        assert built == [argv[0]]
        assert capsys.readouterr().out

    @pytest.mark.parametrize("argv, code", [
        (["solve", "--help"], 0),
        (["solve", "0", "-h", "--bogus"], 0),
        (["solve", "0", "--threshold", "x"], 1),
        (["stiffness"], 1),
        (["fk", "0", "--bogus"], 1),
    ])
    def test_full_parser_prints_refusals(self, capsys, built, argv, code):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == code
        assert built == [argv[0], None]
        out, err = capsys.readouterr()
        if code == 0:
            assert out.startswith(f"usage: tendonfinger {argv[0]} [-h]")
        else:
            assert out == ""
            assert err.startswith("tendonfinger") and ": error: " in err
        with pytest.raises(cli._Refused):
            cli.build_parser(argv[0]).parse_args(argv[1:])

    def test_printed_help_follows_the_terminal(self, monkeypatch, capsys):
        helps = {}
        for columns in (60, 120):
            monkeypatch.setenv("COLUMNS", str(columns))
            with pytest.raises(SystemExit) as exc:
                cli.main(["solve", "--help"])
            assert exc.value.code == 0
            helps[columns] = capsys.readouterr().out
        assert helps[60] != helps[120]
        assert max(map(len, helps[60].splitlines())) <= 60
        assert max(map(len, helps[120].splitlines())) > 60
        assert helps[60].startswith("usage: tendonfinger solve [-h]")
