import ast
import contextlib
import inspect
import io
import subprocess
import sys
from pathlib import Path

import tendonfinger
from tendonfinger import cli, energy, errors, model, statics

from conftest import unloaded_model


def test_every_error_class_is_exported():
    defined = {
        name for name, obj in inspect.getmembers(errors, inspect.isclass)
        if issubclass(obj, errors.TendonFingerError) and obj.__module__ == errors.__name__
    }
    assert defined == {
        "TendonFingerError", "ConfigError", "RangeExceeded",
        "GeometryInfeasible", "UnprovenMinimum", "NoConvergence",
    }
    for name in defined:
        assert getattr(tendonfinger, name) is getattr(errors, name)
    assert defined <= set(tendonfinger.__all__)


def _package_imports():
    """module -> [(imported package module, [imported names])] for every
    relative import of every module in the package."""
    imports = {}
    for path in Path(tendonfinger.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports[path.stem] = [
            (node.module, [alias.name for alias in node.names])
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
        ]
    return imports


def test_layering():
    # model -> potential -> statics -> energy: the potential is the one
    # elastic model, and each layer builds only on those before it.
    imports = _package_imports()
    imported = {name: {module for module, _ in found}
                for name, found in imports.items()}
    assert not imported["potential"] & {"statics", "energy"}
    assert "energy" not in imported["statics"]


def test_config_builds_on_the_model():
    # A document holds the calibration alone: geometry and tendons, which
    # the model and the elastic layer check. The solver settings are
    # command-line options, so config imports nothing from statics.
    found = _package_imports()["config"]
    assert found  # the scan sees imports
    assert {module for module, _ in found} == {"errors", "model", "potential"}


def test_solver_layer_takes_the_model():
    # One calling convention: every solver and oracle entry point takes
    # the caller's `PotentialModel` first, and only the command-line front
    # end builds one, so a bad q is refused in one place.
    for fn in (statics.solve_static, statics.stiffness_sweep,
               energy.find_equilibrium, energy.balance_residuals,
               energy.equilibrium_report):
        assert next(iter(inspect.signature(fn).parameters)) == "model", fn.__name__
    # The oracle takes nothing else: one Newton run, from the nominal pose.
    assert tuple(inspect.signature(energy.find_equilibrium).parameters) == ("model",)
    builders = []
    for path in Path(tendonfinger.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "PotentialModel":
                    builders.append(path.stem)
    assert builders and set(builders) == {"cli"}


def _import_time_modules(tree):
    """Absolute imports that run when the module is imported: those
    outside function bodies and `if TYPE_CHECKING:` blocks."""
    found = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_model_is_plain_floats():
    # The data model, kinematics and energy oracle compute in plain
    # floats and import numpy nowhere, not even in a function body; no
    # other module imports numpy at import time: the workspace's array
    # code imports it in the functions that build arrays.
    for module in (model, energy):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.level == 0}
        assert "math" in imported  # the scan sees imports
        assert "numpy" not in imported, module.__name__
    at_import = {
        path.stem: _import_time_modules(ast.parse(path.read_text(encoding="utf-8")))
        for path in Path(tendonfinger.__file__).parent.glob("*.py")
    }
    assert at_import["energy"] >= {"math", "typing"}  # the scan sees imports
    assert [name for name, found in at_import.items() if "numpy" in found] == []


def _fresh(code):
    """Run `code` in a new interpreter; the code fails the test by raising."""
    res = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_import_loads_no_numpy():
    _fresh("import sys, tendonfinger\n"
           "assert 'numpy' not in sys.modules")
    # cli binds the array layers' functions at import, so a tracer that
    # wraps module attributes sees every call.
    _fresh("import sys, tendonfinger.cli as cli\n"
           "assert 'numpy' not in sys.modules\n"
           "assert {'tendonfinger.energy', 'tendonfinger.workspace'} <= set(sys.modules)\n"
           "from tendonfinger import energy, workspace\n"
           "assert cli.equilibrium_report is energy.equilibrium_report\n"
           "for name in ('sweep_extent', 'blank_grid', 'sweep_slabs',\n"
           "             'mark_cells', 'write_csv_rows', 'grid_to_pgm'):\n"
           "    assert getattr(cli, name) is getattr(workspace, name), name")
    # Nor does finding an equilibrium, on either proof: a 60 kg tip load
    # lies beyond the global certificate, and the local proof covers it.
    _fresh("import sys\n"
           "from tendonfinger import ExternalLoad, PotentialModel, find_equilibrium\n"
           "from tendonfinger.config import default_config_path, load_finger_config\n"
           "cfg = load_finger_config(default_config_path())\n"
           "for kg in (3.0, 60.0):\n"
           "    model = PotentialModel(cfg.geometry, cfg.tendons,\n"
           "                           ExternalLoad.tip_payload(kg), 0.0)\n"
           "    assert (model.convexity > 0.0) is (kg == 3.0)\n"
           "    find_equilibrium(model)\n"
           "assert 'numpy' not in sys.modules")


def test_import_loads_no_dataclasses():
    # The record types are named tuples, so a launch does not pay for
    # building dataclasses or for importing the module that makes them.
    _fresh("import sys, tendonfinger.cli\n"
           "assert 'dataclasses' not in sys.modules")


def test_plain_float_commands_load_no_numpy(tmp_path):
    commands = [["fk", "mm:3"], ["solve", "mm:3", "--force", "0,-29.43"],
                ["stiffness", "--payloads", "0.5,3"], ["validate"],
                ["oracle-check", "--cases", "2"]]
    out = [str(tmp_path / f"{argv[0]}.out") for argv in commands]
    _fresh("import contextlib, io, sys\n"
           "from tendonfinger import cli\n"
           f"for argv, out in zip({commands!r}, {out!r}):\n"
           "    with contextlib.redirect_stderr(io.StringIO()):\n"
           "        assert cli.main([*argv, '--out', out]) == 0, argv\n"
           "assert 'numpy' not in sys.modules")
    assert all(Path(path).stat().st_size > 0 for path in out)


def test_array_commands_load_numpy_on_demand(tmp_path):
    base = tmp_path / "ws"
    _fresh("import contextlib, io, sys\n"
           "from tendonfinger import cli\n"
           "with contextlib.redirect_stderr(io.StringIO()):\n"
           f"    assert cli.main(['workspace', '--resolution', '20', '--out', {str(base)!r}]) == 0\n"
           "assert 'numpy' in sys.modules")
    assert all((tmp_path / f"ws.{ext}").stat().st_size > 0
               for ext in ("csv", "pgm", "json"))


def test_no_private_name_crosses_a_module():
    crossing = [
        (name, module, alias)
        for name, found in _package_imports().items()
        for module, aliases in found
        for alias in aliases
        if alias.startswith("_") and alias != "__version__"
    ]
    assert crossing == []


def _spy(monkeypatch, home, name):
    """Count the calls of `home.<name>` made through any module attribute
    bound to it, the way a tracer that wraps those attributes sees them."""
    original = getattr(home, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "tendonfinger":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, spy)
    return calls


class TestEntryPointsCalledByName:
    """Every report, sweep and CLI solve goes through the public solver
    and oracle functions, one call per case."""

    def test_equilibrium_report(self, calibrated, monkeypatch):
        geom, specs = calibrated.geometry, calibrated.tendons
        spies = {name: _spy(monkeypatch, home, name) for home, name in (
            (statics, "solve_static"), (energy, "find_equilibrium"),
            (energy, "balance_residuals"), (energy, "_tangent_balance"))}
        report = energy.equilibrium_report(
            unloaded_model(geom, specs), energy.random_tip_load_cases(3, 7, geom))
        assert report["summary"]["compared_cases"] == 3
        # Residuals at the energy pose; the tangent balance there and, for
        # the certificate's gradient norm, at the solver's pose alone.
        assert {name: len(calls) for name, calls in spies.items()} == {
            "solve_static": 3, "find_equilibrium": 3, "balance_residuals": 3,
            "_tangent_balance": 6}

    def test_stiffness_sweep(self, calibrated, monkeypatch):
        # A row needs only the solver's Newton loop, not a full solution.
        solves = _spy(monkeypatch, statics, "solve_static")
        calls = _spy(monkeypatch, statics, "_newton_iterates")
        rows = statics.stiffness_sweep(
            unloaded_model(calibrated.geometry, calibrated.tendons),
            [0.5, -1.0, 0.0, 3.0])
        assert [r.status for r in rows] == ["ok", "error: negative payload", "ok", "ok"]
        assert len(calls) == 3
        assert solves == []

    def test_cli_solve(self, monkeypatch, tmp_path):
        calls = _spy(monkeypatch, statics, "solve_static")
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["solve", "0", "--force", "0,-29.43",
                             "--out", str(tmp_path / "sol.json")])
        assert code == 0
        assert len(calls) == 1
