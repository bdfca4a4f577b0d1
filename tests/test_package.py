import ast
import contextlib
import inspect
import io
import sys
from pathlib import Path

import tendonfinger
from tendonfinger import cli, energy, errors, model, statics


def test_every_error_class_is_exported():
    defined = {
        name for name, obj in inspect.getmembers(errors, inspect.isclass)
        if issubclass(obj, errors.TendonFingerError) and obj.__module__ == errors.__name__
    }
    assert defined == {
        "TendonFingerError", "ConfigError", "RangeExceeded",
        "GeometryInfeasible", "BoundaryMinimum", "NoConvergence",
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


def test_model_is_plain_floats():
    # The data model and kinematics compute in plain floats; numpy stays
    # with the layers that evaluate arrays.
    tree = ast.parse(Path(model.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert "numpy" not in imported


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
            (energy, "balance_residuals"))}
        report = energy.equilibrium_report(
            geom, specs, 0.0, energy.random_tip_load_cases(3, 7, geom))
        assert report["summary"]["compared_cases"] == 3
        assert {name: len(calls) for name, calls in spies.items()} == {
            "solve_static": 3, "find_equilibrium": 3, "balance_residuals": 3}

    def test_stiffness_sweep(self, calibrated, monkeypatch):
        calls = _spy(monkeypatch, statics, "solve_static")
        rows = statics.stiffness_sweep(calibrated.geometry, calibrated.tendons,
                                       0.0, [0.5, -1.0, 0.0, 3.0])
        assert [r.status for r in rows] == ["ok", "error: negative payload", "ok", "ok"]
        assert len(calls) == 3

    def test_cli_solve(self, monkeypatch, tmp_path):
        calls = _spy(monkeypatch, statics, "solve_static")
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["solve", "0", "--force", "0,-29.43",
                             "--out", str(tmp_path / "sol.json")])
        assert code == 0
        assert len(calls) == 1
