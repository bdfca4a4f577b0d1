import ast
import inspect
from pathlib import Path

import tendonfinger
from tendonfinger import errors


def test_every_error_class_is_exported():
    defined = {
        name for name, obj in inspect.getmembers(errors, inspect.isclass)
        if issubclass(obj, errors.TendonFingerError) and obj.__module__ == errors.__name__
    }
    assert "GridTooLarge" in defined and "ResolutionTooHigh" in defined
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


def test_no_private_name_crosses_a_module():
    crossing = [
        (name, module, alias)
        for name, found in _package_imports().items()
        for module, aliases in found
        for alias in aliases
        if alias.startswith("_") and alias != "__version__"
    ]
    assert crossing == []
