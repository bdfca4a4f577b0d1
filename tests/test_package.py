import ast
import inspect

import tendonfinger
from tendonfinger import errors, statics


def test_every_error_class_is_exported():
    defined = {
        name for name, obj in inspect.getmembers(errors, inspect.isclass)
        if issubclass(obj, errors.TendonFingerError) and obj.__module__ == errors.__name__
    }
    assert "GridTooLarge" in defined and "ResolutionTooHigh" in defined
    for name in defined:
        assert getattr(tendonfinger, name) is getattr(errors, name)
    assert defined <= set(tendonfinger.__all__)


def test_statics_does_not_import_energy():
    # The potential model lives in statics; the energy oracle builds on
    # it, not the other way round.
    tree = ast.parse(inspect.getsource(statics))
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert "energy" not in imported
