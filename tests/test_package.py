import inspect

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
