"""
Indented JSON text: `dumps(doc)` is `json.dumps(doc, indent=2)`, byte for
byte, written faster.

With an indent, the standard library leaves its C encoder and runs one
generator per container in Python. Most of this package's documents are
lists of floats (poses, tensions, lengths), so `dumps` joins a list of
finite floats in one `str.join` over `float.__repr__`, the call json
itself makes for a float. Strings go through json's own ASCII escaper,
ints through `int.__repr__`, NaN and the infinities as `NaN`, `Infinity`
and `-Infinity`, tuples as arrays. Anything else (a value of another
type, or a dict with a key that is not a string) is handed to json
itself, so it is written, or refused with json's TypeError, as json
does. A container that holds itself raises RecursionError where json
raises ValueError.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _string

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(value) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


def _value(value, indent: str) -> str:
    """`value` as JSON text whose line breaks are followed by `indent`'s
    spaces; `indent` starts with the newline.

    The checks run from the commonest type down. Their order matters only
    where a value could pass two of them, and of the checked types only a
    bool is also an int, so True and False are tested before int."""
    if isinstance(value, float):
        return _float(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        try:
            return ("{" + inner
                    + ("," + inner).join([_string(k) + ": " + _value(v, inner)
                                          for k, v in value.items()])
                    + indent + "}")
        except TypeError:  # a key that is not a str, or a value json refuses
            pass
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        sep = "," + inner
        if type(value[0]) is float:
            try:
                text = sep.join(map(float.__repr__, value))
            except TypeError:  # an item that is not a float
                pass
            else:
                if "n" not in text:  # no nan, inf or -inf among them
                    return "[" + inner + text + indent + "]"
        return "[" + inner + sep.join([_value(v, inner) for v in value]) + indent + "]"
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return json.dumps(value, indent=2).replace("\n", indent)


def dumps(doc) -> str:
    """`json.dumps(doc, indent=2)`: the same text, with no trailing newline."""
    return _value(doc, "\n")
