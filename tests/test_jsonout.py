import enum
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tendonfinger.jsonout import dumps

SCALARS = (st.none() | st.booleans() | st.integers() | st.text()
           | st.floats(allow_nan=True, allow_infinity=True))
KEYS = (st.text() | st.integers() | st.booleans() | st.none()
        | st.floats(allow_nan=True, allow_infinity=True))
DOCS = st.recursive(
    SCALARS,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=4).map(tuple)
                  | st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=4)
                  | st.dictionaries(KEYS, kids, max_size=4)),
    max_leaves=20,
)


class Level(enum.IntEnum):
    HIGH = 3


class Tilted(float):
    def __repr__(self):
        return "tilted"


class Named(str):
    pass


class TestSameTextAsJson:
    """`dumps(doc)` is `json.dumps(doc, indent=2)`, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(doc=DOCS)
    @example(doc=[math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 1e300])
    @example(doc=[1.5, math.nan])
    @example(doc=[1.5, 2, True, None, "x"])
    @example(doc=((0.1, 0.2), (), {}, [], [[]], [{}], {"": {}}))
    @example(doc={"é中\U0001f600": "\x00\x1f\x7f\n\t\"\\ ",
                  "\x01": ["\ud800", "café"]})
    @example(doc={1: "a", 2.5: "b", True: "c", None: "d", math.nan: "e",
                  -math.inf: "f", -0.0: "g"})
    @example(doc={"tension_groups": ["flexion"], "iterations": 4,
                  "residual_m": None, "within_tolerance": False})
    def test_property(self, doc):
        assert dumps(doc) == json.dumps(doc, indent=2)

    def test_subclasses_are_written_as_their_base(self):
        doc = {Named("k"): [Level.HIGH, Tilted(0.25), Named("v")],
               Level.HIGH: [Tilted(0.5), Tilted(math.nan), 1.0],
               "floats": [1.0, Tilted(2.0)]}
        assert dumps(doc) == json.dumps(doc, indent=2)


class TestRefusesWhatJsonRefuses:
    @pytest.mark.parametrize("doc", [
        {1, 2},
        b"bytes",
        1j,
        object(),
        [1.0, 2.0, {3}],
        [1.0, b"x"],
        {"a": [0.5, {"b": (1, frozenset())}]},
        {(1, 2): 3},
        {"ok": 1, b"key": 2},
        [{"a": 1}, {object(): 2}],
    ])
    def test_same_type_error(self, doc):
        with pytest.raises(TypeError) as expected:
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError) as got:
            dumps(doc)
        assert str(got.value) == str(expected.value)
