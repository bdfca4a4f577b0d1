import copy
import json
import math
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tendonfinger.config import (
    default_config_path,
    load_finger_config,
    parse_config,
)
from tendonfinger.errors import ConfigError, GeometryInfeasible
from tendonfinger.model import FingerGeometry, TendonGroup
from tendonfinger.potential import zero_pose_wrap


def base_doc():
    return {
        "units": {"length": "millimeters", "mass": "grams"},
        "geometry": {
            "link_lengths": [60.0, 60.0, 51.0],
            "guide_radii": [7.5, 6.0, 5.0],
            "link_masses": [10.0, 10.0, 10.0],
            "com_fractions": [0.5, 0.5, 0.5],
            "gravity": 9.81,
        },
        "tendons": [
            {"group": g, "index": i, "youngs_modulus_pa": 2.0e11, "diameter": 1.0,
             **({"rest_length": 100.0} if i == 1 else {})}
            for g in ("flexion", "extension") for i in (1, 2, 3)
        ],
    }


def si_doc():
    """`base_doc` in meters and kilograms."""
    doc = base_doc()
    doc["units"] = {"length": "meters", "mass": "kilograms"}
    doc["geometry"]["link_lengths"] = [0.06, 0.06, 0.051]
    doc["geometry"]["guide_radii"] = [0.0075, 0.006, 0.005]
    doc["geometry"]["link_masses"] = [0.01, 0.01, 0.01]
    for t in doc["tendons"]:
        t["diameter"] = 0.001
        if t["index"] == 1:
            t["rest_length"] = 0.1
    return doc


_DELETE = object()
_COUPLING_RULE = ("rest_length of coupling tendons (index 2, 3) is derived from "
                  "geometry and may not be set")
_WRAP_RULE = ("geometry: guide circles must clear the link spans "
              "(R1+R2 < L1 and R2+R3 < L2) to define coupling tendons")
# Guide circles that clear two 1e308 mm spans by one part in 2**52: the
# joint-2 coupling tendon's derived rest length overflows.
_NEAR_FULL = 0.5e308 * (1 - 2 ** -52)

# (path into base_doc, new value or _DELETE, the whole message of the refusal)
REFUSALS = [
    ((), 5, "config document must be a JSON object"),
    (("extra_block",), {}, "unknown key 'extra_block' in config document"),
    # The solver settings are command-line options only.
    (("solver",), {"threshold": 0.001, "max_iterations": 100},
     "unknown key 'solver' in config document"),
    (("units",), _DELETE, "missing key 'units' in config document"),
    (("units", "speed"), "mm/s", "unknown key 'speed' in units"),
    (("units", "mass"), _DELETE, "missing key 'mass' in units"),
    (("units", "length"), "furlongs", "unsupported length unit 'furlongs'"),
    (("units", "mass"), "stone", "unsupported mass unit 'stone'"),
    (("geometry",), _DELETE, "missing key 'geometry' in config document"),
    (("geometry", "linc_lengths"), [1, 2, 3], "unknown key 'linc_lengths' in geometry"),
    (("geometry", "guide_radii"), _DELETE, "missing key 'guide_radii' in geometry"),
    (("geometry", "link_lengths"), [60.0, 60.0],
     "geometry.link_lengths must be a list of 3 numbers"),
    (("geometry", "com_fractions"), "abc",
     "geometry.com_fractions must be a list of 3 numbers"),
    (("geometry", "link_masses"), [10.0, 10.0, "10"],
     "geometry.link_masses[2] must be a number"),
    (("geometry", "guide_radii"), [7.5, -(10 ** 400), 5.0],
     "geometry.guide_radii[1] must be finite"),
    (("geometry", "gravity"), "9.81", "geometry.gravity must be a number"),
    (("geometry", "gravity"), math.nan, "geometry.gravity must be finite"),
    (("geometry", "gravity"), -1, "geometry.gravity must be >= 0"),
    (("geometry", "link_lengths"), [-60.0, 60.0, 51.0],
     "geometry: link lengths must be >= 0"),
    (("geometry", "guide_radii"), [0.0, 6.0, 5.0], "geometry: guide radii must be > 0"),
    (("geometry", "link_masses"), [-1.0, 0.0, 0.0], "geometry: link masses must be >= 0"),
    (("geometry", "com_fractions"), [0.5, 1.5, 0.5],
     "geometry: com fractions must lie in [0, 1]"),
    (("geometry", "guide_radii"), [40.0, 30.0, 5.0], _WRAP_RULE),
    (("geometry",), {"link_lengths": [1e308, 1e308, 51.0],
                     "guide_radii": [_NEAR_FULL, _NEAR_FULL, 5.0]},
     "geometry: link spans and guide radii give a coupling tendon an "
     "infinite rest length"),
    (("tendons",), {}, "tendons must be a list"),
    (("tendons", 2), 5, "tendons[2] must be an object"),
    (("tendons", 0, "stiffness"), 1.0, "unknown key 'stiffness' in tendons[0]"),
    (("tendons", 3, "group"), _DELETE, "missing key 'group' in tendons[3]"),
    (("tendons", 0, "group"), "middle",
     "tendons[0]: group must be 'flexion' or 'extension', got 'middle'"),
    (("tendons", 0, "group"), ["flexion"],
     "tendons[0]: group must be 'flexion' or 'extension', got '['flexion']'"),
    (("tendons", 0, "index"), _DELETE, "missing key 'index' in tendons[0]"),
    (("tendons", 1, "index"), 4, "tendons[1]: index must be 1, 2 or 3"),
    (("tendons", 1, "index"), 1, "tendons[1]: duplicate tendon ('flexion', 1)"),
    (("tendons", 0, "youngs_modulus_pa"), _DELETE,
     "missing key 'youngs_modulus_pa' in tendons[0]"),
    (("tendons", 0, "youngs_modulus_pa"), "2e11",
     "tendons[0].youngs_modulus_pa must be a number"),
    (("tendons", 0, "youngs_modulus_pa"), 0, "tendons[0]: youngs_modulus_pa must be > 0"),
    (("tendons", 4, "diameter"), _DELETE, "missing key 'diameter' in tendons[4]"),
    (("tendons", 0, "diameter"), True, "tendons[0].diameter must be a number"),
    (("tendons", 0, "diameter"), 0.0, "tendons[0]: diameter must be > 0"),
    (("tendons", 0, "diameter"), 1e-200, "tendons[0]: diameter is too small"),
    (("tendons", 0, "diameter"), 1e200, "tendons[0]: diameter is too large"),
    (("tendons", 0, "diameter"), 1e157, "tendons[0]: diameter is too large"),
    (("tendons", 0, "rest_length"), _DELETE, "missing key 'rest_length' in tendons[0]"),
    (("tendons", 0, "rest_length"), "100", "tendons[0].rest_length must be a number"),
    (("tendons", 0, "rest_length"), 0.0, "tendons[0]: rest_length must be > 0"),
    (("tendons", 1, "rest_length"), 30.0, f"tendons[1]: {_COUPLING_RULE}"),
    (("tendons", 5), _DELETE, "expected 6 tendons (2 groups x 3), got 5"),
]


def _edited(path, value):
    """`base_doc` with the node at `path` replaced, or deleted."""
    doc = base_doc()
    if not path:
        return value
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _ordered(doc):
    """`doc` with every object rebuilt as an OrderedDict."""
    if isinstance(doc, dict):
        return OrderedDict((k, _ordered(v)) for k, v in doc.items())
    if isinstance(doc, list):
        return [_ordered(v) for v in doc]
    return doc


class TestRefusals:
    """Every refusal of `parse_config` and `load_finger_config`, as its
    whole message, and what the documents they accept must keep."""

    @pytest.mark.parametrize("path, value, message", REFUSALS)
    def test_document_refusal(self, path, value, message):
        with pytest.raises(ConfigError) as exc:
            parse_config(_edited(path, value))
        assert str(exc.value) == message

    @pytest.mark.parametrize("name, content, message", [
        ("bad.json", b"{not json", "config '{path}' is not valid JSON: Expecting "
         "property name enclosed in double quotes: line 1 column 2 (char 1)"),
        # Universal newlines: a CRLF document's error position counts
        # each line end as one character.
        ("crlf.json", b'{\r\n  "units": {"length": "mm", "mass": "g"},\r\n'
         b'  "geometry": ,\r\n}\r\n',
         "config '{path}' is not valid JSON: Expecting value: line 3 column 15 (char 58)"),
        ("latin1.json", b'{"units": "\xff"}', "cannot read config '{path}': 'utf-8' "
         "codec can't decode byte 0xff in position 11: invalid start byte"),
        ("empty.json", b"",
         "config '{path}' is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ])
    def test_file_refusal(self, tmp_path, name, content, message):
        path = tmp_path / name
        path.write_bytes(content)
        with pytest.raises(ConfigError) as exc:
            load_finger_config(path)
        assert str(exc.value) == message.format(path=path)

    def test_unreadable_file_refusal(self, tmp_path):
        missing = tmp_path / "nope.json"
        for path, reason in ((missing, f"[Errno 2] No such file or directory: '{missing}'"),
                             (tmp_path, f"[Errno 21] Is a directory: '{tmp_path}'")):
            with pytest.raises(ConfigError) as exc:
                load_finger_config(str(path))
            assert str(exc.value) == f"cannot read config '{path}': {reason}"

    def test_byte_order_mark_accepted(self, tmp_path):
        shipped = default_config_path().read_bytes()
        marked = tmp_path / "bom.json"
        marked.write_bytes(b"\xef\xbb\xbf" + shipped)
        assert load_finger_config(marked) == load_finger_config(default_config_path())

    def test_ordered_dict_document(self):
        assert parse_config(_ordered(base_doc())) == parse_config(base_doc())

    def test_lengths_are_exactly_scaled(self):
        # Each dimensioned value is v * 1e-3 to the last bit, not a value
        # rounded twice: 51 mm is 0.051000000000000004 m.
        cfg = parse_config(base_doc())
        geom, doc = cfg.geometry, base_doc()["geometry"]
        assert geom.link_lengths == tuple(v * 1e-3 for v in doc["link_lengths"])
        assert geom.link_lengths[2] == 0.051000000000000004
        assert geom.guide_radii == tuple(v * 1e-3 for v in doc["guide_radii"])
        assert geom.link_masses == tuple(v * 1e-3 for v in doc["link_masses"])
        assert geom.com_fractions == (0.5, 0.5, 0.5)
        actuating = cfg.tendons[0]
        assert actuating.rest_length == 100.0 * 1e-3
        assert actuating.cross_section_area == math.pi * (1.0 * 1e-3) ** 2 / 4.0


class TestUnits:
    def test_millimeter_gram_conversion(self):
        cfg = parse_config(base_doc())
        assert cfg.geometry.link_lengths == pytest.approx((0.06, 0.06, 0.051))
        assert cfg.geometry.link_masses == pytest.approx((0.01, 0.01, 0.01))
        actuating = [t for t in cfg.tendons if t.index == 1][0]
        assert actuating.rest_length == pytest.approx(0.1)
        assert actuating.cross_section_area == pytest.approx(
            math.pi * 0.001 ** 2 / 4
        )

    def test_si_units_identity(self):
        cfg = parse_config(si_doc())
        assert cfg.geometry.link_lengths == pytest.approx((0.06, 0.06, 0.051))

    @pytest.mark.parametrize("key, name, message", [
        ("length", [], "unsupported length unit '[]'"),
        ("mass", {}, "unsupported mass unit '{}'"),
    ])
    def test_unhashable_unit_name(self, key, name, message):
        doc = base_doc()
        doc["units"][key] = name
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert str(exc.value) == message


class TestStrictKeys:
    @pytest.mark.parametrize("section", ["units", "geometry"])
    @pytest.mark.parametrize("value", [5, None, [], "x"])
    def test_section_not_an_object(self, section, value):
        doc = base_doc()
        doc[section] = value
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert str(exc.value) == f"{section} must be an object"



class TestTendonRules:
    @pytest.mark.parametrize("pos, index", [(1, 2.0), (0, True), (0, 1.0)])
    def test_index_must_be_an_integer(self, pos, index):
        # A bool or a float index is refused, not read as tendon 1 or 2.
        doc = base_doc()
        doc["tendons"][pos]["index"] = index
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert str(exc.value) == f"tendons[{pos}]: index must be 1, 2 or 3"

    def test_coupling_rest_lengths_derived(self):
        cfg = parse_config(base_doc())
        flex = {t.index: t for t in cfg.tendons if t.group is TendonGroup.FLEXION}
        # alpha_0 = pi - arccos((R_prox + R_dist) / span), rest length
        # (alpha_0 - cot alpha_0) * (R_prox + R_dist)
        a20 = math.pi - math.acos(0.0135 / 0.06)
        expect2 = (a20 - 1 / math.tan(a20)) * 0.0135
        assert flex[2].rest_length == pytest.approx(expect2, rel=1e-12)


class TestGeometryOnly:
    def test_tendons_block_optional(self):
        doc = base_doc()
        del doc["tendons"]
        cfg = parse_config(doc)
        assert cfg.tendons == ()

    def test_degenerate_links_parse_without_tendons(self):
        # Single-link sweeps need zero-length distal links, which a
        # coupling-tendon definition could not support.
        doc = base_doc()
        del doc["tendons"]
        doc["geometry"]["link_lengths"] = [60.0, 0.0, 0.0]
        cfg = parse_config(doc)
        assert cfg.geometry.link_lengths == pytest.approx((0.06, 0.0, 0.0))


class TestGeometryValidation:
    @pytest.mark.parametrize("key, value, message", [
        ("link_lengths", ["60", " 60 ", 51], "geometry.link_lengths[0] must be a number"),
        ("link_masses", [True, "10", 10], "geometry.link_masses[0] must be a number"),
        ("guide_radii", [7.5, None, 5.0], "geometry.guide_radii[1] must be a number"),
        ("com_fractions", [0.5, 0.5, 10 ** 400],
         "geometry.com_fractions[2] must be finite"),
    ])
    def test_triple_entries_are_numbers(self, key, value, message):
        # The one number rule of scalar settings: no strings, no bools.
        doc = base_doc()
        doc["geometry"][key] = value
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert str(exc.value) == message

    @settings(max_examples=50, deadline=None)
    @given(lengths=st.tuples(*[st.floats(0.0, 0.2)] * 3),
           radii=st.tuples(*[st.floats(1e-6, 0.1)] * 3))
    @example(lengths=(0.0075 + 0.006, 0.06, 0.051), radii=(0.0075, 0.006, 0.005))
    @example(lengths=(0.06, 0.006 + 0.005, 0.051), radii=(0.0075, 0.006, 0.005))
    @example(lengths=(0.0, 0.06, 0.051), radii=(0.0075, 0.006, 0.005))
    def test_refused_exactly_when_wrap_undefined(self, lengths, radii):
        # The coupling tendons' one feasibility check is zero_pose_wrap's.
        doc = si_doc()
        doc["geometry"]["link_lengths"] = list(lengths)
        doc["geometry"]["guide_radii"] = list(radii)
        try:
            zero_pose_wrap(FingerGeometry(link_lengths=lengths, guide_radii=radii))
        except GeometryInfeasible:
            with pytest.raises(ConfigError, match="clear the link spans"):
                parse_config(doc)
        else:
            parse_config(doc)


class TestFiles:
    def test_default_config_path_is_the_package_resource(self):
        from importlib import resources

        assert default_config_path() == Path(
            resources.files("tendonfinger").joinpath("data/default.json"))

    def test_default_config_loads(self):
        cfg = load_finger_config(default_config_path())
        assert len(cfg.tendons) == 6
        assert cfg.geometry.total_length == pytest.approx(0.171)

    def test_solution_json_round_trip(self, calibrated):
        from tendonfinger.model import ExternalLoad
        from tendonfinger.potential import PotentialModel
        from tendonfinger.statics import solution_to_dict, solve_static
        geom, specs = calibrated.geometry, calibrated.tendons
        load = ExternalLoad.tip_payload(2.0, geom.gravity_accel)
        model = PotentialModel(geom, specs, load, 0.0)
        sol = solve_static(model)
        doc = json.loads(json.dumps(solution_to_dict(sol, model)))
        assert doc["deflection_y_m"] == sol.deflection_y
        assert tuple(doc["theta_rad"]) == sol.configuration.theta
        assert tuple(doc["tensions_n"]) == model.tensions(sol.configuration.theta)[0]
        assert doc["deflection_y_mm"] == sol.deflection_y * 1e3


def _nodes(doc, path=()):
    """Path of every node of a JSON document, the root's included."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _nodes(value, path + (i,))


SHIPPED = json.loads(default_config_path().read_text(encoding="utf-8"))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=3)),
    max_leaves=6,
)


class TestAnyDocument:
    @settings(max_examples=50, deadline=None)
    @given(path=st.sampled_from(list(_nodes(SHIPPED))), value=JSON_VALUES)
    @example(path=("units",), value=5)
    @example(path=("geometry",), value=None)
    @example(path=("tendons", 1, "index"), value=2.0)
    @example(path=("tendons", 0, "diameter"), value=1e200)
    @example(path=("geometry", "gravity"), value=10 ** 400)
    def test_loads_or_config_error(self, tmp_path_factory, path, value):
        # One node of the shipped document replaced by any JSON value,
        # nan and infinities included: the document loads or is refused
        # with a ConfigError, never another exception.
        doc = copy.deepcopy(SHIPPED)
        if path:
            parent = doc
            for step in path[:-1]:
                parent = parent[step]
            parent[path[-1]] = value
        else:
            doc = value
        target = tmp_path_factory.mktemp("doc") / "config.json"
        target.write_text(json.dumps(doc), encoding="utf-8")
        try:
            load_finger_config(target)
        except ConfigError:
            pass
