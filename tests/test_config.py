import copy
import json
import math
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
        "solver": {"threshold": 0.001, "max_iterations": 100},
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
    doc["solver"]["threshold"] = 1e-6
    return doc


class TestUnits:
    def test_millimeter_gram_conversion(self):
        cfg = parse_config(base_doc())
        assert cfg.geometry.link_lengths == pytest.approx((0.06, 0.06, 0.051))
        assert cfg.geometry.link_masses == pytest.approx((0.01, 0.01, 0.01))
        assert cfg.solver.threshold == pytest.approx(1e-6)
        actuating = [t for t in cfg.tendons if t.index == 1][0]
        assert actuating.rest_length == pytest.approx(0.1)
        assert actuating.cross_section_area == pytest.approx(
            math.pi * 0.001 ** 2 / 4
        )

    def test_si_units_identity(self):
        cfg = parse_config(si_doc())
        assert cfg.geometry.link_lengths == pytest.approx((0.06, 0.06, 0.051))
        assert cfg.solver.threshold == pytest.approx(1e-6)

    def test_unsupported_unit(self):
        doc = base_doc()
        doc["units"]["length"] = "furlongs"
        with pytest.raises(ConfigError, match="furlongs"):
            parse_config(doc)

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
    def test_unknown_top_level_key(self):
        doc = base_doc()
        doc["extra_block"] = {}
        with pytest.raises(ConfigError, match="extra_block"):
            parse_config(doc)

    def test_unknown_geometry_key(self):
        doc = base_doc()
        doc["geometry"]["linc_lengths"] = [1, 2, 3]
        with pytest.raises(ConfigError, match="linc_lengths"):
            parse_config(doc)

    def test_unknown_tendon_key(self):
        doc = base_doc()
        doc["tendons"][0]["stiffness"] = 1.0
        with pytest.raises(ConfigError, match="stiffness"):
            parse_config(doc)

    def test_unknown_solver_key(self):
        doc = base_doc()
        doc["solver"]["tol"] = 1e-9
        with pytest.raises(ConfigError, match="tol"):
            parse_config(doc)

    @pytest.mark.parametrize("section", ["units", "geometry", "solver"])
    @pytest.mark.parametrize("value", [5, None, [], "x"])
    def test_section_not_an_object(self, section, value):
        doc = base_doc()
        doc[section] = value
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert str(exc.value) == f"{section} must be an object"

    def test_tendon_not_an_object(self):
        doc = base_doc()
        doc["tendons"][2] = 5
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert str(exc.value) == "tendons[2] must be an object"


class TestTendonRules:
    def test_duplicate_tendon(self):
        doc = base_doc()
        doc["tendons"][1]["index"] = 1
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(doc)

    def test_wrong_count(self):
        doc = base_doc()
        doc["tendons"] = doc["tendons"][:5]
        with pytest.raises(ConfigError, match="6 tendons"):
            parse_config(doc)

    @pytest.mark.parametrize("pos, index", [(1, 2.0), (0, True), (0, 1.0)])
    def test_index_must_be_an_integer(self, pos, index):
        # A bool or a float index is refused, not read as tendon 1 or 2.
        doc = base_doc()
        doc["tendons"][pos]["index"] = index
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert str(exc.value) == f"tendons[{pos}]: index must be 1, 2 or 3"

    def test_bad_group(self):
        doc = base_doc()
        doc["tendons"][0]["group"] = "middle"
        with pytest.raises(ConfigError, match="middle"):
            parse_config(doc)

    def test_coupling_rest_length_rejected(self):
        doc = base_doc()
        doc["tendons"][1]["rest_length"] = 30.0
        with pytest.raises(ConfigError, match="derived from geometry"):
            parse_config(doc)

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

    def test_present_block_must_be_complete(self):
        doc = base_doc()
        doc["tendons"] = doc["tendons"][:3]
        with pytest.raises(ConfigError, match="6 tendons"):
            parse_config(doc)


class TestGeometryValidation:
    def test_negative_length(self):
        doc = base_doc()
        doc["geometry"]["link_lengths"] = [-60.0, 60.0, 51.0]
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_guides_overlapping_span(self):
        doc = base_doc()
        doc["geometry"]["guide_radii"] = [40.0, 30.0, 5.0]
        with pytest.raises(ConfigError, match="clear the link spans"):
            parse_config(doc)

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

    def test_zero_threshold(self):
        doc = base_doc()
        doc["solver"]["threshold"] = 0.0
        with pytest.raises(ConfigError, match="threshold"):
            parse_config(doc)

    def test_bad_max_iterations(self):
        doc = base_doc()
        doc["solver"]["max_iterations"] = 0
        with pytest.raises(ConfigError, match="max_iterations"):
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

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_finger_config(tmp_path / "nope.json")

    def test_not_utf8_names_file(self, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"units": "\xff"}')
        with pytest.raises(ConfigError) as exc:
            load_finger_config(bad)
        assert str(exc.value).startswith(
            f"cannot read config '{bad}': 'utf-8' codec can't decode byte 0xff")

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_finger_config(bad)

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
    @example(path=("solver",), value=None)
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
