import json
import math

import pytest

from tendonfinger.config import (
    default_config_path,
    load_finger_config,
    parse_config,
)
from tendonfinger.errors import ConfigError
from tendonfinger.model import TendonGroup


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
        cfg = parse_config(doc)
        assert cfg.geometry.link_lengths == pytest.approx((0.06, 0.06, 0.051))
        assert cfg.solver.threshold == pytest.approx(1e-6)

    def test_unsupported_unit(self):
        doc = base_doc()
        doc["units"]["length"] = "furlongs"
        with pytest.raises(ConfigError, match="furlongs"):
            parse_config(doc)


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
    def test_default_config_loads(self):
        cfg = load_finger_config(default_config_path())
        assert len(cfg.tendons) == 6
        assert cfg.geometry.total_length == pytest.approx(0.171)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_finger_config(tmp_path / "nope.json")

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
        sol = solve_static(PotentialModel(geom, specs, load, 0.0))
        doc = json.loads(json.dumps(solution_to_dict(sol)))
        assert doc["deflection_y_m"] == sol.deflection_y
        assert tuple(doc["theta_rad"]) == sol.configuration.theta
        assert tuple(doc["tensions_n"]) == sol.tensions.as_tuple()
        assert doc["deflection_y_mm"] == sol.deflection_y * 1e3
