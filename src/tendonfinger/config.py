"""
JSON configuration documents: units, geometry, tendons.

A document declares its length and mass units once in a `units` block;
every dimensioned value is converted to SI exactly once here. Unknown
keys anywhere in the document are rejected, not ignored. The full schema
with an annotated example lives in docs/config.md.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError, GeometryInfeasible
from .model import FingerGeometry, TendonGroup, TendonSpec
from .potential import zero_pose_wrap

LENGTH_UNITS = {"meters": 1.0, "m": 1.0, "millimeters": 1e-3, "mm": 1e-3}
MASS_UNITS = {"kilograms": 1.0, "kg": 1.0, "grams": 1e-3, "g": 1e-3}

_TOP_KEYS = {"units", "geometry", "tendons"}
_UNITS_KEYS = {"length", "mass"}
_GEOMETRY_KEYS = {
    "link_lengths", "guide_radii", "link_masses", "com_fractions", "gravity",
}
_TENDON_KEYS = {"group", "index", "youngs_modulus_pa", "diameter", "rest_length"}


class FingerConfig(NamedTuple):
    """Parsed document. `tendons` is empty for geometry-only documents
    (sufficient for kinematics and workspace sweeps)."""

    geometry: FingerGeometry
    tendons: tuple[TendonSpec, ...]


_DEFAULT_CONFIG_PATH = Path(__file__).parent / "data" / "default.json"
_GROUPS = {group.value: group for group in TendonGroup}


def default_config_path() -> Path:
    """The calibration document shipped with the package, beside this
    module: a path built once, at import, to a file read on every load."""
    return _DEFAULT_CONFIG_PATH


def _check_keys(section: dict, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    if not section.keys() <= allowed:
        key = next(key for key in section if key not in allowed)
        raise ConfigError(f"unknown key '{key}' in {where}")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing key '{key}' in {where}")
    return section[key]


def _number(value, *label: str) -> float:
    # The label's parts are joined only for a refusal, not for every value.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{''.join(label)} must be a number")
    try:
        v = float(value)
    except OverflowError:  # an integer beyond float range
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(f"{''.join(label)} must be finite")
    return v


def _triple(geo: dict, key: str, scale: float, default=None) -> tuple[float, float, float]:
    value = _require(geo, key, "geometry") if default is None else geo.get(key, default)
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"geometry.{key} must be a list of 3 numbers")
    a, b, c = value
    return (_number(a, "geometry.", key, "[0]") * scale,
            _number(b, "geometry.", key, "[1]") * scale,
            _number(c, "geometry.", key, "[2]") * scale)


def _positive(entry: dict, key: str, where: str) -> float:
    value = _number(_require(entry, key, where), where, ".", key)
    if value <= 0.0:
        raise ConfigError(f"{where}: {key} must be > 0")
    return value


def parse_config(doc: dict) -> FingerConfig:
    """Validate and convert a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "config document")

    units = _require(doc, "units", "config document")
    _check_keys(units, _UNITS_KEYS, "units")
    length_name = _require(units, "length", "units")
    mass_name = _require(units, "mass", "units")
    if not isinstance(length_name, str) or length_name not in LENGTH_UNITS:
        raise ConfigError(f"unsupported length unit '{length_name}'")
    if not isinstance(mass_name, str) or mass_name not in MASS_UNITS:
        raise ConfigError(f"unsupported mass unit '{mass_name}'")
    to_m = LENGTH_UNITS[length_name]
    to_kg = MASS_UNITS[mass_name]

    geo = _require(doc, "geometry", "config document")
    _check_keys(geo, _GEOMETRY_KEYS, "geometry")
    lengths = _triple(geo, "link_lengths", to_m)
    radii = _triple(geo, "guide_radii", to_m)
    masses = _triple(geo, "link_masses", to_kg, (0.0, 0.0, 0.0))
    fracs = _triple(geo, "com_fractions", 1.0, (0.5, 0.5, 0.5))
    gravity = _number(geo.get("gravity", 9.81), "geometry.gravity")
    if gravity < 0.0:
        raise ConfigError("geometry.gravity must be >= 0")
    try:
        geometry = FingerGeometry(lengths, radii, masses, fracs, gravity)
    except ValueError as exc:
        raise ConfigError(f"geometry: {exc}") from None

    tendon_docs = doc.get("tendons", [])
    if not isinstance(tendon_docs, list):
        raise ConfigError("tendons must be a list")
    wrap = None
    specs: list[TendonSpec] = []
    seen: set[tuple[str, int]] = set()
    for pos, entry in enumerate(tendon_docs):
        where = f"tendons[{pos}]"
        _check_keys(entry, _TENDON_KEYS, where)
        group_name = _require(entry, "group", where)
        group = _GROUPS.get(group_name) if isinstance(group_name, str) else None
        if group is None:
            raise ConfigError(
                f"{where}: group must be 'flexion' or 'extension', got '{group_name}'")
        index = _require(entry, "index", where)
        if type(index) is not int or index not in (1, 2, 3):  # no bool, no float
            raise ConfigError(f"{where}: index must be 1, 2 or 3")
        key = (group.value, index)
        if key in seen:
            raise ConfigError(f"{where}: duplicate tendon {key}")
        seen.add(key)

        e_pa = _positive(entry, "youngs_modulus_pa", where)
        diameter = _positive(entry, "diameter", where) * to_m
        try:
            area = math.pi * diameter ** 2 / 4.0
        except OverflowError:
            area = math.inf
        if not 0.0 < area < math.inf:
            raise ConfigError(
                f"{where}: diameter is too {'small' if area == 0.0 else 'large'}")

        if index == 1:
            rest = _positive(entry, "rest_length", where) * to_m
        else:
            if "rest_length" in entry:
                raise ConfigError(
                    f"{where}: rest_length of coupling tendons (index 2, 3) "
                    f"is derived from geometry and may not be set"
                )
            if wrap is None:
                try:
                    wrap = zero_pose_wrap(geometry)
                except GeometryInfeasible:
                    raise ConfigError(
                        "geometry: guide circles must clear the link spans "
                        "(R1+R2 < L1 and R2+R3 < L2) to define coupling tendons"
                    ) from None
            rest = wrap.rest_length_2 if index == 2 else wrap.rest_length_3
            if rest == math.inf:  # circles that all but fill a huge span
                raise ConfigError(
                    "geometry: link spans and guide radii give a coupling "
                    "tendon an infinite rest length")

        try:
            specs.append(TendonSpec(e_pa, area, rest, group, index))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None

    if "tendons" in doc and len(specs) != 6:
        raise ConfigError(f"expected 6 tendons (2 groups x 3), got {len(specs)}")

    return FingerConfig(geometry, tuple(specs))


def load_finger_config(path) -> FingerConfig:
    """Read, decode and validate a configuration document on every call: UTF-8,
    a leading byte-order mark allowed, in text mode (CRLF counts once)."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config '{Path(path)}': {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config '{Path(path)}' is not valid JSON: {exc}") from None
    return parse_config(doc)
