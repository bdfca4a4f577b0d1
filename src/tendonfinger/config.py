"""
JSON configuration documents: units, geometry, tendons, solver settings.

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
from .statics import DEFAULT_MAX_ITERATIONS, DEFAULT_THRESHOLD

LENGTH_UNITS = {"meters": 1.0, "m": 1.0, "millimeters": 1e-3, "mm": 1e-3}
MASS_UNITS = {"kilograms": 1.0, "kg": 1.0, "grams": 1e-3, "g": 1e-3}

_TOP_KEYS = {"units", "geometry", "tendons", "solver"}
_UNITS_KEYS = {"length", "mass"}
_GEOMETRY_KEYS = {
    "link_lengths", "guide_radii", "link_masses", "com_fractions", "gravity",
}
_TENDON_KEYS = {"group", "index", "youngs_modulus_pa", "diameter", "rest_length"}
_SOLVER_KEYS = {"threshold", "max_iterations"}


class SolverSettings(NamedTuple):
    threshold: float = DEFAULT_THRESHOLD
    max_iterations: int = DEFAULT_MAX_ITERATIONS


class FingerConfig(NamedTuple):
    """Parsed document. `tendons` is empty for geometry-only documents
    (sufficient for kinematics and workspace sweeps)."""

    geometry: FingerGeometry
    tendons: tuple[TendonSpec, ...]
    solver: SolverSettings


def default_config_path() -> Path:
    """The calibration document shipped with the package, beside this
    module in the package directory."""
    return Path(__file__).parent / "data" / "default.json"


def _check_keys(section: dict, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {where}")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing key '{key}' in {where}")
    return section[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    try:
        v = float(value)
    except OverflowError:  # an integer beyond float range
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(f"{where} must be finite")
    return v


def _triple(value, where: str) -> tuple[float, float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{where} must be a list of 3 numbers")
    return tuple(_number(v, f"{where}[{i}]") for i, v in enumerate(value))


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
    lengths = _triple(_require(geo, "link_lengths", "geometry"), "geometry.link_lengths")
    radii = _triple(_require(geo, "guide_radii", "geometry"), "geometry.guide_radii")
    masses = _triple(geo.get("link_masses", (0.0, 0.0, 0.0)), "geometry.link_masses")
    fracs = _triple(geo.get("com_fractions", (0.5, 0.5, 0.5)), "geometry.com_fractions")
    gravity = _number(geo.get("gravity", 9.81), "geometry.gravity")
    try:
        geometry = FingerGeometry(
            link_lengths=tuple(v * to_m for v in lengths),
            guide_radii=tuple(v * to_m for v in radii),
            link_masses=tuple(v * to_kg for v in masses),
            com_fractions=fracs,
            gravity_accel=gravity,
        )
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
        try:
            group = TendonGroup(group_name)
        except ValueError:
            raise ConfigError(
                f"{where}: group must be 'flexion' or 'extension', got '{group_name}'"
            ) from None
        index = _require(entry, "index", where)
        if type(index) is not int or index not in (1, 2, 3):  # no bool, no float
            raise ConfigError(f"{where}: index must be 1, 2 or 3")
        key = (group.value, index)
        if key in seen:
            raise ConfigError(f"{where}: duplicate tendon {key}")
        seen.add(key)

        e_pa = _number(_require(entry, "youngs_modulus_pa", where),
                       f"{where}.youngs_modulus_pa")
        diameter = _number(_require(entry, "diameter", where),
                           f"{where}.diameter") * to_m
        if diameter <= 0.0:
            raise ConfigError(f"{where}: diameter must be > 0")
        try:
            area = math.pi * diameter ** 2 / 4.0
        except OverflowError:
            raise ConfigError(f"{where}: diameter is too large") from None

        if index == 1:
            rest = _number(_require(entry, "rest_length", where),
                           f"{where}.rest_length") * to_m
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

        try:
            specs.append(TendonSpec(
                youngs_modulus=e_pa, cross_section_area=area,
                rest_length=rest, group=group, index=index,
            ))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None

    if "tendons" in doc and len(specs) != 6:
        raise ConfigError(f"expected 6 tendons (2 groups x 3), got {len(specs)}")

    solver_doc = doc.get("solver", {})
    _check_keys(solver_doc, _SOLVER_KEYS, "solver")
    threshold = _number(solver_doc.get("threshold", DEFAULT_THRESHOLD / to_m),
                        "solver.threshold") * to_m
    if threshold <= 0.0:
        raise ConfigError("solver.threshold must be > 0")
    max_iter = solver_doc.get("max_iterations", DEFAULT_MAX_ITERATIONS)
    if isinstance(max_iter, bool) or not isinstance(max_iter, int) or max_iter < 1:
        raise ConfigError("solver.max_iterations must be an integer >= 1")

    return FingerConfig(
        geometry=geometry,
        tendons=tuple(specs),
        solver=SolverSettings(threshold=threshold, max_iterations=max_iter),
    )


def load_finger_config(path) -> FingerConfig:
    """Read and parse a configuration document from disk."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config '{path}' is not valid JSON: {exc}") from None
    return parse_config(doc)
