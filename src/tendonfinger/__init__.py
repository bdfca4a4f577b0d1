"""Simulation toolkit for a synchronously coupled tendon-driven finger."""

__version__ = "0.1.0"

from .config import FingerConfig, default_config_path, load_finger_config
from .energy import EquilibriumResult, equilibrium_report, find_equilibrium
from .errors import (
    ConfigError,
    GeometryInfeasible,
    NoConvergence,
    RangeExceeded,
    TendonFingerError,
    UnprovenMinimum,
)
from .model import (
    Configuration,
    ExternalLoad,
    FingerGeometry,
    TendonGroup,
    TendonSpec,
    coupling_angles,
    forward_kinematics,
    jacobian,
)
from .potential import PotentialModel, WrapGeometry
from .statics import (
    StaticSolution,
    elongate_tendons,
    solve_static,
    stiffness_sweep,
    wrap_moment,
)
from .workspace import OccupancyGrid

__all__ = [
    "__version__",
    "ConfigError",
    "Configuration",
    "EquilibriumResult",
    "ExternalLoad",
    "FingerConfig",
    "FingerGeometry",
    "GeometryInfeasible",
    "NoConvergence",
    "OccupancyGrid",
    "PotentialModel",
    "RangeExceeded",
    "StaticSolution",
    "TendonFingerError",
    "TendonGroup",
    "TendonSpec",
    "UnprovenMinimum",
    "WrapGeometry",
    "coupling_angles",
    "default_config_path",
    "elongate_tendons",
    "equilibrium_report",
    "find_equilibrium",
    "forward_kinematics",
    "jacobian",
    "load_finger_config",
    "solve_static",
    "stiffness_sweep",
    "wrap_moment",
]
