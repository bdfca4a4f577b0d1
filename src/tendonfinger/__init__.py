"""Simulation toolkit for a synchronously coupled tendon-driven finger."""

__version__ = "0.1.0"

from .config import FingerConfig, SolverSettings, default_config_path, load_finger_config
from .energy import EquilibriumResult, equilibrium_report, find_equilibrium
from .errors import (
    BoundaryMinimum,
    ConfigError,
    GeometryInfeasible,
    NoConvergence,
    RangeExceeded,
    TendonFingerError,
)
from .model import (
    Configuration,
    ExternalLoad,
    FingerGeometry,
    TendonGroup,
    TendonSpec,
    coupling_angles,
    fingertip_from_displacement,
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
    "BoundaryMinimum",
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
    "SolverSettings",
    "StaticSolution",
    "TendonFingerError",
    "TendonGroup",
    "TendonSpec",
    "WrapGeometry",
    "coupling_angles",
    "default_config_path",
    "elongate_tendons",
    "equilibrium_report",
    "find_equilibrium",
    "fingertip_from_displacement",
    "forward_kinematics",
    "jacobian",
    "load_finger_config",
    "solve_static",
    "stiffness_sweep",
    "wrap_moment",
]
