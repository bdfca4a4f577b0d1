"""Exception types shared across the package."""


class TendonFingerError(Exception):
    """Base class for model and solver failures."""


class ConfigError(TendonFingerError):
    """Configuration document is malformed or violates an invariant."""


class RangeExceeded(TendonFingerError):
    """A joint angle left its allowed range."""


class GeometryInfeasible(TendonFingerError):
    """Wrap-angle geometry is undefined for the given configuration."""


class TensionInfeasible(TendonFingerError):
    """No single tendon group can hold the requested load."""


class NoConvergence(TendonFingerError):
    """Static solve did not reach the residual threshold.

    Carries the iteration trace so callers can still write diagnostics.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class ResolutionTooLow(TendonFingerError):
    """Workspace sweep resolution below the minimum of 2."""


class ResolutionTooHigh(TendonFingerError):
    """Workspace sweep resolution whose sweep exceeds the memory budget."""


class GridTooLarge(TendonFingerError):
    """Occupancy cell size whose grid exceeds the memory budget."""


class EmptyCloud(TendonFingerError):
    """Occupancy grid requested for a cloud with no points."""


class BoundaryMinimum(TendonFingerError):
    """Energy minimum landed on the search-box boundary; widen the box."""
