"""Exception types shared across the package.

Each class carries the exit code the command-line front end returns for
it. Every refused input is a ConfigError (exit 1): a malformed document
or argument, an unreadable or unwritable file, a workspace sweep or grid
over its memory budget. The four verdicts are named by the CLI:
RangeExceeded, GeometryInfeasible and UnprovenMinimum (exit 2) and
NoConvergence (exit 3). This is the CLI's only mapping from
failures to exit codes: it catches TendonFingerError alone, so any other
exception is a bug, not a verdict.
"""


class TendonFingerError(Exception):
    """Base class for model and solver failures."""

    exit_code = 1


class ConfigError(TendonFingerError):
    """A configuration document is malformed or violates an invariant, a
    command argument is malformed or out of range, an input or output
    file cannot be read or written, or a requested workspace sweep or
    grid is empty or exceeds its memory budget."""

    exit_code = 1


class RangeExceeded(TendonFingerError):
    """A joint angle left its allowed range."""

    exit_code = 2


class GeometryInfeasible(TendonFingerError):
    """Wrap-angle geometry is undefined for the given configuration."""

    exit_code = 2


class NoConvergence(TendonFingerError):
    """Static solve did not reach the residual threshold, or a Newton
    step left the finite numbers.

    Carries the solver's iteration trace so callers can still write
    diagnostics.
    """

    exit_code = 3

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class UnprovenMinimum(TendonFingerError):
    """The energy oracle's Newton steps found no minimum, or neither its
    global nor its local certificate proves the one they found."""

    exit_code = 2
