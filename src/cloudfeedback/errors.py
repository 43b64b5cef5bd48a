"""Exception taxonomy.

Two families matter to the CLI: ConfigError descendants mean the request
itself was malformed (exit 2), everything else derived from ToolkitError is
a numerical failure of a well-formed request (exit 3).
"""


class ToolkitError(Exception):
    """Base class for all package errors."""


class ConfigError(ToolkitError):
    """Malformed or inconsistent input parameters."""


class ZeroShiftRate(ConfigError):
    """eta is undefined for zeta = 0."""


class NonPositiveRate(ConfigError):
    """Discrete feedback rate gamma must be positive."""


class NotNormalized(ConfigError):
    """State or orbital vector is not normalized."""


class DimensionTooLarge(ConfigError):
    """Requested Fock sector holds more states than the oracle's 1000."""


class CutoffTooTight(ToolkitError):
    """Thermal truncation retains less than the required weight."""


class TruncationLeak(ToolkitError):
    """Significant amplitude touches the top orbital of the truncated basis."""


class GridTooCoarse(ToolkitError):
    """Quadrature grid cannot represent the density to tolerance."""


class NegativeRadicand(ToolkitError):
    """Asymptotic cloud-size formula has no real value here."""


class StepRejected(ToolkitError):
    """Propagated covariance lost positive semidefiniteness."""


class SingularLyapunov(ToolkitError):
    """No stationary solution without damping (zeta = 0)."""


class PositivityLoss(ToolkitError):
    """Density matrix developed a negative eigenvalue beyond tolerance."""


class NonFiniteCell(ToolkitError):
    """An artifact cell came out NaN or infinite."""


class MinResolution(ToolkitError):
    """Measurement resolution below machine-meaningful size."""


class NonConvergence(ToolkitError):
    """Search failed to converge; best-so-far attached as .report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class TimescaleViolation(UserWarning):
    """Feedback rate not well separated from the trap frequency."""
