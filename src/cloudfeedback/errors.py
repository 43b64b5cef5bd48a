"""Exception taxonomy, and the resource budgets every refusal is checked against.

Two families matter to the CLI: ConfigError descendants mean the request
itself was malformed (exit 2), everything else derived from ToolkitError is
a numerical failure of a well-formed request (exit 3).  Every cap a run may
be refused at is one row of BUDGETS, compared with a count only by
check_budget, and every count a refusal echoes is printed by sig.
"""

import math
import numbers
from typing import NamedTuple


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
    """Requested Fock sector holds more states than the oracle's budget."""


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


class Budget(NamedTuple):
    cap: int  # the most units a run may ask for
    unit: str
    error: type  # what check_budget raises past the cap
    reason: str


# every refusing cap, checked before the work it bounds starts
BUDGETS = {
    "rows": Budget(1_000_000, "rows", ConfigError,  # fock
                   "rows of a sector, support, applied vector or rank table: 100 MB at M = 8"),
    "cells": Budget(8_000_000, "cells", ConfigError,
                    "rows x M enumerated: a sector over M > 8 gets the bytes of M = 8"),
    "rank": Budget(2**62 - 1, "keys", ConfigError,
                   "sector ranks and member-labelled row keys stay below 2^62 in int64"),
    "modes": Budget(1000, "orbitals", ConfigError,
                    "the oracle's sector cap, so each N = 1 sector the oracle takes fits"),
    "sector": Budget(1000, "states", DimensionTooLarge,  # oracle
                     "rho and each Taylor term are dense d x d complex, 16 MB at d = 1000"),
    "steps": Budget(2**20, "steps", ConfigError, "steps one step clock holds"),
    # a product takes 22 us at d = 2 and 0.13 s at d = 969 on one BLAS thread
    # of a 2-vCPU Xeon VM
    "products": Budget(2**18, "generator products", ConfigError,
                       "degree x substeps of one integrate call: under a minute at d = 2"),
    "work": Budget(2**34, "multiply-adds", ConfigError,
                   "products x stored stack entries x d: under a minute at d = 969"),
    "trajectories": Budget(2**16, "trajectories", ConfigError,  # loop
                           "each keeps its own Generator (about 1 KB) for the whole run"),
    "events": Budget(2**20, "events", ConfigError, "round(t_max * gamma) per trajectory"),
    "traj_events": Budget(2**28, "trajectory-events", ConfigError,
                          "K round(t_max * gamma), over the ensemble"),
    "params": Budget(64, "real parameters", ConfigError,  # search
                     "a simplex of p + 1 vertices; fixed_N_pure stacks three p x p forms"),
    "iterations": Budget(2**22, "Nelder-Mead iterations", ConfigError, "restarts * max_iter"),
    "setup": Budget(2**22, "set-up evaluations", ConfigError,
                    "start point and first simplex of each restart, restarts * (p + 2)"),
    "grid": Budget(100_000, "rows", ConfigError,  # driver
                   "rows of a criteria, evolve or scan grid; an evolve row is one expm "
                   "slice, stacked 4096 to a pass"),
}


def sig(count) -> str:
    """A count to six significant digits, an integer past the float range as a
    power of ten; a value that is no number as its repr."""
    if isinstance(count, bool) or not isinstance(count, numbers.Real):
        return repr(count)
    if isinstance(count, numbers.Integral) and not abs(count) < 1e308:
        return f"{'-' * (count < 0)}10^{math.log10(abs(count)):.6g}"
    return f"{count:.6g}"


def check_budget(name: str, count, what: str) -> None:
    """Refuse `what` unless count <= the cap of BUDGETS[name]; NaN is refused too."""
    budget = BUDGETS[name]
    if not count <= budget.cap:
        raise budget.error(f"{what}: {sig(count)} {budget.unit}, over the budget of "
                           f"{sig(budget.cap)}")
