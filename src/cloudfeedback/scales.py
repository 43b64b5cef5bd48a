"""Physical parameters and the derived noise/localization scales.

Everything here is closed-form arithmetic on the trap and feedback
parameters: the ground-state spreads dX0 (center of mass) and dx0 (single
atom), the localization ratio eta, the stationary cm spread DXs, and the
eta-interval that decides which of the two cloud-size thresholds lies above
the other.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ConfigError, NonPositiveRate, ZeroShiftRate, sig

# Relative tolerance for the discrete/continuous consistency check and for
# regime boundary detection; pure arithmetic warrants a tight value.
_REL_TOL = 1e-12


@dataclass(frozen=True)
class TrapConfig:
    """Ideal-gas trap: N atoms of mass m in a harmonic potential of frequency omega."""

    atom_count: int
    mass: float = 1.0
    trap_freq: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if not isinstance(self.atom_count, int) or self.atom_count < 1:
            raise ConfigError(f"atom_count must be a positive integer, got {sig(self.atom_count)}")
        for name in ("mass", "trap_freq", "hbar"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {v!r}")
        # every scale the package forms from the trap: refused here, where it
        # would otherwise under- or overflow deep inside a run
        n, m, w, hbar = self.atom_count, self.mass, self.trap_freq, self.hbar
        try:
            scales = (n * m * w, hbar / (2.0 * n * m * w), hbar / (m * w), m * w / hbar,
                      hbar * m * w, hbar * w, n * hbar * w, m * w * w, hbar * hbar,
                      1.0 / m, 1.0 / w, 1.0 / hbar)
        except (ZeroDivisionError, OverflowError):
            scales = (math.nan,)
        if not all(0.0 < v < math.inf for v in scales):
            raise ConfigError(f"trap (N={sig(n)}, mass={m!r}, omega={w!r}, hbar={hbar!r}) puts "
                              "a length, momentum, energy or rate scale outside the float range")


@dataclass(frozen=True)
class FeedbackConfig:
    """Continuous feedback parameters.

    shift_rate is the momentum-damping rate zeta, meas_resolution the rms
    time-integrated measurement resolution sigma.  meas_resolution = inf
    turns the measurement back-action off (1/sigma^2 = 0), and is allowed only
    with shift_rate = 0, since the kick noise zeta^2 sigma^2 would be
    infinite.  A discrete loop maps onto these by continuous_limit_params.
    """

    shift_rate: float
    meas_resolution: float

    def __post_init__(self):
        zeta, sigma = self.shift_rate, self.meas_resolution
        if not (zeta >= 0 and math.isfinite(zeta)):
            raise ConfigError(f"shift_rate must be finite and >= 0, got {zeta!r}")
        if not sigma > 0:
            raise ConfigError(f"meas_resolution must be > 0, got {sigma!r}")
        if zeta == 0 and math.isinf(sigma):  # no feedback, no back-action
            return
        # the products of the pair that the generators and eta form, refused
        # here where they would otherwise under- or overflow deep inside a run
        try:
            sigma_sq, eta_den, kick = sigma**2, zeta * sigma**2, zeta**2 * sigma**2
        except OverflowError:
            sigma_sq = eta_den = kick = math.nan
        if not (0 < sigma_sq < math.inf and kick < math.inf
                and (zeta == 0 or 0 < eta_den < math.inf)):
            raise ConfigError(f"feedback (zeta={zeta!r}, sigma={sigma!r}) needs finite "
                              "sigma^2 > 0, zeta sigma^2 and zeta^2 sigma^2, zeta sigma^2 > 0 "
                              "if zeta > 0, and sigma = inf only with zeta = 0")


def _close(a: float, b: float) -> bool:
    # an infinity is close only to itself
    return a == b or abs(a - b) <= _REL_TOL * max(abs(a), abs(b), 1e-300) < math.inf


def same_feedback(a: FeedbackConfig, b: FeedbackConfig) -> bool:
    """Both rates of a and b agree to the relative tolerance of pure arithmetic."""
    return _close(a.shift_rate, b.shift_rate) and _close(a.meas_resolution, b.meas_resolution)


@dataclass(frozen=True)
class DerivedScales:
    """dX0: cm ground spread; dx0 = dX0*sqrt(N): single-atom spread; DXs: stationary cm spread."""

    dX0: float
    dx0: float
    eta: float
    DXs: float


class RegimeKind(enum.Enum):
    # Which threshold sits above the stationary cm noise DXs.
    QS_THRESHOLD_ABOVE = "qs_threshold_above"        # DXs <= dx0
    SCHWARZ_THRESHOLD_ABOVE = "schwarz_threshold_above"  # DXs > dx0
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class RegimeClass:
    kind: RegimeKind
    eta_low: float   # N - sqrt(N^2 - 1)
    eta_high: float  # N + sqrt(N^2 - 1)


def derive_scales(trap: TrapConfig, fb: FeedbackConfig) -> DerivedScales:
    """Closed-form derived scales for a given trap and feedback.

    dX0 = sqrt(hbar/(2 N m omega)), eta = dX0^2/(zeta sigma^2),
    DXs = dX0 sqrt((eta + 1/eta)/2), dx0 = dX0 sqrt(N).
    """
    zeta = fb.shift_rate
    if zeta == 0:
        raise ZeroShiftRate("eta is undefined for zeta = 0")
    t = trap
    dX0 = math.sqrt(t.hbar / (2.0 * t.atom_count * t.mass * t.trap_freq))
    # FeedbackConfig keeps zeta sigma^2 in (0, inf); DXs reads 1/eta as well
    eta = dX0 ** 2 / (zeta * fb.meas_resolution ** 2)
    if not (0.0 < eta < math.inf and 1.0 / eta < math.inf):
        raise ConfigError(f"eta or 1/eta not finite and positive: {eta!r}")
    DXs = dX0 * math.sqrt((eta + 1.0 / eta) / 2.0)
    dx0 = dX0 * math.sqrt(t.atom_count)
    return DerivedScales(dX0=dX0, dx0=dx0, eta=eta, DXs=DXs)


def classify_regime(n: int, eta: float) -> RegimeClass:
    """Place eta against the interval [N - sqrt(N^2-1), N + sqrt(N^2-1)].

    Inside the interval DXs <= dx0 (the single-atom threshold is the higher
    one); outside it DXs > dx0.  Endpoints are reported as BOUNDARY within
    relative 1e-12.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n!r}")
    if not eta > 0:
        raise ConfigError(f"eta must be > 0, got {eta!r}")
    # lo = 1/hi exactly (lo hi = 1): no N^2 to overflow, no N - root to cancel
    root = math.sqrt(n - 1.0) * math.sqrt(n + 1.0)
    lo, hi = 1.0 / (n + root), n + root
    if _close(eta, lo) or _close(eta, hi):
        kind = RegimeKind.BOUNDARY
    elif lo < eta < hi:
        kind = RegimeKind.QS_THRESHOLD_ABOVE
    else:
        kind = RegimeKind.SCHWARZ_THRESHOLD_ABOVE
    return RegimeClass(kind=kind, eta_low=lo, eta_high=hi)


def continuous_limit_params(gamma: float, sigma0: float, zeta0: float) -> tuple[float, float]:
    """Map the discrete loop (gamma, sigma0, zeta0) to (sigma, zeta)."""
    if not gamma > 0:
        raise NonPositiveRate(f"gamma must be > 0, got {gamma!r}")
    if not sigma0 > 0:
        raise ConfigError(f"sigma0 must be > 0, got {sigma0!r}")
    if not zeta0 >= 0:
        raise ConfigError(f"zeta0 must be >= 0, got {zeta0!r}")
    return sigma0 / math.sqrt(gamma), zeta0 * gamma
