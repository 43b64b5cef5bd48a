"""Observable layer: collective quadrature spread and the two quantumness tests.

The central quantity is sigma_q_sq, the difference between the one-body and
collective quadrature second moments.  On fixed-N states it equals the mean
square spread of atoms about their center of mass, hence is nonnegative; the
computation nevertheless follows the defining combination verbatim, because
the negative regime (reachable with indefinite atom number) is exactly what
the toolkit is built to map out.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import fock
from .errors import ConfigError, NegativeRadicand
from .scales import DerivedScales


def _coefficients(s0: float, s45: float, s90: float) -> tuple[float, float, float]:
    """(A, B, C) from samples at t = 0, pi/4w and pi/2w: the one reconstruction."""
    a = 0.5 * (s0 + s90)
    return a, 0.5 * (s0 - s90), s45 - a


def _lowest(a: float, b: float, c: float) -> float:
    """min_t of a + b cos(2 w t) + c sin(2 w t)."""
    return a - math.hypot(b, c)


def breathing_minimum(s0: float, s45: float, s90: float) -> float:
    """min_t sigma_q_sq from the samples at t = 0, pi/4w and pi/2w.

    Bit for bit QuadratureHarmonics.from_samples(...).minimum(), without
    building the dataclass.
    """
    return _lowest(*_coefficients(s0, s45, s90))


@dataclass(frozen=True)
class QuadratureHarmonics:
    """sigma_q_sq(t) = A + B cos(2 w t) + C sin(2 w t)."""

    A: float
    B: float
    C: float
    omega: float

    @classmethod
    def from_samples(cls, s0: float, s45: float, s90: float,
                     omega: float) -> "QuadratureHarmonics":
        """Exact reconstruction from samples at t = 0, pi/4w and pi/2w."""
        a, b, c = _coefficients(s0, s45, s90)
        return cls(A=a, B=b, C=c, omega=omega)

    def value(self, t: float) -> float:
        th = 2.0 * self.omega * t
        return self.A + self.B * math.cos(th) + self.C * math.sin(th)

    def minimum(self) -> float:
        return _lowest(self.A, self.B, self.C)

    def argmin(self) -> float:
        """Earliest nonnegative minimizer; the signal has period pi/omega, and
        a flat one (B = C = 0) is least at t = 0."""
        if self.B == 0.0 and self.C == 0.0:
            return 0.0
        phase = math.atan2(self.C, self.B) + math.pi
        period = math.pi / self.omega
        return (phase / (2.0 * self.omega)) % period


@dataclass(frozen=True)
class CriterionReport:
    min_dxa: float
    t_star: float
    qs_violated: bool
    schwarz_violated: bool
    dx0: float
    DXs: float
    min_sigma_q_sq: float
    notes: tuple[str, ...] = ()


@functools.lru_cache(maxsize=8)
def quadrature_pairs(basis: fock.OrbitalBasis) -> tuple:
    """(q(t), q^2(t)) at the three sample times t = 0, pi/4w, pi/2w."""
    w = basis.trap.trap_freq
    return tuple((fock.quadrature_matrix(basis, t), fock.quadrature_sq_matrix(basis, t))
                 for t in (0.0, math.pi / (4.0 * w), math.pi / (2.0 * w)))


def _spreads(state: fock.FockState, pairs) -> list[float]:
    """sigma_q_sq at each (q(t), q^2(t)) pair from one rho1 and one Gram matrix.

    Linear in the density operator: mixtures average the terms, not the values.
    """
    n = state.n
    rho1 = fock.one_body_density(state)
    two = np.diag(fock.few_body_expectation(state, [q for q, _ in pairs])).real.tolist()
    return [rho1.expectation(q2) / n - qq / n**2 for (_, q2), qq in zip(pairs, two)]


def sigma_q_sq(state: fock.FockState, basis: fock.OrbitalBasis, t: float) -> float:
    """(1/N) <T_{q^2(t)}> - (1/N^2) <T_{q(t)} T_{q(t)}>."""
    return _spreads(state, [(fock.quadrature_matrix(basis, t),
                             fock.quadrature_sq_matrix(basis, t))])[0]


def quadrature_harmonics(state: fock.FockState,
                         basis: fock.OrbitalBasis) -> QuadratureHarmonics:
    """Exact three-point reconstruction of the pure second-harmonic signal."""
    return QuadratureHarmonics.from_samples(*_spreads(state, quadrature_pairs(basis)),
                                            omega=basis.trap.trap_freq)


def _settled_size(scales: DerivedScales, spread: float, what: str) -> float:
    try:
        rad = scales.DXs**2 + spread
    except OverflowError:
        raise ConfigError(f"DXs^2 = {scales.DXs!r}^2 leaves the float range") from None
    if rad < 0.0:
        raise NegativeRadicand(f"DXs^2 + {what} = {rad!r} < 0; asymptotic form does not apply")
    return math.sqrt(rad)


def asymptotic_cloud_size(scales: DerivedScales, h: QuadratureHarmonics,
                          t: float) -> float:
    """Cloud size once the center of mass has settled: sqrt(DXs^2 + sigma_q_sq(t))."""
    return _settled_size(scales, h.value(t), "sigma_q_sq(t)")


def evaluate_criteria(scales: DerivedScales, h: QuadratureHarmonics) -> CriterionReport:
    """Both quantumness flags from the closed-form breathing minimum.

    Strict inequalities; an equality case stays unflagged and is surfaced in
    notes instead.
    """
    min_sigma = h.minimum()
    t_star = h.argmin()
    min_dxa = _settled_size(scales, min_sigma, "min sigma_q_sq")

    notes = []
    scale = abs(h.A) + math.hypot(h.B, h.C) + scales.dx0**2
    if min_sigma == 0.0 or abs(min_sigma) < 1e-12 * scale:
        notes.append("min sigma_q_sq at the classical boundary")
    if abs(min_dxa - scales.dx0) < 1e-12 * scales.dx0:
        notes.append("min cloud size at the ground-state boundary")

    return CriterionReport(
        min_dxa=min_dxa,
        t_star=t_star,
        qs_violated=min_dxa < scales.dx0,
        schwarz_violated=min_sigma < 0.0,
        dx0=scales.dx0,
        DXs=scales.DXs,
        min_sigma_q_sq=min_sigma,
        notes=tuple(notes),
    )


def schwarz_identity_check(state: fock.FockState,
                           basis: fock.OrbitalBasis, t: float) -> tuple[float, float, float]:
    """(one-body rms spread, cm rms spread, identity residual) at time t.

    The one-body spread is the density-weighted quadrature spread
    (1/N) Tr[rho1 q^2] - ((1/N) Tr[rho1 q])^2; with that reading
    sigma_q_sq = Dq^2 - DQ_cm^2 holds exactly (the shared means cancel).
    """
    n = state.n
    rho1 = fock.one_body_density(state)
    q = fock.quadrature_matrix(basis, t)
    mean = rho1.expectation(q) / n
    one = rho1.expectation(fock.quadrature_sq_matrix(basis, t)) / n
    cm_sq = float(fock.few_body_expectation(state, [q])[0, 0].real) / n**2
    dq_sq, dcm_sq = one - mean**2, cm_sq - mean**2
    residual = (one - cm_sq) - (dq_sq - dcm_sq)
    return math.sqrt(max(dq_sq, 0.0)), math.sqrt(max(dcm_sq, 0.0)), residual
