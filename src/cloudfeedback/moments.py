"""First and second moments of the (single atom, cm of others) distribution.

The master equation closes on first and second moments of the joint Wigner
function of one tagged atom (x, p) and the center of mass of the remaining
N - 1 atoms (Xbar, Pbar).  This module builds the linear drift and diffusion
generator for those four variables, maps initial quantum states to moments,
and propagates them in closed form.

Conventions, stated once:
  * covariance evolves as dS/dt = A S + S A^T + 2 D, so the physical noise
    rates (position kicks zeta^2 sigma^2, momentum back-action hbar^2/4sigma^2)
    enter D with a factor 1/2; fixed by requiring the collective stationary
    variance to reproduce the closed-form DXs of `scales`
  * second moments are Weyl (symmetric) ordered
  * N = 1 degenerates to the two variables (x, p)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .errors import ConfigError, StepRejected
from .scales import FeedbackConfig, TrapConfig

_PSD_FLOOR = 1e-10


def _checked_cov(cov: np.ndarray, exc=ConfigError) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    # a NaN passes every comparison below and stops eigh from converging
    if not np.isfinite(cov).all():
        raise exc("covariance has a non-finite entry")
    scale = max(1.0, float(np.max(np.abs(np.diag(cov)))))
    if np.max(np.abs(cov - cov.T)) > 1e-8 * scale:
        raise exc(f"covariance not symmetric (defect {np.max(np.abs(cov - cov.T))!r})")
    cov = 0.5 * (cov + cov.T)
    w, v = np.linalg.eigh(cov)
    if w.min() < -_PSD_FLOOR * scale:
        raise exc(f"covariance eigenvalue {w.min()!r} below the PSD floor")
    if w.min() < 0.0:
        cov = (v * np.clip(w, 0.0, None)) @ v.T
        cov = 0.5 * (cov + cov.T)
    return cov


@dataclass(frozen=True)
class JointMoments:
    """mean = (<x>, <p>, <Xbar>, <Pbar>), cov the matching symmetric 4x4.

    For n = 1 both shrink to the (x, p) pair.
    """

    mean: np.ndarray
    cov: np.ndarray
    n: int

    def __post_init__(self):
        dim = 2 if self.n == 1 else 4
        mean = np.asarray(self.mean, dtype=float)
        if mean.shape != (dim,):
            raise ConfigError(f"mean must have shape ({dim},) for n={self.n}")
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (dim, dim):
            raise ConfigError(f"cov must have shape ({dim}, {dim}) for n={self.n}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", _checked_cov(cov))


@dataclass(frozen=True)
class DriftDiffusion:
    A: np.ndarray
    D: np.ndarray
    n: int
    trap: TrapConfig
    fb: FeedbackConfig


def build_generators(trap: TrapConfig, fb: FeedbackConfig) -> DriftDiffusion:
    """Drift and diffusion of the tagged-atom + cm-of-others variables.

    Derived by taking moments of the master equation with the decomposition
    X = x/N + (N-1) Xbar/N, P = p + Pbar: friction drags every position
    toward the measured cm at rate zeta, kick noise is perfectly correlated
    across atoms (v v^T on positions), back-action noise enters through the
    collective momentum only (u u^T with u = (1/N, (N-1)/N)).
    """
    n = trap.atom_count
    m, w = trap.mass, trap.trap_freq
    zeta, sigma = fb.shift_rate, fb.meas_resolution
    # without feedback sigma may be inf: 1/sigma^2 is 0 there, zeta^2 sigma^2 NaN
    kick = 0.0 if zeta == 0.0 else zeta**2 * sigma**2
    back = trap.hbar**2 / (4.0 * sigma**2)
    # both noise rates in ground-state variances per unit time, refused where
    # they leave the float range: the matrix exponential would make them NaN
    scaled = (kick * m * w / trap.hbar, back / (trap.hbar * m * w))
    if not all(map(math.isfinite, scaled)):
        raise ConfigError(f"feedback (zeta={zeta!r}, sigma={sigma!r}) puts a noise rate "
                          "in the trap's units outside the float range")

    # c w^2; w^2 alone overflows from 1.3e154 on, where the trap's checked (m w) w does not
    spring = (lambda c: c * w**2) if w < 1e154 else (lambda c: c * w * w)
    if n == 1:
        A = np.array([[-zeta, 1.0 / m], [spring(-m), 0.0]])
        D = 0.5 * np.array([[kick, 0.0], [0.0, back]])
        return DriftDiffusion(A=A, D=D, n=1, trap=trap, fb=fb)

    # drag along the measured row, kicks along the section's position column,
    # back-action along its momentum column
    contract, section = _collective_maps(n)
    drag, v, u = contract[0], section[:, 0], section[:, 1]
    A = np.zeros((4, 4))
    A[0] = -zeta * drag
    A[0, 1] = 1.0 / m
    A[1, 0] = spring(-m)
    A[2] = -zeta * drag
    A[2, 3] = 1.0 / ((n - 1) * m)
    A[3, 2] = spring(-(n - 1) * m)

    D = 0.5 * (kick * np.outer(v, v) + back * np.outer(u, u))
    return DriftDiffusion(A=A, D=D, n=n, trap=trap, fb=fb)


def _collective_maps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Contraction C to (X_tot, P_tot) and a section S with C S = I.

    The single definition of the collective vectors: C's first row is the
    measured cm row, S's columns are the kick direction (every position) and
    the back-action direction (momenta in proportion to the atoms carried).
    """
    if n == 1:
        eye = np.eye(2)
        return eye, eye
    c = np.array([[1.0 / n, 0.0, (n - 1) / n, 0.0], [0.0, 1.0, 0.0, 1.0]])
    s = np.array([[1.0, 0.0], [0.0, 1.0 / n], [1.0, 0.0], [0.0, (n - 1) / n]]).reshape(4, 2)
    return c, s


def project_collective(m: JointMoments) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of (X_tot, P_tot)."""
    c, _ = _collective_maps(m.n)
    return c @ m.mean, c @ m.cov @ c.T


def moments_from_raw(n: int, x1: float, p1: float, x2: float, p2: float,
                     s: float, xx: float, pp: float, xp_sym: float) -> JointMoments:
    """Map one-body and collective raw moments to the joint representation.

    Inputs: per-atom one-body moments x1 = <x>_1, x2 = <x^2>_1, s = <sym xp>_1
    (each (1/N) Tr[rho1 *]), and collective products xx = <T_x T_x>,
    pp = <T_p T_p>, xp_sym = <sym(T_x T_p)> over the full state.  Cross
    moments of distinct atoms follow by removing the N same-atom diagonal
    terms from each collective product and dividing by the N(N-1) pairs.
    """
    if n == 1:
        mean = np.array([x1, p1])
        cov = np.array([[x2 - x1**2, s - x1 * p1], [s - x1 * p1, p2 - p1**2]])
        return JointMoments(mean=mean, cov=cov, n=1)

    pairs = n * (n - 1)
    xx_c = (xx - n * x2) / pairs
    pp_c = (pp - n * p2) / pairs
    xp_c = (xp_sym - n * s) / pairs

    mean = np.array([x1, p1, x1, (n - 1) * p1])
    cov = np.empty((4, 4))
    cov[0, 0] = x2 - x1**2
    cov[0, 1] = cov[1, 0] = s - x1 * p1
    cov[0, 2] = cov[2, 0] = xx_c - x1**2
    cov[0, 3] = cov[3, 0] = (n - 1) * (xp_c - x1 * p1)
    cov[1, 1] = p2 - p1**2
    cov[1, 2] = cov[2, 1] = xp_c - x1 * p1
    cov[1, 3] = cov[3, 1] = (n - 1) * (pp_c - p1**2)
    cov[2, 2] = (x2 + (n - 2) * xx_c) / (n - 1) - x1**2
    cov[2, 3] = cov[3, 2] = s + (n - 2) * xp_c - (n - 1) * x1 * p1
    cov[3, 3] = (n - 1) * p2 + (n - 1) * (n - 2) * pp_c - ((n - 1) * p1) ** 2
    return JointMoments(mean=mean, cov=cov, n=n)


def init_moments(state: fock.FockState, basis: fock.OrbitalBasis) -> JointMoments:
    """Joint moments of a fixed-N state at t = 0; sym(T_x T_p) is Re <T_x T_p>."""
    n = state.n
    rho1 = fock.one_body_density(state)
    xm = fock.position_matrix(basis)
    pm = fock.momentum_matrix(basis)

    x1 = rho1.expectation(xm) / n
    p1 = rho1.expectation(pm) / n
    x2 = rho1.expectation(fock.position_sq_matrix(basis)) / n
    p2 = rho1.expectation(fock.momentum_sq_matrix(basis)) / n
    s = rho1.expectation(fock.sym_xp_matrix(basis)) / n

    if n == 1:
        return moments_from_raw(1, x1, p1, x2, p2, s, 0.0, 0.0, 0.0)

    g = fock.few_body_expectation(state, [xm, pm]).real
    return moments_from_raw(n, x1, p1, x2, p2, s, g[0, 0], g[1, 1], g[0, 1])


def evolve(m0: JointMoments, g: DriftDiffusion, t: float) -> JointMoments:
    """Propagate moments for time t by the augmented-block matrix exponential,
    exact for the linear FPE."""
    if t < 0:
        raise ConfigError(f"t must be >= 0, got {t!r}")
    if m0.n != g.n:
        raise ConfigError(f"moments have n={m0.n} but generator has n={g.n}")
    from scipy.linalg import expm

    a, d2 = g.A, 2.0 * g.D
    dim = a.shape[0]
    # the top-right block is linear in D: a D that dwarfs A enters as
    # D / 2^k and leaves times 2^k, both exact, so that scaling and
    # squaring does not round exp(At / 2^s) to the identity
    drift, noise = max(float(np.max(np.abs(a))), 1.0), float(np.max(np.abs(d2)))
    k = math.frexp(noise / drift)[1] if noise > drift else 0
    blk = np.zeros((2 * dim, 2 * dim))
    blk[:dim, :dim] = a
    blk[:dim, dim:] = np.ldexp(d2, -k)
    blk[dim:, dim:] = -a.T
    # a long enough t overflows the exponential: refused as non-finite, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        e = expm(blk * t)
        f = e[:dim, :dim]
        gblk = np.ldexp(e[:dim, dim:], k)
        mean, cov = f @ m0.mean, f @ m0.cov @ f.T + gblk @ f.T
    return JointMoments(mean=mean, cov=_checked_cov(cov, exc=StepRejected), n=m0.n)


def cloud_size(m: JointMoments) -> float:
    """rms spread of the single-atom marginal."""
    return math.sqrt(m.cov[0, 0])
