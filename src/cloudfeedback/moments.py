"""First and second moments of the (single atom, cm of others) distribution.

The master equation closes on first and second moments of the joint Wigner
function of one tagged atom (x, p) and the center of mass of the remaining
N - 1 atoms (Xbar, Pbar).  This module builds the linear drift and diffusion
generator for those four variables, maps initial quantum states to moments,
and propagates them in closed form or by RK4.

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
import scipy.linalg

from . import fock
from .errors import ConfigError, InvalidN, SingularLyapunov, StepRejected
from .scales import FeedbackConfig, TrapConfig

_PSD_FLOOR = 1e-10


def _checked_cov(cov: np.ndarray, exc=ConfigError) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
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
    if n < 1:
        raise InvalidN(f"atom_count must be >= 1, got {n}")
    m, w = trap.mass, trap.trap_freq
    zeta, sigma = fb.shift_rate, fb.meas_resolution
    # coefficient guards: zeta = 0 must kill the kick noise even at sigma = inf
    kick = 0.0 if zeta == 0.0 else zeta**2 * sigma**2
    back = 0.0 if math.isinf(sigma) else trap.hbar**2 / (4.0 * sigma**2)

    if n == 1:
        A = np.array([[-zeta, 1.0 / m], [-m * w**2, 0.0]])
        D = 0.5 * np.array([[kick, 0.0], [0.0, back]])
        return DriftDiffusion(A=A, D=D, n=1, trap=trap, fb=fb)

    # drag along the measured row, kicks along the section's position column,
    # back-action along its momentum column
    contract, section = _collective_maps(n)
    drag, v, u = contract[0], section[:, 0], section[:, 1]
    A = np.zeros((4, 4))
    A[0] = -zeta * drag
    A[0, 1] = 1.0 / m
    A[1, 0] = -m * w**2
    A[2] = -zeta * drag
    A[2, 3] = 1.0 / ((n - 1) * m)
    A[3, 2] = -(n - 1) * m * w**2

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


def init_moments(state: fock.FockState | fock.StateEnsemble,
                 basis: fock.OrbitalBasis, *,
                 leak_tol: float = 1e-10) -> JointMoments:
    """Joint moments of a fixed-N state at t = 0."""
    n = state.n
    rho = fock.one_body_density(state).matrix
    xm = fock.position_matrix(basis)
    pm = fock.momentum_matrix(basis)

    x1 = np.trace(xm.matrix @ rho).real / n
    p1 = np.trace(pm.matrix @ rho).real / n
    x2 = np.trace(fock.position_sq_matrix(basis).matrix @ rho).real / n
    p2 = np.trace(fock.momentum_sq_matrix(basis).matrix @ rho).real / n
    s = np.trace(fock.sym_xp_matrix(basis).matrix @ rho).real / n

    if n == 1:
        return moments_from_raw(1, x1, p1, x2, p2, s, 0.0, 0.0, 0.0)

    xx = fock.few_body_expectation(state, [xm, xm], leak_tol=leak_tol).real
    pp = fock.few_body_expectation(state, [pm, pm], leak_tol=leak_tol).real
    xp = fock.few_body_expectation(state, [xm, pm], leak_tol=leak_tol)
    px = fock.few_body_expectation(state, [pm, xm], leak_tol=leak_tol)
    xp_sym = 0.5 * (xp + px).real
    return moments_from_raw(n, x1, p1, x2, p2, s, xx, pp, xp_sym)


def evolve(m0: JointMoments, g: DriftDiffusion, t: float,
           method: str = "closed") -> JointMoments:
    """Propagate moments for time t.

    "closed": augmented-block matrix exponential (exact for the linear FPE).
    "rk4": fixed-step integration with h <= 2 pi / (1000 omega), an
    independent path kept for cross-checks.
    """
    if t < 0:
        raise ConfigError(f"t must be >= 0, got {t!r}")
    if m0.n != g.n:
        raise ConfigError(f"moments have n={m0.n} but generator has n={g.n}")
    a, d2 = g.A, 2.0 * g.D
    dim = a.shape[0]

    if method == "closed":
        blk = np.zeros((2 * dim, 2 * dim))
        blk[:dim, :dim] = a
        blk[:dim, dim:] = d2
        blk[dim:, dim:] = -a.T
        e = scipy.linalg.expm(blk * t)
        f = e[:dim, :dim]
        gblk = e[:dim, dim:]
        mean = f @ m0.mean
        cov = f @ m0.cov @ f.T + gblk @ f.T
    elif method == "rk4":
        h_max = 2.0 * math.pi / (1000.0 * g.trap.trap_freq)
        steps = max(1, math.ceil(t / h_max)) if t > 0 else 0
        h = t / steps if steps else 0.0
        mean = m0.mean.copy()
        cov = m0.cov.copy()

        def rhs(mn, cv):
            return a @ mn, a @ cv + cv @ a.T + d2

        for _ in range(steps):
            k1m, k1c = rhs(mean, cov)
            k2m, k2c = rhs(mean + 0.5 * h * k1m, cov + 0.5 * h * k1c)
            k3m, k3c = rhs(mean + 0.5 * h * k2m, cov + 0.5 * h * k2c)
            k4m, k4c = rhs(mean + h * k3m, cov + h * k3c)
            mean = mean + (h / 6.0) * (k1m + 2 * k2m + 2 * k3m + k4m)
            cov = cov + (h / 6.0) * (k1c + 2 * k2c + 2 * k3c + k4c)
    else:
        raise ConfigError(f"unknown method {method!r}")

    cov = _checked_cov(cov, exc=StepRejected)
    return JointMoments(mean=mean, cov=cov, n=m0.n)


def cloud_size(m: JointMoments) -> float:
    """rms spread of the single-atom marginal."""
    return math.sqrt(m.cov[0, 0])


def stationary_cm(g: DriftDiffusion) -> float:
    """Stationary rms spread of the total center of mass.

    Contracts the generator to (X_tot, P_tot) and solves the 2x2 Lyapunov
    equation A S + S A^T + 2 D = 0.
    """
    if g.fb.shift_rate == 0.0:
        raise SingularLyapunov("no stationary center-of-mass state without damping")
    c, s = _collective_maps(g.n)
    a_c = c @ g.A @ s
    d_c = c @ g.D @ c.T
    sigma = scipy.linalg.solve_continuous_lyapunov(a_c, -2.0 * d_c)
    return math.sqrt(sigma[0, 0])
