"""First and second moments of the (single atom, cm of others) distribution.

The master equation closes on first and second moments of the joint Wigner
function of one tagged atom (x, p) and the center of mass of the remaining
N - 1 atoms (Xbar, Pbar).  This module builds the linear drift and diffusion
generator for those four variables, maps initial quantum states to moments,
and propagates them in closed form.  Moments have one type, the checked
`MomentGrid`: an initial state's are a grid of one instant, and every time
series, the oracle's too, is one.  `evolve_grid` propagates such a start to
a whole time grid in stacked passes of at most _CHUNK (4096) instants, so
that its work arrays stay bounded: one call of the module's own matrix
exponential `_expm` on the stack of Van Loan blocks (Al-Mohy & Higham's
scaling and squaring, SIAM J. Matrix Anal. Appl. 31:970, 2009), stacked
products for the moments and one stacked `eigh` per covariance check.  The
module loads no scipy.

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
from typing import NamedTuple

import numpy as np

from . import fock
from .errors import ConfigError, StepRejected
from .scales import FeedbackConfig, TrapConfig

_PSD_FLOOR = 1e-10
# instants per stacked pass of evolve_grid: at d = 4 one (chunk, 8, 8) stack of
# Van Loan blocks is 2 MiB, however long the grid
_CHUNK = 4096


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
    # drag along the measured row, kicks along the section's position column,
    # back-action along its momentum column; at N = 1 both maps are the identity
    contract, section = _collective_maps(n)
    drag, v, u = contract[0], section[:, 0], section[:, 1]
    A = np.zeros((len(drag), len(drag)))
    A[0] = -zeta * drag
    A[0, 1] = 1.0 / m
    A[1, 0] = spring(-m)
    if n > 1:
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


def project_collective(m: MomentGrid) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of (X_tot, P_tot), one pair per instant."""
    c, _ = _collective_maps(m.n)
    return (c @ m.mean.T).T, c @ m.cov @ c.T


def moments_from_raw(n: int, x1: float, p1: float, x2: float, p2: float,
                     s: float, xx: float, pp: float, xp_sym: float) -> tuple:
    """Map one-body and collective raw moments to the joint (mean, cov), unchecked.

    Inputs: per-atom one-body moments x1 = <x>_1, x2 = <x^2>_1, s = <sym xp>_1
    (each (1/N) Tr[rho1 *]), and collective products xx = <T_x T_x>,
    pp = <T_p T_p>, xp_sym = <sym(T_x T_p)> over the full state.  Cross
    moments of distinct atoms follow by removing the N same-atom diagonal
    terms from each collective product and dividing by the N(N-1) pairs.
    """
    if n == 1:
        mean = np.array([x1, p1])
        cov = np.array([[x2 - x1**2, s - x1 * p1], [s - x1 * p1, p2 - p1**2]])
        return mean, cov

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
    return mean, cov


def init_moments(state: fock.FockState, basis: fock.OrbitalBasis) -> MomentGrid:
    """Joint moments of a fixed-N state at t = 0, a checked grid of that one
    instant; sym(T_x T_p) is Re <T_x T_p>."""
    n = state.n
    rho1 = fock.one_body_density(state)
    xm = fock.position_matrix(basis)
    pm = fock.momentum_matrix(basis)

    x1 = rho1.expectation(xm) / n
    p1 = rho1.expectation(pm) / n
    x2 = rho1.expectation(fock.position_sq_matrix(basis)) / n
    p2 = rho1.expectation(fock.momentum_sq_matrix(basis)) / n
    s = rho1.expectation(fock.sym_xp_matrix(basis)) / n

    g = np.zeros((2, 2)) if n == 1 else fock.few_body_expectation(state, [xm, pm]).real
    mean, cov = moments_from_raw(n, x1, p1, x2, p2, s, g[0, 0], g[1, 1], g[0, 1])
    return checked_grid(n, mean[None], cov[None])


class MomentGrid(NamedTuple):
    """Moments at each instant of a grid, and the PSD clips behind them."""

    mean: np.ndarray  # (instants, d)
    cov: np.ndarray  # (instants, d, d)
    n: int
    psd_clips: int  # instants whose covariance was clipped to PSD
    psd_clip_min: float  # the most negative eigenvalue clipped, 0.0 without a clip


def checked_grid(n: int, mean: np.ndarray, cov: np.ndarray) -> MomentGrid:
    """The grid of raw (instants, d) means and (instants, d, d) covariances,
    checked in one stacked pass, each slice with its bits on its own.

    The first slice in grid order with a non-finite entry, a symmetry defect
    or an eigenvalue below the PSD floor raises its StepRejected; every other
    slice is symmetrized, with a negative spectrum clipped to 0 and counted.
    """
    cov = np.asarray(cov, dtype=float)
    # a NaN passes every comparison below and stops eigh from converging
    finite = np.isfinite(cov).all(axis=(1, 2))
    stop = len(cov) if finite.all() else int(np.argmin(finite))
    refusal = "covariance has a non-finite entry"
    head = cov[:stop]
    scale = np.abs(head.diagonal(0, 1, 2)).max(axis=1, initial=1.0)
    defect = np.abs(head - head.transpose(0, 2, 1)).max(axis=(1, 2))
    skew = defect > 1e-8 * scale
    if skew.any():
        stop = int(np.argmax(skew))
        refusal = f"covariance not symmetric (defect {defect[stop]!r})"
        head = cov[:stop]
    sym = 0.5 * (head + head.transpose(0, 2, 1))
    w, v = np.linalg.eigh(sym)
    smallest = w[:, 0]  # eigh's eigenvalues ascend
    low = np.flatnonzero(smallest < -_PSD_FLOOR * scale[:stop])
    if len(low):
        raise StepRejected(f"covariance eigenvalue {smallest[low[0]]!r} below the PSD floor")
    if stop < len(cov):
        raise StepRejected(refusal)
    clipped = np.flatnonzero(smallest < 0.0)
    for k in clipped:
        c = (v[k] * np.clip(w[k], 0.0, None)) @ v[k].T
        sym[k] = 0.5 * (c + c.T)
    return MomentGrid(mean, sym, n, len(clipped), float(smallest.min(initial=0.0)))


def start_moments(m0: MomentGrid, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(mean, cov) of a start, which must be one instant of the moments of n
    atoms (ConfigError otherwise)."""
    dim = 2 if n == 1 else 4
    shapes = np.shape(m0.mean), np.shape(m0.cov)
    if m0.n != n or shapes != ((1, dim), (1, dim, dim)):
        raise ConfigError(f"a start must be one instant of the {dim} moments of n={n}, got "
                          f"n={m0.n} with means {shapes[0]} and covariances {shapes[1]}")
    return m0.mean[0], m0.cov[0]


def _checked_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ConfigError(f"times must be a 1-D grid, got shape {times.shape}")
    if np.any(times < 0):
        raise ConfigError(f"t must be >= 0, got {times[times < 0].tolist()[0]!r}")
    if not np.isfinite(times).all():
        raise ConfigError(f"t must be finite, got {times[~np.isfinite(times)].tolist()[0]!r}")
    return times


def _pade(m: int) -> list[float]:
    """b_0 .. b_m of the degree-m diagonal Pade approximant to exp, scaled so
    that b_m = 1, each rounded once from its integer, and 0 up to b_13."""
    f = math.factorial
    return [float(f(2 * m - j) // (f(j) * f(m - j))) if j <= m else 0.0 for j in range(14)]


# Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31:970 (2009), Algorithm 5.1:
# the Pade degrees m, the bound theta_m on a slice's norms under which each
# is exact to double precision, and log2 |c_{2m+1}|, the leading coefficient
# of its backward error series, for the l correction
_DEGREES = np.array([3, 5, 7, 9, 13])
_THETA = np.array([1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
                   2.097847961257068, 4.25])
_LOG2_C = np.array([-math.log2(math.comb(2 * m, m) * math.factorial(2 * m + 1))
                    for m in _DEGREES])
# each degree's coefficients of A^6, A^4, A^2 and I in the four sums of the
# degree-13 scheme, U = A (A^6 U_6 + U_0) and V = A^6 V_6 + V_0
_SUMS = np.array([[[b[13], b[11], b[9], 0.0], [b[7], b[5], b[3], b[1]],
                   [b[12], b[10], b[8], 0.0], [b[6], b[4], b[2], b[0]]]
                  for b in map(_pade, _DEGREES)])


def _norms1(x: np.ndarray) -> np.ndarray:
    """1-norm of each (n, n) matrix of a stack: its largest column sum of |x|."""
    # numpy reduces a short last axis row by row, so the n column sums are
    # formed as rows by a stacked product and compared as a contiguous first axis
    sums = np.ones(x.shape[:-2] + (1, x.shape[-1])) @ np.abs(x)
    return np.moveaxis(sums[..., 0, :], -1, 0).copy().max(axis=0)


def _even_powers(pw: np.ndarray) -> None:
    """A^2, A^4 and A^6 into slots 5, 4 and 3 of a stack of powers of slot 0."""
    np.matmul(pw[:, 0], pw[:, 0], out=pw[:, 5])
    np.matmul(pw[:, 5], pw[:, 5], out=pw[:, 4])
    np.matmul(pw[:, 4], pw[:, 5], out=pw[:, 3])


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of each slice of a real (T, n, n) stack, each with its bits on its own.

    Al-Mohy & Higham's scaling and squaring (SIAM J. Matrix Anal. Appl.
    31:970, 2009, Algorithm 5.1), with the exact 1-norms of A^4 .. A^10 in
    place of its estimates.  A slice takes the lowest Pade degree of 3, 5, 7
    and 9 that its norms and l correction allow, else degree 13 after a
    2^-s scaling, squared back s times.  The l correction of degree m needs
    the 1-norm of |A|^(2m + 1), which comes from a row of ones carried
    through |A|, |A|^2, |A|^4 and |A|^8.  Every slice is evaluated with its
    own degree and its own s, so that its bits do not depend on the others.
    A diagonal slice gives exp of its diagonal exactly, and one with a
    non-finite 1-norm gives NaN.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    rows, eye = np.arange(n), np.eye(n)
    out = np.full(a.shape, np.nan)
    # a slice whose squarings overflow ends non-finite, for the caller to refuse
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        flat = ~a[:, eye == 0.0].any(axis=1)
        at = np.flatnonzero(flat)
        out[at] = 0.0
        out[at[:, None], rows, rows] = np.exp(a[at[:, None], rows, rows])
        at = np.flatnonzero(~flat)
        pw = np.empty((len(at), 7, n, n))  # A, A^8, A^10, A^6, A^4, A^2, I
        pw[:, 0] = a[at]
        _even_powers(pw)
        np.matmul(pw[:, 4], pw[:, 4], out=pw[:, 1])
        np.matmul(pw[:, 4], pw[:, 3], out=pw[:, 2])
        norms = _norms1(pw[:, :5]).T
        keep = np.isfinite(norms[0])
        if not keep.all():
            at, pw, norms = at[keep], pw[keep], norms[:, keep]
        if not len(at):
            return out
        x, norm = pw[:, 0], norms[0]
        d8, d10, d6, d4 = norms[1:] ** (1.0 / np.array([[8], [10], [6], [4]]))
        eta1, eta3 = np.maximum(d4, d6), np.maximum(d6, d8)
        # where A^8 or A^10 overflowed, ||A|| bounds each ||A^k||^(1/k) instead
        eta5 = np.minimum(eta3, np.maximum(d8, d10))
        eta5 = np.where(np.isfinite(eta5), eta5, norm)

        # log2 alpha_m = log2 (|c_{2m+1}| || |A|^{2m+1} || / ||A||) of each
        # degree, from |A| scaled to a 1-norm of 1 so that no power overflows:
        # ones times |A|^3, then |A|^4 four times and |A|^8 once
        b1 = np.abs(x) / norm[:, None, None]
        b2 = b1 @ b1
        b4 = b2 @ b2
        w = np.empty((len(at), len(_DEGREES), 1, n))
        np.matmul(np.ones((len(at), 1, n)) @ b1 @ b2, b4, out=w[:, 0])
        for k, step in enumerate((b4, b4, b4, b4 @ b4), 1):
            np.matmul(w[:, k - 1], step, out=w[:, k])
        log2_alpha = (np.log2(np.moveaxis(w[:, :, 0], -1, 0).copy().max(axis=0)).T
                      + 2 * _DEGREES[:, None] * np.log2(norm) + _LOG2_C[:, None])
        # a degree below 13 needs its eta under theta and l = 0, that is alpha <= u
        ok = ((np.array([eta1, eta1, eta3, eta3]) <= _THETA[:4, None])
              & (log2_alpha[:4] <= -53.0))
        pick = np.where(ok.any(axis=0), ok.argmax(axis=0), 4)
        s = np.maximum(np.ceil(np.log2(eta5 / _THETA[4])), 0.0)
        s += np.maximum(np.ceil((log2_alpha[4] - 26.0 * s + 53.0) / 26.0), 0.0)
        s = np.where(pick == 4, s, 0.0).astype(int)

        # every slice through the degree-13 scheme with its own 2^-s A and its
        # own degree's coefficients, those above the degree 0; 2^-s is exact,
        # as s stays below 1074, and so are the powers' unless they underflow
        x *= np.ldexp(1.0, -s)[:, None, None]
        _even_powers(pw)
        pw[:, 6] = eye
        sums = _SUMS[pick] @ pw[:, 3:].reshape(len(at), 4, n * n)
        sums = sums.reshape(len(at), 4, n, n)
        u = pw[:, 0] @ (pw[:, 3] @ sums[:, 0] + sums[:, 1])
        v = pw[:, 3] @ sums[:, 2] + sums[:, 3]
        # (V - U)^-1 (V + U), as I plus its small part
        r = eye + 2.0 * np.linalg.solve(v - u, u)
        for k in range(s.max()):
            sq = np.flatnonzero(s > k)
            r[sq] = r[sq] @ r[sq]
        out[at] = r
    return out


def _flow(mean: np.ndarray, cov: np.ndarray, g: DriftDiffusion, times: np.ndarray) -> tuple:
    """(means, covariances) at times, unchecked, through one Van Loan
    exponential per instant (Van Loan, IEEE TAC 23:395, 1978), all in one
    `_expm` call on their stack: Al-Mohy & Higham's Algorithm 5.1 with exact
    norms, each instant's bits its own."""
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
    e = _expm(blk * times[:, None, None])
    # a long enough t overflows the exponential: refused as non-finite, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        f = e[:, :dim, :dim]
        ft = f.transpose(0, 2, 1)
        gblk = np.ldexp(e[:, :dim, dim:], k)
        return f @ mean, f @ cov @ ft + gblk @ ft


def evolve_grid(m0: MomentGrid, g: DriftDiffusion, times) -> MomentGrid:
    """Propagate a start m0, one instant of g's moments, to each instant of
    times (1-D, each finite and >= 0), exact for the linear FPE.

    The grid runs in stacked passes of at most _CHUNK instants, so that its
    work arrays stay bounded, each checked by checked_grid: the first instant
    refused raises its refusal.  Any instant of the result is itself a start.
    """
    times = _checked_times(times)
    mean0, cov0 = start_moments(m0, g.n)
    dim = len(mean0)
    means, covs = np.empty((len(times), dim)), np.empty((len(times), dim, dim))
    clips, clip_min = 0, 0.0
    for lo in range(0, len(times), _CHUNK):
        hi = lo + _CHUNK
        part = checked_grid(g.n, *_flow(mean0, cov0, g, times[lo:hi]))
        means[lo:hi], covs[lo:hi] = part.mean, part.cov
        clips += part.psd_clips
        clip_min = min(clip_min, part.psd_clip_min)
    return MomentGrid(mean=means, cov=covs, n=g.n, psd_clips=clips, psd_clip_min=clip_min)


def cloud_size(m: MomentGrid) -> np.ndarray:
    """rms spread of the single-atom marginal, one per instant."""
    return np.sqrt(m.cov[..., 0, 0])
