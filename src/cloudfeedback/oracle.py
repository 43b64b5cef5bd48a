"""Exact oracle: the N-atom master equation on the full Fock-sector density matrix.

Ground truth for the moment propagator and the measurement loop, with no
Gaussian or weak-coupling shortcuts.  The generator is assembled once as one
CSR superoperator L acting on the row-major vec(rho), and rho(t) =
exp(tL) rho(0) is evaluated only at the instants a caller asks for, by the
scaled truncated Taylor series of Al-Mohy & Higham (SIAM J. Sci. Comput.
33:488, 2011).  Any atom number is accepted: a budget on the stored entries
of L, counted from the sector operators before L is assembled, bounds the
sector instead (N = 3 fits up to M = 8 orbitals).

Positivity is monitored at every emitted instant, never enforced: the
equation is of quantum Brownian motion type (not a completed Lindblad form),
so small transient negativity is possible and a silent projection would mask
generator bugs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fock
from .errors import (
    ConfigError,
    DimensionTooLarge,
    PositivityLoss,
    TruncationLeak,
)
from .moments import (
    JointMoments,
    build_generators,
    evolve as evolve_moments,
    init_moments,
    moments_from_raw,
)
from .scales import FeedbackConfig, TrapConfig

_ALL_TERMS = ("hamiltonian", "friction", "measurement", "noise")
_NNZ_BUDGET = 1_000_000
# L stores its whole diagonal, so a sector of dimension d costs at least d^2
_DIM_CAP = math.isqrt(_NNZ_BUDGET)

# Al-Mohy & Higham, Table A.3: theta_m is the largest ||hA||_1 for which the
# degree-m Taylor polynomial meets the double-precision tolerance unscaled
_TAYLOR_TOL = 2.0**-53
_DEGREES = np.array([*range(1, 31), 35, 40, 45, 50, 55])
_THETA = np.array([
    2.29e-16, 2.58e-08, 1.39e-05, 3.40e-04, 2.40e-03, 9.07e-03, 2.38e-02,
    5.00e-02, 8.96e-02, 1.44e-01, 2.14e-01, 3.00e-01, 4.00e-01, 5.14e-01,
    6.41e-01, 7.81e-01, 9.31e-01, 1.09, 1.26, 1.44, 1.62, 1.82, 2.01, 2.22,
    2.43, 2.64, 2.86, 3.08, 3.31, 3.54, 4.7, 6.0, 7.2, 8.5, 9.9,
])


def sector_operator(basis: fock.OrbitalBasis, n: int, matrix: np.ndarray) -> np.ndarray:
    """Dense matrix of sum_ij A[i][j] a+_i a_j on the fixed-N sector."""
    occs = fock.occupations(n, basis.mode_count)
    out = np.zeros((len(occs), len(occs)), dtype=complex)
    for src, tgt, val, _, _ in fock.one_body_chunks(occs, matrix):
        np.add.at(out, (tgt, src), val)
    return out


@dataclass(frozen=True)
class SectorObservables:
    """Precomputed sector matrices for the observables the oracle reports."""

    basis: fock.OrbitalBasis
    n: int
    t_x: np.ndarray
    t_p: np.ndarray
    t_x2: np.ndarray
    t_p2: np.ndarray
    t_sxp: np.ndarray
    top_number: np.ndarray  # diagonal of the top-orbital number operator
    one_body: dict  # orbital-space matrices, keyed x/p/x2/p2/sxp
    # flattened <a+_m a_n> gather: rho1 flat index, rho row, rho col, weight
    _slots: np.ndarray = field(repr=False, default=None)
    _rows: np.ndarray = field(repr=False, default=None)
    _cols: np.ndarray = field(repr=False, default=None)
    _vals: np.ndarray = field(repr=False, default=None)
    _xx: np.ndarray = field(repr=False, default=None)
    _pp: np.ndarray = field(repr=False, default=None)
    _sxp2: np.ndarray = field(repr=False, default=None)

    @classmethod
    def build(cls, basis: fock.OrbitalBasis, n: int) -> "SectorObservables":
        m = basis.mode_count
        occs = fock.occupations(n, m)
        # every a+_i a_j at once, gathered in (i, j, source) order
        src, tgt, val, i, j = map(np.concatenate,
                                  zip(*fock.one_body_chunks(occs, np.ones((m, m)))))
        order = np.argsort(i * m + j, kind="stable")
        t_x = sector_operator(basis, n, fock.position_matrix(basis).matrix)
        t_p = sector_operator(basis, n, fock.momentum_matrix(basis).matrix)
        return cls(
            basis=basis,
            n=n,
            t_x=t_x,
            t_p=t_p,
            t_x2=sector_operator(basis, n, fock.position_sq_matrix(basis).matrix),
            t_p2=sector_operator(basis, n, fock.momentum_sq_matrix(basis).matrix),
            t_sxp=sector_operator(basis, n, fock.sym_xp_matrix(basis).matrix),
            top_number=occs[:, m - 1].astype(float),
            one_body={
                "x": fock.position_matrix(basis).matrix,
                "p": fock.momentum_matrix(basis).matrix,
                "x2": fock.position_sq_matrix(basis).matrix,
                "p2": fock.momentum_sq_matrix(basis).matrix,
                "sxp": fock.sym_xp_matrix(basis).matrix,
            },
            _slots=(j * m + i)[order],  # rho1[j][i] = <a+_i a_j>
            _rows=tgt[order],
            _cols=src[order],
            _vals=val.real[order],
            _xx=t_x @ t_x,
            _pp=t_p @ t_p,
            _sxp2=0.5 * (t_x @ t_p + t_p @ t_x),
        )

    def one_body_density(self, rho: np.ndarray) -> np.ndarray:
        m = self.basis.mode_count
        contrib = self._vals * rho[self._cols, self._rows]
        flat = np.bincount(self._slots, weights=contrib.real, minlength=m * m) \
            + 1j * np.bincount(self._slots, weights=contrib.imag, minlength=m * m)
        return flat.reshape(m, m)

    def joint_moments(self, rho: np.ndarray) -> JointMoments:
        n = self.n
        rho1 = self.one_body_density(rho)
        ob = self.one_body
        x1 = np.trace(ob["x"] @ rho1).real / n
        p1 = np.trace(ob["p"] @ rho1).real / n
        x2 = np.trace(ob["x2"] @ rho1).real / n
        p2 = np.trace(ob["p2"] @ rho1).real / n
        s = np.trace(ob["sxp"] @ rho1).real / n
        if n == 1:
            return moments_from_raw(1, x1, p1, x2, p2, s, 0.0, 0.0, 0.0)
        xx = np.sum(self._xx.T * rho).real
        pp = np.sum(self._pp.T * rho).real
        sxp = np.sum(self._sxp2.T * rho).real
        return moments_from_raw(n, x1, p1, x2, p2, s, xx, pp, sxp)


@dataclass(frozen=True)
class DensityMatrix:
    matrix: np.ndarray
    basis: fock.OrbitalBasis
    n: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        dim = fock.sector_dimension(self.n, self.basis.mode_count)
        if m.shape != (dim, dim):
            raise ConfigError(f"density matrix must be {dim}x{dim} for this sector")
        if np.max(np.abs(m - m.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(m))):
            raise ConfigError("density matrix not Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-8:
            raise ConfigError(f"density matrix trace {np.trace(m).real!r} != 1")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_state(cls, state: fock.FockState | fock.StateEnsemble,
                   basis: fock.OrbitalBasis) -> "DensityMatrix":
        rows = fock.state_rows(state)
        if rows.dim > _DIM_CAP:
            raise DimensionTooLarge(f"sector dimension {rows.dim} exceeds {_DIM_CAP}")
        vecs = np.zeros((len(rows.weight), rows.dim), dtype=complex)
        vecs[rows.key // rows.dim, rows.key % rows.dim] = rows.amp
        rho = sum(w * np.outer(vec, vec.conj()) for w, vec in zip(rows.weight, vecs))
        return cls(matrix=rho, basis=basis, n=state.n)


def _coefficient(trap: TrapConfig, fb: FeedbackConfig, term: str) -> float:
    hbar = trap.hbar
    zeta, sigma = fb.shift_rate, fb.meas_resolution
    if term == "hamiltonian":
        return 1.0 / hbar
    if term == "friction":
        return zeta / (2.0 * hbar)
    if term == "measurement":
        return 0.0 if math.isinf(sigma) else 1.0 / (8.0 * sigma**2)
    if term == "noise":
        return 0.0 if zeta == 0.0 else zeta**2 * sigma**2 / (2.0 * hbar**2)
    raise ConfigError(f"unknown term {term!r}")


@dataclass(frozen=True)
class LindbladGenerator:
    """The master equation as one CSR superoperator on the row-major vec(rho).

    d rho/dt = -(i/hbar)[H, rho] + i (zeta/2 hbar)[P, {X, rho}]
               - (1/8 sigma^2)[X, [X, rho]] - (zeta^2 sigma^2 / 2 hbar^2)[P, [P, rho]]
    with X the cm position (T_x / N) and P the total momentum.  shift is
    trace(L) / dim(L) and norm the 1-norm of L - shift I, the two numbers
    the Taylor propagator is planned from.
    """

    trap: TrapConfig
    fb: FeedbackConfig
    basis: fock.OrbitalBasis
    n: int
    terms: tuple
    x_hat: np.ndarray
    p_hat: np.ndarray
    h_diag: np.ndarray
    obs: SectorObservables
    superop: scipy.sparse.csr_matrix | None = field(repr=False)
    shift: complex
    norm: float

    def coefficient(self, term: str) -> float:
        return _coefficient(self.trap, self.fb, term)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        self._check_finite()
        rho = np.asarray(rho, dtype=complex)
        return (self.superop @ rho.ravel()).reshape(rho.shape)

    def _check_finite(self) -> None:
        if self.superop is None:
            raise ConfigError("the generator has an infinite coefficient "
                              "(feedback with zeta > 0 needs a finite sigma)")


def _superoperator(basis: fock.OrbitalBasis, n: int, h_diag: np.ndarray,
                   coefficients: tuple):
    """(L as CSR, shift, 1-norm of L - shift I), over budget DimensionTooLarge.

    On the row-major vec(rho), A rho B is (A kron B^T) vec(rho).  L is
    left kron I + I kron right^T, for the terms A rho and rho B, which
    store at most the whole diagonal and dim entries per off-diagonal entry
    of either factor, plus the feedback's two-sided terms, which store at
    most one entry per pair of entries of X or P.  That bound is checked
    against the budget before any of L is built.
    """
    import scipy.sparse

    c_h, c_f, c_m, c_n = coefficients
    dim = len(h_diag)
    x, p = (scipy.sparse.csr_matrix(sector_operator(basis, n, op(basis).matrix))
            for op in (fock.position_matrix, fock.momentum_matrix))
    x = x / n
    h = scipy.sparse.diags(h_diag, format="csr")
    left = -1j * c_h * h + 1j * c_f * (p @ x) - c_m * (x @ x) - c_n * (p @ p)
    right = 1j * c_h * h - 1j * c_f * (x @ p) - c_m * (x @ x) - c_n * (p @ p)
    two_sided = bool(c_f or c_m or c_n)
    count = dim * dim + sum(dim * (op.nnz - np.count_nonzero(op.diagonal()))
                            for op in (left, right))
    if two_sided:
        count += (abs(x) + abs(p)).nnz ** 2
    if count > _NNZ_BUDGET:
        raise DimensionTooLarge(
            f"the (n={n}, m={basis.mode_count}) superoperator holds up to {count} "
            f"entries, over the budget of {_NNZ_BUDGET}")

    eye = scipy.sparse.identity(dim, format="csr")
    superop = (scipy.sparse.kron(left, eye, format="csr")
               + scipy.sparse.kron(eye, right.T, format="csr"))
    if two_sided:
        # i c_f (P rho X - X rho P) + 2 c_m X rho X + 2 c_n P rho P, summed
        # first: scipy keeps spare capacity after adding overlapping terms,
        # none after adding these to the disjoint one-sided block
        superop = superop + (
            scipy.sparse.kron(x, (2.0 * c_m * x - 1j * c_f * p).T, format="csr")
            + scipy.sparse.kron(p, (1j * c_f * x + 2.0 * c_n * p).T, format="csr"))
    diag = superop.diagonal()
    shift = complex(diag.mean())
    col_abs = np.bincount(superop.indices, weights=np.abs(superop.data),
                          minlength=dim * dim)
    return superop, shift, float(np.max(col_abs - np.abs(diag) + np.abs(diag - shift)))


def build_generator(trap: TrapConfig, fb: FeedbackConfig, basis: fock.OrbitalBasis,
                    terms: tuple = _ALL_TERMS) -> LindbladGenerator:
    """The generator of the chosen terms, its superoperator assembled once.

    A term with an infinite coefficient (feedback with zeta > 0 and sigma =
    inf) has no superoperator; such a generator refuses to be applied.
    """
    n = trap.atom_count
    unknown = set(terms) - set(_ALL_TERMS)
    if unknown:
        raise ConfigError(f"unknown generator terms {sorted(unknown)}")
    dim = fock.sector_dimension(n, basis.mode_count)
    if dim > _DIM_CAP:
        raise DimensionTooLarge(f"sector dimension {dim} exceeds {_DIM_CAP}")

    coefficients = tuple(_coefficient(trap, fb, t) if t in terms else 0.0
                         for t in _ALL_TERMS)
    h_diag = fock.occupation_energies(fock.occupations(n, basis.mode_count), trap)
    superop, shift, norm = None, 0j, math.inf
    if all(map(math.isfinite, coefficients)):
        superop, shift, norm = _superoperator(basis, n, h_diag, coefficients)
    obs = SectorObservables.build(basis, n)
    return LindbladGenerator(
        trap=trap, fb=fb, basis=basis, n=n, terms=tuple(terms),
        x_hat=obs.t_x / n, p_hat=obs.t_p, h_diag=h_diag, obs=obs,
        superop=superop, shift=shift, norm=norm,
    )


def _taylor_plan(norm: float, h: float) -> tuple[int, int]:
    """(degree, substeps) with the fewest products for exp(hA), ||A||_1 = norm."""
    substeps = np.maximum(1.0, np.ceil(norm * h / _THETA))
    k = int(np.argmin(_DEGREES * substeps))
    return int(_DEGREES[k]), int(substeps[k])


def _propagate(gen: LindbladGenerator, vec: np.ndarray, h: float,
               degree: int, substeps: int) -> np.ndarray:
    """exp(hL) vec: Al-Mohy & Higham's Algorithm 3.2 on the shifted L - shift I."""
    superop, mu = gen.superop, gen.shift
    scale = h / substeps
    eta = np.exp(mu * scale)
    out = vec
    for _ in range(substeps):
        c1 = np.max(np.abs(vec))
        for j in range(1, degree + 1):
            vec = (scale / j) * (superop @ vec - mu * vec)
            c2 = np.max(np.abs(vec))
            out = out + vec
            if c1 + c2 <= _TAYLOR_TOL * np.max(np.abs(out)):
                break
            c1 = c2
        out = eta * out
        vec = out
    return out


@dataclass(frozen=True)
class OracleTrajectory:
    times: np.ndarray
    joint: tuple  # JointMoments per emitted instant
    mean_X: np.ndarray
    var_X: np.ndarray
    mean_x1: np.ndarray
    dx: np.ndarray
    trace_err: np.ndarray
    top_pop: np.ndarray
    min_eig: np.ndarray
    final: np.ndarray  # density matrix at the last instant


def step_times(trap: TrapConfig, t_max: float, dt: float | None = None) -> np.ndarray:
    """The instants 0, dt, 2 dt, ... of a fixed-step clock over [0, t_max].

    Steps are summed one after the other and the last one is cut short to
    land on t_max, so the grid is the clock of a fixed-step integrator to
    the last bit.  dt defaults to 2 pi / (1000 omega) and may not exceed
    2 pi / (500 omega).
    """
    w = trap.trap_freq
    if dt is None:
        dt = 2.0 * math.pi / (1000.0 * w)
    if not dt > 0:
        raise ConfigError(f"dt must be > 0, got {dt!r}")
    if dt > 2.0 * math.pi / (500.0 * w) * (1 + 1e-12):
        raise ConfigError(f"dt {dt!r} exceeds 2 pi / (500 omega)")
    if not (t_max >= 0 and math.isfinite(t_max)):
        raise ConfigError(f"t_max must be finite and >= 0, got {t_max!r}")
    steps = max(0, math.ceil(t_max / dt - 1e-12))
    times = np.concatenate(([0.0], np.cumsum(np.full(steps, dt))))
    times[steps] = t_max
    return times


def integrate(rho0: DensityMatrix | np.ndarray, gen: LindbladGenerator,
              times, dt: float | None = None) -> OracleTrajectory:
    """rho(t) = exp(tL) rho0 at each instant of `times`, with monitors.

    times is a nondecreasing array of instants >= 0, or a scalar t_max that
    stands for the whole step_times(trap, t_max, dt) grid.  Only those
    instants are formed and checked.  Each emitted state is made Hermitian by
    conjugate-transpose averaging, propagation goes on from it, and it is
    checked for trace drift, top-orbital population (TruncationLeak above
    1e-6) and its minimum eigenvalue (PositivityLoss below -1e-6).
    """
    if np.ndim(times) == 0:
        times = step_times(gen.trap, float(times), dt)
    times = np.asarray(times, dtype=float)
    if (times.ndim != 1 or not len(times) or not np.all(np.isfinite(times))
            or times[0] < 0 or np.any(np.diff(times) < 0)):
        raise ConfigError("times must be a nonempty, finite, nondecreasing 1-D array from 0 on")
    gen._check_finite()

    obs = gen.obs
    x_sq = gen.x_hat @ gen.x_hat
    rho = np.array(rho0.matrix if isinstance(rho0, DensityMatrix) else rho0, dtype=complex)
    dim = rho.shape[0]
    vec = rho.ravel()
    plans = {}
    joint, record = [], []
    t_prev = 0.0
    for t in times:
        h = t - t_prev
        if h > 0:
            if h not in plans:
                plans[h] = _taylor_plan(gen.norm, h)
            vec = _propagate(gen, vec, h, *plans[h])
        t_prev = t
        rho = vec.reshape(dim, dim)
        rho = 0.5 * (rho + rho.conj().T)
        vec = rho.ravel()

        top = float(np.sum(obs.top_number * np.diag(rho).real))
        if top > 1e-6:
            raise TruncationLeak(f"top-orbital population {top:.3e} at t={t:.6f}")
        eig_min = float(np.linalg.eigvalsh(rho).min())
        if eig_min < -1e-6:
            raise PositivityLoss(f"eigenvalue {eig_min:.3e} at t={t:.6f}")
        jm = obs.joint_moments(rho)
        mx = float(np.sum(gen.x_hat.T * rho).real)
        vx = float(np.sum(x_sq.T * rho).real) - mx**2
        joint.append(jm)
        record.append((mx, vx, jm.mean[0], math.sqrt(jm.cov[0, 0]),
                       abs(np.trace(rho).real - 1.0), top, eig_min))

    mean_x, var_x, mean_x1, dx, trace_err, top_pop, min_eig = np.array(record).T
    return OracleTrajectory(
        times=times, joint=tuple(joint), mean_X=mean_x, var_X=var_x, mean_x1=mean_x1,
        dx=dx, trace_err=trace_err, top_pop=top_pop, min_eig=min_eig, final=rho,
    )


def compare_with_moments(state: fock.FockState | fock.StateEnsemble,
                         trap: TrapConfig, fb: FeedbackConfig,
                         t_grid: np.ndarray, basis: fock.OrbitalBasis,
                         dt: float | None = None) -> dict:
    """Max deviation between the exact oracle and the moment propagator.

    Grid times are snapped to the steps of step_times(trap, t, dt), and the
    oracle is evaluated at those instants only, so the two paths are
    compared at identical instants.
    """
    if dt is None:
        dt = 2.0 * math.pi / (1000.0 * trap.trap_freq)
    snapped = sorted({max(0, round(t / dt)) for t in np.asarray(t_grid, dtype=float)})
    clock = step_times(trap, snapped[-1] * dt, dt)
    gen = build_generator(trap, fb, basis)
    traj = integrate(DensityMatrix.from_state(state, basis), gen, clock[snapped])

    m0 = init_moments(state, basis)
    g = build_generators(trap, fb)
    dev_mean = 0.0
    dev_cov = 0.0
    for exact, idx in zip(traj.joint, snapped):
        gauss = evolve_moments(m0, g, idx * dt)
        dev_mean = max(dev_mean, float(np.max(np.abs(exact.mean - gauss.mean))))
        dev_cov = max(dev_cov, float(np.max(np.abs(exact.cov - gauss.cov))))
    return {"mean": dev_mean, "cov": dev_cov}
