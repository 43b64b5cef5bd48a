"""Exact dense integrator of the N-atom master equation (N = 1, 2).

Ground truth for the moment propagator and the measurement loop: the full
density matrix over the fixed-N occupation basis is stepped with RK4, with
no Gaussian or weak-coupling shortcuts.  Dimensions stay tiny, so everything
is dense and deterministic.

Positivity is monitored, never enforced: the equation is of quantum Brownian
motion type (not a completed Lindblad form), so small transient negativity is
possible and a silent projection would mask generator bugs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fock
from .errors import (
    ConfigError,
    DimensionTooLarge,
    InvalidN,
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
_DIM_CAP = 10_000


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


@dataclass(frozen=True)
class LindbladGenerator:
    """Right-hand side of the master equation, term by term.

    d rho/dt = -(i/hbar)[H, rho] + i (zeta/2 hbar)[P, {X, rho}]
               - (1/8 sigma^2)[X, [X, rho]] - (zeta^2 sigma^2 / 2 hbar^2)[P, [P, rho]]
    with X the cm position (T_x / N) and P the total momentum.
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
    _x_sq: np.ndarray = field(repr=False, default=None)
    _p_sq: np.ndarray = field(repr=False, default=None)

    def coefficient(self, term: str) -> float:
        hbar = self.trap.hbar
        zeta, sigma = self.fb.shift_rate, self.fb.meas_resolution
        if term == "hamiltonian":
            return 1.0 / hbar
        if term == "friction":
            return zeta / (2.0 * hbar)
        if term == "measurement":
            return 0.0 if math.isinf(sigma) else 1.0 / (8.0 * sigma**2)
        if term == "noise":
            return 0.0 if zeta == 0.0 else zeta**2 * sigma**2 / (2.0 * hbar**2)
        raise ConfigError(f"unknown term {term!r}")

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros_like(rho)
        x, p = self.x_hat, self.p_hat
        if "hamiltonian" in self.terms:
            # H is diagonal in the occupation basis
            out += -1j * self.coefficient("hamiltonian") * (
                self.h_diag[:, None] * rho - rho * self.h_diag[None, :]
            )
        if "friction" in self.terms:
            anti = x @ rho + rho @ x
            out += 1j * self.coefficient("friction") * (p @ anti - anti @ p)
        if "measurement" in self.terms:
            c = self.coefficient("measurement")
            if c:
                out -= c * (self._x_sq @ rho - 2.0 * x @ rho @ x + rho @ self._x_sq)
        if "noise" in self.terms:
            c = self.coefficient("noise")
            if c:
                out -= c * (self._p_sq @ rho - 2.0 * p @ rho @ p + rho @ self._p_sq)
        return out


def build_generator(trap: TrapConfig, fb: FeedbackConfig, basis: fock.OrbitalBasis,
                    terms: tuple = _ALL_TERMS) -> LindbladGenerator:
    n = trap.atom_count
    if n not in (1, 2):
        raise InvalidN(f"exact integration supports N in (1, 2), got {n}")
    dim = fock.sector_dimension(n, basis.mode_count)
    if dim > _DIM_CAP:
        raise DimensionTooLarge(f"sector dimension {dim} exceeds {_DIM_CAP}")
    unknown = set(terms) - set(_ALL_TERMS)
    if unknown:
        raise ConfigError(f"unknown generator terms {sorted(unknown)}")

    obs = SectorObservables.build(basis, n)
    x_hat = obs.t_x / n
    p_hat = obs.t_p
    h_diag = fock.occupation_energies(fock.occupations(n, basis.mode_count), trap)
    return LindbladGenerator(
        trap=trap, fb=fb, basis=basis, n=n, terms=tuple(terms),
        x_hat=x_hat, p_hat=p_hat, h_diag=h_diag,
        obs=obs,
        _x_sq=x_hat @ x_hat, _p_sq=p_hat @ p_hat,
    )


@dataclass(frozen=True)
class OracleTrajectory:
    times: np.ndarray
    joint: tuple  # JointMoments per emitted step
    mean_X: np.ndarray
    var_X: np.ndarray
    mean_x1: np.ndarray
    dx: np.ndarray
    trace_err: np.ndarray
    top_pop: np.ndarray
    final: np.ndarray  # final density matrix


def integrate(rho0: DensityMatrix | np.ndarray, gen: LindbladGenerator,
              t_max: float, dt: float | None = None) -> OracleTrajectory:
    """Fixed-step RK4 with per-step monitors.

    Each step re-imposes Hermiticity by conjugate-transpose averaging, then
    checks trace drift, top-orbital population (TruncationLeak above 1e-6)
    and the minimum eigenvalue (PositivityLoss below -1e-6).
    """
    w = gen.trap.trap_freq
    if dt is None:
        dt = 2.0 * math.pi / (1000.0 * w)
    if dt <= 0:
        raise ConfigError(f"dt must be > 0, got {dt!r}")
    if dt > 2.0 * math.pi / (500.0 * w) * (1 + 1e-12):
        raise ConfigError(f"dt {dt!r} exceeds 2 pi / (500 omega)")
    if t_max < 0:
        raise ConfigError(f"t_max must be >= 0, got {t_max!r}")

    rho = np.array(rho0.matrix if isinstance(rho0, DensityMatrix) else rho0, dtype=complex)
    steps = max(0, math.ceil(t_max / dt - 1e-12))

    times, joint, mean_x_arr, var_x_arr = [], [], [], []
    mean_x1_arr, dx_arr, trace_arr, top_arr = [], [], [], []

    def emit(t, r):
        tr = np.trace(r).real
        trace_err = abs(tr - 1.0)
        top = float(np.sum(gen.obs.top_number * np.diag(r).real))
        if top > 1e-6:
            raise TruncationLeak(f"top-orbital population {top:.3e} at t={t:.6f}")
        eig_min = float(np.linalg.eigvalsh(r).min())
        if eig_min < -1e-6:
            raise PositivityLoss(f"eigenvalue {eig_min:.3e} at t={t:.6f}")
        jm = gen.obs.joint_moments(r)
        mx = float(np.trace(gen.x_hat @ r).real)
        vx = float(np.trace(gen.x_hat @ gen.x_hat @ r).real) - mx**2
        times.append(t)
        joint.append(jm)
        mean_x_arr.append(mx)
        var_x_arr.append(vx)
        mean_x1_arr.append(jm.mean[0])
        dx_arr.append(math.sqrt(jm.cov[0, 0]))
        trace_arr.append(trace_err)
        top_arr.append(top)

    emit(0.0, rho)
    t = 0.0
    for k in range(steps):
        h = min(dt, t_max - t)
        k1 = gen.apply(rho)
        k2 = gen.apply(rho + 0.5 * h * k1)
        k3 = gen.apply(rho + 0.5 * h * k2)
        k4 = gen.apply(rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        t = t_max if k == steps - 1 else t + h
        emit(t, rho)

    return OracleTrajectory(
        times=np.array(times),
        joint=tuple(joint),
        mean_X=np.array(mean_x_arr),
        var_X=np.array(var_x_arr),
        mean_x1=np.array(mean_x1_arr),
        dx=np.array(dx_arr),
        trace_err=np.array(trace_arr),
        top_pop=np.array(top_arr),
        final=rho,
    )


def compare_with_moments(state: fock.FockState | fock.StateEnsemble,
                         trap: TrapConfig, fb: FeedbackConfig,
                         t_grid: np.ndarray, basis: fock.OrbitalBasis,
                         dt: float | None = None) -> dict:
    """Max deviation between the exact integrator and the moment propagator.

    Grid times are snapped to integration steps so the two paths are
    evaluated at identical instants.
    """
    if dt is None:
        dt = 2.0 * math.pi / (1000.0 * trap.trap_freq)
    snapped = sorted({max(0, round(t / dt)) for t in np.asarray(t_grid, dtype=float)})
    gen = build_generator(trap, fb, basis)
    traj = integrate(DensityMatrix.from_state(state, basis), gen, snapped[-1] * dt, dt)

    m0 = init_moments(state, basis)
    g = build_generators(trap, fb)
    dev_mean = 0.0
    dev_cov = 0.0
    for idx in snapped:
        exact = traj.joint[idx]
        gauss = evolve_moments(m0, g, idx * dt)
        dev_mean = max(dev_mean, float(np.max(np.abs(exact.mean - gauss.mean))))
        dev_cov = max(dev_cov, float(np.max(np.abs(exact.cov - gauss.cov))))
    return {"mean": dev_mean, "cov": dev_cov}
