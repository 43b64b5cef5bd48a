"""Exact oracle: the N-atom master equation on the full Fock-sector density matrix.

Ground truth for the moment propagator and the measurement loop, with no
Gaussian or weak-coupling shortcuts.  The generator acts on rho through
sparse (CSR) sector operators, and rho(t) = exp(tL) rho(0) is evaluated
only at the instants a caller asks for, by the scaled truncated Taylor
series of Al-Mohy & Higham (SIAM J. Sci. Comput. 33:488, 2011).

The equation conserves the parity of E - E', E = sum_i i n_i the excitation
of a basis state: X and P move E by one, the rest leaves it.  So rho is
propagated packed by parity (ParityBlocks), as its even entries and, only
when it has any, its odd ones: a rho(0) with none (ground, Fock, thermal,
NOON and squeezed condensates) keeps none and costs about half the work.
The small sectors, whose stacks are dense, propagate rho itself.  Every
entry has the same bits as on the full rho.

Any atom number is accepted: the sector dimension is capped at d <= 1000
(N = 3 fits up to M = 17 orbitals, N = 4 up to M = 10 and N = 5 up to
M = 8), and the Taylor plan of one run at 2^18 generator products and 2^34
multiply-adds, both counted on the full rho.

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
from .errors import ConfigError, PositivityLoss, TruncationLeak, check_budget, sig
from .moments import (
    MomentGrid,
    build_generators,
    checked_grid,
    evolve_grid,
    init_moments,
    moments_from_raw,
)
from .scales import FeedbackConfig, TrapConfig

_ALL_TERMS = ("hamiltonian", "friction", "measurement", "noise")

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


@dataclass(frozen=True)
class DensityMatrix:
    matrix: np.ndarray  # Hermitian and of unit trace, over the (n, m) sector
    n: int  # atoms
    m: int  # orbitals

    def __post_init__(self):
        if not all(isinstance(k, (int, np.integer)) and k >= 1 for k in (self.n, self.m)):
            raise ConfigError(f"a sector takes integer counts >= 1, got ({self.n!r}, {self.m!r})")
        rho = np.asarray(self.matrix, dtype=complex)
        dim = fock.sector_dimension(self.n, self.m)
        if rho.shape != (dim, dim):
            raise ConfigError(f"density matrix must be {dim}x{dim} for this sector")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(rho))):
            raise ConfigError("density matrix not Hermitian")
        if abs(np.trace(rho).real - 1.0) > 1e-8:
            raise ConfigError(f"density matrix trace {np.trace(rho).real!r} != 1")
        object.__setattr__(self, "matrix", rho)

    @classmethod
    def from_state(cls, state: fock.FockState) -> "DensityMatrix":
        check_budget("sector", state.dim, f"the (n={sig(state.n)}, m={state.m}) sector")
        vecs = np.zeros((len(state.weight), state.dim), dtype=complex)
        vecs[state.label, state.key % state.dim] = state.amp
        rho = sum(w * np.outer(vec, vec.conj()) for w, vec in zip(state.weight, vecs))
        return cls(matrix=rho, n=state.n, m=state.m)


def _coefficients(trap: TrapConfig, fb: FeedbackConfig) -> dict:
    """c_h, c_f, c_m and c_n of the master equation, by term."""
    hbar, zeta, sigma = trap.hbar, fb.shift_rate, fb.meas_resolution
    # without feedback sigma may be inf: 1/sigma^2 is 0 there, zeta^2 sigma^2 NaN
    return {"hamiltonian": 1.0 / hbar, "friction": zeta / (2.0 * hbar),
            "measurement": 1.0 / (8.0 * sigma**2),
            "noise": 0.0 if zeta == 0.0 else zeta**2 * sigma**2 / (2.0 * hbar**2)}


@dataclass(frozen=True)
class LindbladGenerator:
    """The master equation as sector products on the dense rho.

    d rho/dt = -(i/hbar)[H, rho] + i (zeta/2 hbar)[P, {X, rho}]
               - (1/8 sigma^2)[X, [X, rho]] - (zeta^2 sigma^2 / 2 hbar^2)[P, [P, rho]]
    with X the cm position (T_x / N) and P the total momentum.  Gathered by
    the side of rho each factor stands on, with c_h, c_f, c_m, c_n the four
    coefficients above, this is L(rho) = left rho + rho right + X rho Y +
    P rho Z, where Y = 2 c_m X - i c_f P and Z = i c_f X + 2 c_n P.  stacks
    holds [left; X; P] and [right; Y; Z]^T as CSR, so that L(rho) is two
    sparse products: [left; X; P] rho, then [rho, X rho, P rho] [right; Y; Z]
    (dense ones when the stacks are over a tenth full).  Without feedback
    Y = Z = 0 and the stacks hold left and right alone.  blocks holds them
    as they act on the packed rho (see ParityBlocks).  shift is
    trace(L) / d^2 and norm a bound on the 1-norm of L - shift I, the two
    numbers the Taylor propagator is planned from.
    """

    basis: fock.OrbitalBasis  # the m orbitals of the trap, which holds N
    fb: FeedbackConfig
    x_hat: scipy.sparse.csr_matrix
    p_hat: scipy.sparse.csr_matrix
    h_diag: np.ndarray
    top_number: np.ndarray  # diagonal of the top-orbital number operator
    # T_x, T_p, T_x2, T_p2, T_sxp, T_x T_x, T_p T_p and sym(T_x T_p) in COO form
    traced: tuple = field(repr=False)
    stacks: tuple = field(repr=False)
    blocks: ParityBlocks = field(repr=False)
    shift: complex
    norm: float

    def raw_moments(self, rho: np.ndarray) -> tuple:
        # trace(A rho) = sum_ij A_ij rho_ji; moments_from_raw takes the
        # one-body traces per atom and ignores the collective ones at N = 1
        n = self.basis.trap.atom_count
        traces = [np.dot(a.data, rho[a.col, a.row]).real for a in self.traced]
        return moments_from_raw(n, *(t / n for t in traces[:5]), *traces[5:])

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return self.blocks.unpack(self.blocks.apply(self.blocks.pack(np.asarray(rho, complex))))


@dataclass(frozen=True)
class ParityBlocks:
    """The generator's stacks on its basis split into classes, and rho packed by them.

    Dense stacks keep one class, the whole basis, whose packed rho is rho
    itself.  Sparse stacks split it by the parity of E, even first: left
    and right keep the class of a state, X, P, Y and Z flip it.  The packed
    rho is (2 w) x (halves w), w the larger class, the states of class r in
    rows r w on.  Half c holds, in the rows of class r, the entries of rho
    whose column is of class r ^ c, zeros padding the rest: half 0 the even
    entries, half 1 the odd ones, carried only when rho has one.  Then
    [left; X; P] times the packed rho holds left rho, X rho and P rho in the
    same slots, and its block of class r and half c meets only the rows of
    class r ^ c of [right; Y; Z]^T: the second product is block-diagonal.
    Each row keeps its stored entries in their stored order and only zeros
    drop out of the sums, so every entry matches the full product to the bit.
    """

    classes: tuple  # per class, its basis states in order: (all,) or (even, odd)
    lhs: scipy.sparse.csr_matrix = field(repr=False)  # [left; X; P] on the packed rows
    rhs: dict = field(repr=False)  # per packed width, [right; Y; Z]^T on its blocks
    index: np.ndarray | None = field(repr=False)  # flat index in rho per packed entry, d^2: zero

    @classmethod
    def build(cls, stacks: tuple, odd: np.ndarray) -> "ParityBlocks":
        import scipy.sparse

        (lhs, rhs), dim = stacks, len(odd)
        if not scipy.sparse.issparse(lhs):
            return cls(classes=(np.arange(dim),), lhs=lhs, rhs={dim: rhs}, index=None)
        order, even = np.argsort(odd, kind="stable"), dim - int(np.count_nonzero(odd))
        classes, width = (order[:even], order[even:]), max(even, dim - even)
        parts = lhs.shape[0] // dim
        # each state's slot in its class, and its row in the packed rho
        slot = np.argsort(order) - even * odd
        row = slot + width * odd

        def placed(stack, rows, targets, columns, offsets, shape):
            # rows picked by slicing keep their entry order, set at the targets
            a = stack[rows]
            sizes = np.zeros(shape[0] + 1, dtype=np.int64)
            sizes[targets + 1] = np.diff(a.indptr)
            columns = columns[a.indices] + np.repeat(offsets, np.diff(a.indptr))
            return scipy.sparse.csr_matrix((a.data, columns, np.cumsum(sizes)), shape=shape)

        stride = np.arange(parts)[:, None]
        lhs = placed(lhs, (stride * dim + order).ravel(), (stride * 2 * width + row[order]).ravel(),
                     row, np.zeros(parts * dim, dtype=int), (parts * 2 * width, 2 * width))
        # the block of class r in half c, half 0 first, meets the rows of class
        # r ^ c, on the columns of [rho; X rho; P rho]^T of that block
        meets = np.concatenate([classes[r ^ c] for c in (0, 1) for r in (0, 1)])
        block = np.repeat(np.arange(4), [len(classes[r ^ c]) for c in (0, 1) for r in (0, 1)])
        rhs = placed(rhs, meets, block * width + slot[meets], (stride * width + slot).ravel(),
                     block * parts * width, (4 * width, 4 * parts * width))
        index = np.full((2 * width, 2 * width), dim * dim)
        half = (odd[:, None] ^ odd) * width
        index[row[:, None], half + slot] = np.arange(dim * dim).reshape(dim, dim)
        return cls(classes, lhs, {width: rhs[:2 * width, :2 * width * parts], 2 * width: rhs},
                   index)

    def pack(self, rho: np.ndarray) -> np.ndarray:
        if self.index is None:
            return rho
        packed = np.append(rho, 0.0)[self.index]
        # the odd half is carried only when rho has an odd entry
        half = len(packed) // 2
        return packed if np.any(packed[:, half:]) else packed[:, :half].copy()

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        if self.index is None:
            return packed
        dim = sum(map(len, self.classes))
        rho = np.zeros(dim * dim + 1, dtype=complex)
        rho[self.index[:, :packed.shape[1]]] = packed
        return rho[:-1].reshape(dim, dim)

    def apply(self, packed: np.ndarray) -> np.ndarray:
        """L(rho) packed, from the packed rho."""
        (rows, columns), classes = packed.shape, len(self.classes)
        width, halves = rows // classes, columns * classes // rows
        products = (self.lhs @ packed).reshape(-1, classes, width, halves, width)
        # the second product transposed, so that it takes a C-ordered block
        blocks = products.transpose(3, 1, 0, 4, 2).copy()
        blocks[:, :, 0] = packed.reshape(classes, width, halves, width).transpose(2, 0, 3, 1)
        second = self.rhs[columns] @ blocks.reshape(-1, width)
        # summed in place: a fresh output array costs more than the sum at d ~ 100
        out = products[0]
        out += second.reshape(halves, classes, width, width).transpose(1, 3, 0, 2)
        return out.reshape(rows, columns)


def _stacks(x, p, h_diag: np.ndarray, coefficients: tuple):
    """(stacks, shift, norm bound) of the generator with these coefficients.

    On the row-major vec(rho), A rho B is the Kronecker product of A and
    B^T, so column (k, l) of L is left[:, k] e_l^T + e_k right[l, :] +
    X[:, k] Y[l, :] + P[:, k] Z[l, :].  Its diagonal entry, left[k, k] +
    right[l, l] (X and P have none: they move one atom), is summed exactly,
    the rest of its 1-norm bounded term by term; the largest bound over
    (k, l) is norm, 1.05-1.41x ||L - shift I||_1 at N = 1-3.
    """
    import scipy.sparse

    c_h, c_f, c_m, c_n = coefficients
    h = scipy.sparse.diags(h_diag, format="csr")
    xx, pp = x @ x, p @ p
    left = -1j * c_h * h + 1j * c_f * (p @ x) - c_m * xx - c_n * pp
    right = 1j * c_h * h - 1j * c_f * (x @ p) - c_m * xx - c_n * pp
    y = 2.0 * c_m * x - 1j * c_f * p
    z = 1j * c_f * x + 2.0 * c_n * p

    def abs_sums(a, axis):
        return np.asarray(abs(a).sum(axis=axis)).ravel()

    diagonal = left.diagonal()[:, None] + right.diagonal()
    shift = complex(diagonal.mean())
    rest = ((abs_sums(left, 0) - abs(left.diagonal()))[:, None]
            + (abs_sums(right, 1) - abs(right.diagonal()))
            + np.outer(abs_sums(x, 0), abs_sums(y, 1)) + np.outer(abs_sums(p, 0), abs_sums(z, 1)))
    norm = float(np.max(abs(diagonal - shift) + rest))

    pairs = ((left, right), (x, y), (p, z)) if c_f or c_m or c_n else ((left, right),)
    stacks = (scipy.sparse.vstack([a for a, _ in pairs], format="csr"),
              scipy.sparse.hstack([b.T for _, b in pairs], format="csr"))
    if stacks[0].nnz + stacks[1].nnz > 0.2 * len(pairs) * len(h_diag)**2:
        # over a tenth full, dense stacks through BLAS are the faster (N = 1, M = 12)
        stacks = tuple(stack.toarray() for stack in stacks)
    return stacks, shift, norm


def build_generator(trap: TrapConfig, fb: FeedbackConfig, m: int,
                    terms: tuple = _ALL_TERMS) -> LindbladGenerator:
    """The generator of the chosen terms in the trap's first m orbitals, built once.

    Refused (ConfigError) before any operator is built when a chosen term's
    coefficient leaves the float range.
    """
    n, basis = trap.atom_count, fock.OrbitalBasis(m, trap)
    unknown = set(terms) - set(_ALL_TERMS)
    if unknown:
        raise ConfigError(f"unknown generator terms {sorted(unknown)}")
    chosen = {t: c if t in terms else 0.0 for t, c in _coefficients(trap, fb).items()}
    if not all(map(math.isfinite, chosen.values())):
        raise ConfigError(f"the generator's coefficients {chosen} leave the float range")
    dim = fock.sector_dimension(n, m)
    check_budget("sector", dim, f"the (n={sig(n)}, m={m}) sector")

    import scipy.sparse

    occs = fock.occupations(n, m)

    def collective(build):
        src, tgt, val, _, _ = map(np.concatenate,
                                  zip(*fock.one_body_chunks(occs, build(basis).matrix)))
        return scipy.sparse.csr_matrix((val, (tgt, src)), shape=(dim, dim))

    t_x, t_p, t_x2, t_p2, t_sxp = map(collective, (
        fock.position_matrix, fock.momentum_matrix, fock.position_sq_matrix,
        fock.momentum_sq_matrix, fock.sym_xp_matrix))
    traced = (t_x, t_p, t_x2, t_p2, t_sxp,
              t_x @ t_x, t_p @ t_p, 0.5 * (t_x @ t_p + t_p @ t_x))
    h_diag = fock.occupation_energies(occs, trap)
    x_hat = t_x / n
    stacks, shift, norm = _stacks(x_hat, t_p, h_diag, tuple(chosen.values()))
    odd = occs @ np.arange(m) % 2 == 1
    return LindbladGenerator(
        basis=basis, fb=fb, x_hat=x_hat, p_hat=t_p, h_diag=h_diag,
        top_number=occs[:, -1].astype(float), traced=tuple(a.tocoo() for a in traced),
        stacks=stacks, blocks=ParityBlocks.build(stacks, odd), shift=shift, norm=norm,
    )


def _taylor_plan(norm: float, h: float) -> tuple[int, float]:
    """(degree, substeps) with the fewest products for exp(hA), ||A||_1 = norm.

    substeps stays a float, so that an infinite or NaN norm * h reaches the
    budget, which refuses it, rather than an integer conversion.  A finite
    norm * h whose quotient by theta overflows reaches it as inf as well,
    with no warning that a caller's filters could raise.
    """
    with np.errstate(over="ignore"):
        substeps = np.maximum(1.0, np.ceil(norm * h / _THETA))
    k = int(np.argmin(_DEGREES * substeps))
    return int(_DEGREES[k]), float(substeps[k])


def _propagate(apply, mu: complex, rho: np.ndarray, h: float,
               degree: int, substeps: int) -> np.ndarray:
    """exp(hL) rho: Al-Mohy & Higham's Algorithm 3.2 on the shifted L - shift I.

    apply is L on the packed rho, into a fresh array.  Each substep sums its
    series in place in the array its first term makes, so rho, which may be
    the caller's rho0 itself, is never written.
    """
    scale = h / substeps
    eta = np.exp(mu * scale)
    for _ in range(int(substeps)):
        out, term = None, rho
        c1 = abs(rho).max()
        for j in range(1, degree + 1):
            new = apply(term)
            new -= mu * term
            term = np.multiply(scale / j, new, new)
            c2 = abs(term).max()
            out = rho + term if out is None else np.add(out, term, out)
            if c1 + c2 <= _TAYLOR_TOL * abs(out).max():
                break
            c1 = c2
        # eta first: numpy's complex product is not bitwise symmetric
        rho = np.multiply(eta, out, out)
    return rho


@dataclass(frozen=True)
class OracleTrajectory:
    times: np.ndarray
    moments: MomentGrid  # the joint moments at each emitted instant
    trace_err: np.ndarray
    top_pop: np.ndarray
    min_eig: np.ndarray
    final: np.ndarray  # density matrix at the last instant
    sectors: int  # parity sectors of E - E' carried: 1 the even half alone, 2 all of rho


def step_times(trap: TrapConfig, t_max: float, dt: float | None = None) -> np.ndarray:
    """The instants 0, dt, 2 dt, ... of a fixed-step clock over [0, t_max].

    It only names the instants the oracle CLI writes: every stride-th one
    and the last, t_max.  Steps are summed one after the other and the
    last one is cut short to land on t_max.  dt defaults to
    2 pi / (1000 omega) and may not exceed 2 pi / (500 omega); the clock
    holds at most 2^20 steps, checked before it is built.
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
    ratio = t_max / dt - 1e-12  # compared as a float: a tiny dt makes it inf
    check_budget("steps", ratio, "the step clock")
    steps = max(0, math.ceil(ratio))
    times = np.concatenate(([0.0], np.cumsum(np.full(steps, dt))))
    times[steps] = t_max
    return times


def integrate(rho0: DensityMatrix, gen: LindbladGenerator,
              times: np.ndarray) -> OracleTrajectory:
    """rho(t) = exp(tL) rho0 at each instant of `times`, with monitors.

    rho0 is a DensityMatrix of the generator's sector (ConfigError
    otherwise), times a nondecreasing array of any instants >= 0: each gap
    is reached directly by its own Taylor plan, on no step clock.  Only
    those instants are formed and checked.  Each emitted state is made
    Hermitian by conjugate-transpose averaging, propagation goes on from it
    packed (see ParityBlocks), and it is checked for trace drift,
    top-orbital population (TruncationLeak above 1e-6) and its minimum
    eigenvalue (PositivityLoss below -1e-6); their moments, in one
    checked_grid (StepRejected) once the last instant is formed.
    """
    n, m = gen.basis.trap.atom_count, gen.basis.mode_count
    if not (isinstance(rho0, DensityMatrix) and (rho0.n, rho0.m) == (n, m)):
        raise ConfigError(f"rho0 must be a DensityMatrix of the generator's ({n}, {m}) sector")
    times = np.asarray(times, dtype=float)
    if (times.ndim != 1 or not len(times) or not np.all(np.isfinite(times))
            or times[0] < 0 or np.any(np.diff(times) < 0)):
        raise ConfigError("times must be a nonempty, finite, nondecreasing 1-D array from 0 on")

    steps = np.diff(times, prepend=0.0).tolist()
    plans = {h: _taylor_plan(gen.norm, h) for h in set(steps) if h > 0}
    products = sum(math.prod(plans[h]) for h in steps if h > 0)
    entries, dim = sum(stack.size for stack in gen.stacks), len(gen.h_diag)
    plan = f"the Taylor plan ({entries} stored entries at d = {dim})"
    check_budget("products", products, plan)
    check_budget("work", products * entries * dim, plan)

    packed = gen.blocks.pack(rho0.matrix)
    # a packed rho narrower than rho carries the even half alone
    sectors = 1 if packed.shape[1] < dim else 2
    raw, record = [], []
    for t, h in zip(times, steps):
        if h > 0:
            packed = _propagate(gen.blocks.apply, gen.shift, packed, h, *plans[h])
        rho = gen.blocks.unpack(packed)
        rho = 0.5 * (rho + rho.conj().T)
        packed = gen.blocks.pack(rho)
        top = float(np.sum(gen.top_number * np.diag(rho).real))
        if top > 1e-6:
            raise TruncationLeak(f"top-orbital population {top:.3e} at t={t:.6f}")
        eig_min = float(np.linalg.eigvalsh(rho).min())
        if eig_min < -1e-6:
            raise PositivityLoss(f"eigenvalue {eig_min:.3e} at t={t:.6f}")
        raw.append(gen.raw_moments(rho))
        record.append((abs(np.trace(rho).real - 1.0), top, eig_min))

    trace_err, top_pop, min_eig = np.array(record).T
    return OracleTrajectory(
        times=times, moments=checked_grid(n, *map(np.array, zip(*raw))),
        trace_err=trace_err, top_pop=top_pop, min_eig=min_eig, final=rho, sectors=sectors,
    )


def compare_with_moments(state: fock.FockState, trap: TrapConfig, fb: FeedbackConfig,
                         t_grid: np.ndarray) -> dict:
    """Max deviation between the exact oracle and the moment flow, in the state's m orbitals.

    t_grid is a nonempty 1-D array of finite instants >= 0, in any order and
    with repeats.  integrate and evolve_grid both run at np.unique(t_grid),
    so the two paths are compared at identical instants.
    """
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or not len(grid) or not np.all(np.isfinite(grid)) or np.any(grid < 0):
        raise ConfigError("t_grid must be a nonempty 1-D array of finite instants >= 0")
    times = np.unique(grid)
    gen = build_generator(trap, fb, int(state.m))  # a state's m may be a NumPy integer
    exact = integrate(DensityMatrix.from_state(state), gen, times).moments
    gauss = evolve_grid(init_moments(state, gen.basis), build_generators(trap, fb), times)
    return {"mean": float(np.max(np.abs(exact.mean - gauss.mean))),
            "cov": float(np.max(np.abs(exact.cov - gauss.cov)))}
