"""N-boson states over the first M harmonic-oscillator orbitals.

Exact finite representation: occupation-number states with fixed total N,
one-body operators as M x M matrices in the orbital basis, and real-space
densities via the stable Hermite-function recurrence.

A state is a weighted batch of pure members: a (k, M) integer array of
occupation rows with the amplitudes and member labels beside it, sorted by
member, then by exact lexicographic sector rank.  A pure state is one member
of weight 1, a thermal ensemble one member per configuration.  One kernel,
`one_body_coo`, gives the COO triplets of sum_ij A_ij a+_i a_j on any rows;
every expectation, density and dense sector matrix comes from it.  Means
<T_A> are traces against rho1, formed once per state, and products
<T_A T_B> overlaps of once-applied vectors, weighted by member; operators of
one nonzero pattern share one walk over the rows.  Every enumeration of
occupation rows is checked against one row budget before it starts, and
operators are applied in row chunks of bounded size.

Analytic matrix kinds exist for x^2, p^2, sym(xp) and q^2(t) because squaring
the truncated x matrix loses the top diagonal elements; diagonal second
moments must be truncation-exact.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    CutoffTooTight,
    GridTooCoarse,
    NotNormalized,
    TruncationLeak,
    check_budget,
    sig,
)
from .scales import TrapConfig

_NORM_TOL = 1e-12
_LEAK_TOL = 1e-10  # top-orbital weight allowed per member under an operator product
# most COO entries one_body_chunks asks of one_body_coo at once:
# one_body_density on a 33,649-row state (N = 18, M = 6), chunk by chunk,
# peaks at 44 MB under tracemalloc
_ENTRY_BUDGET = 2**18

@dataclass(frozen=True)
class OrbitalBasis:
    """First mode_count harmonic-oscillator orbitals of the given trap."""

    mode_count: int
    trap: TrapConfig

    def __post_init__(self):
        if not (isinstance(self.mode_count, (int, np.integer)) and self.mode_count >= 2):
            raise ConfigError(f"mode_count must be an integer >= 2, got {sig(self.mode_count)}")
        check_budget("modes", self.mode_count, "mode_count")

    @property
    def length_scale(self) -> float:
        t = self.trap
        return math.sqrt(t.hbar / (t.mass * t.trap_freq))


@dataclass(frozen=True)
class OneBodyOperator:
    """A finite, Hermitian M x M one-body matrix; the constructor checks all three."""

    matrix: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigError(f"one-body matrix must be square, got shape {m.shape}")
        m.setflags(write=False)  # frozen like the operator, so caches may share it
        object.__setattr__(self, "matrix", m)
        if not np.isfinite(m).all():
            raise ConfigError(f"one-body matrix is not finite (kind={self.kind})")
        if np.max(np.abs(m - m.conj().T)) > 1e-14 * max(1.0, np.max(np.abs(m))):
            raise ConfigError(f"one-body matrix is not Hermitian (kind={self.kind})")


def _ladder_amp(basis: OrbitalBasis) -> float:
    # sqrt(hbar/(2 m omega)): scale of x between neighboring orbitals
    t = basis.trap
    return math.sqrt(t.hbar / (2.0 * t.mass * t.trap_freq))


def _ladder(basis: OrbitalBasis, kind: str, one=0.0, two=0.0, diag=0.0,
            phase=None) -> OneBodyOperator:
    """one a + two a^2 + h.c. + diag (2 a+a + 1), truncated to the basis.

    Entry [n, n] is diag (2n + 1), [n, n+1] is one sqrt(n+1) and [n, n+2] is
    two sqrt((n+1)(n+2)), times phase if given; the entries below the
    diagonal are the conjugates of those above.  The diagonal comes from
    the ladder, not from squaring a truncated matrix, so it is exact at any M.
    """
    m = basis.mode_count
    out = np.zeros((m, m), dtype=complex)
    for n in range(m):
        out[n, n] = diag * (2 * n + 1)
    for n in range(m - 1):
        out[n, n + 1] = one * math.sqrt(n + 1)
    for n in range(m - 2):
        amp = two * math.sqrt((n + 1) * (n + 2))
        out[n, n + 2] = amp if phase is None else amp * phase
    # adding the zeros below the diagonal turns their signed zeros positive
    return OneBodyOperator(out + np.triu(out, 1).conj().T, kind=kind)


def position_matrix(basis: OrbitalBasis) -> OneBodyOperator:
    return _ladder(basis, "x", one=_ladder_amp(basis))


def momentum_matrix(basis: OrbitalBasis) -> OneBodyOperator:
    # sign convention fixed by [x, p] = i*hbar on the untruncated algebra
    t = basis.trap
    return _ladder(basis, "p", one=-1j * math.sqrt(t.hbar * t.mass * t.trap_freq / 2.0))


def position_sq_matrix(basis: OrbitalBasis) -> OneBodyOperator:
    # (hbar/2 m omega) (a^2 + a+^2 + 2 a+a + 1)
    s = _ladder_amp(basis) ** 2
    return _ladder(basis, "x^2", two=s, diag=s)


def momentum_sq_matrix(basis: OrbitalBasis) -> OneBodyOperator:
    t = basis.trap
    s = t.hbar * t.mass * t.trap_freq / 2.0
    return _ladder(basis, "p^2", two=-s, diag=s)


def sym_xp_matrix(basis: OrbitalBasis) -> OneBodyOperator:
    # (xp + px)/2 = i (hbar/2) (a+^2 - a^2)
    return _ladder(basis, "sym(xp)", two=-1j * (basis.trap.hbar / 2.0))


def quadrature_matrix(basis: OrbitalBasis, t: float) -> OneBodyOperator:
    """q(t) = x cos(wt) + (p/m w) sin(wt), the freely rotated position."""
    w = basis.trap.trap_freq
    x = position_matrix(basis).matrix
    p = momentum_matrix(basis).matrix
    q = x * math.cos(w * t) + p * (math.sin(w * t) / (basis.trap.mass * w))
    return OneBodyOperator(q, kind="q(t)")


def quadrature_sq_matrix(basis: OrbitalBasis, t: float) -> OneBodyOperator:
    """Analytic q^2(t) = (hbar/2 m w) (a^2 e^{-2iwt} + a+^2 e^{2iwt} + 2 a+a + 1)."""
    s = _ladder_amp(basis) ** 2
    return _ladder(basis, "q^2(t)", two=s, diag=s,
                   phase=np.exp(-2j * basis.trap.trap_freq * t))


# ---------------------------------------------------------------------------
# occupation basis


def sector_dimension(n: int, m: int) -> int:
    return math.comb(n + m - 1, n)


def occupations(n: int, m: int) -> np.ndarray:
    """All length-m occupation vectors summing to n, (dim, m), row k of rank k."""
    dim = sector_dimension(n, m)
    check_budget("rows", dim, f"the (n={sig(n)}, m={m}) sector")
    check_budget("cells", dim * m, f"the (n={sig(n)}, m={m}) sector")
    # stars and bars: the m - 1 bar positions among n + m - 1 slots
    bars = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(n + m - 1), m - 1)), dtype=np.int64, count=dim * (m - 1))
    return np.diff(bars.reshape(dim, m - 1), axis=1, prepend=-1, append=n + m - 1) - 1


def occupation_energies(occ: np.ndarray, trap: TrapConfig) -> np.ndarray:
    """sum_j n_j hbar w (j + 1/2) for each occupation row."""
    hw = trap.hbar * trap.trap_freq
    energy = np.zeros(len(occ))
    for j in range(occ.shape[1]):
        energy = energy + occ[:, j] * hw * (j + 0.5)
    return energy


@functools.lru_cache(maxsize=16)
def _binomials(n: int, m: int) -> np.ndarray:
    """table[r, l] = C(r + l, l) for r <= n, l < m: the sector-rank weights."""
    dim = sector_dimension(n, m)
    check_budget("rank", dim, f"the ranks of the (n={sig(n)}, m={m}) sector")
    check_budget("rows", n + 1, f"the (n={sig(n)}, m={m}) rank table")
    table = np.ones((n + 1, m), dtype=np.int64)
    for col in range(1, m):
        table[:, col] = np.cumsum(table[:, col - 1])
    table.setflags(write=False)  # every caller shares the cached table
    return table


def _suffix(occ: np.ndarray) -> np.ndarray:
    """r[:, l] = atoms in orbitals l..m-1."""
    return np.cumsum(occ[:, ::-1], axis=1)[:, ::-1]


def _rank(occ: np.ndarray, table: np.ndarray) -> np.ndarray:
    # dim - 1 - rank counts the larger vectors: for each l >= 1, those that
    # agree before orbital l-1 and leave fewer than r_l atoms for orbitals
    # l.., C(r_l - 1 + m-l, m-l) of them
    m = occ.shape[1]
    r = _suffix(occ)[:, 1:]
    later = np.where(r > 0, table[np.maximum(r - 1, 0), m - np.arange(1, m)], 0)
    return table[-1, -1] - 1 - later.sum(axis=1)


def one_body_coo(occ: np.ndarray, matrix: np.ndarray):
    """COO triplets of T_A = sum_ij A[i][j] a+_i a_j on the rows of `occ`.

    occ holds (k, m) int64 occupation rows of one fixed-N sector.  Returns
    (src, tgt, val, i, j), one entry per row and nonzero A[i][j] with orbital
    j occupied: source row, exact sector rank of the target row (one atom
    moved from j to i), <tgt|T_A|src> and the orbital pair.  Entries come row
    by row, then in the matrix's row-major order.
    """
    matrix = np.asarray(matrix, dtype=complex)
    k, m = occ.shape
    table = _binomials(int(occ[0].sum()) if k else 0, m)
    nz_i, nz_j = np.nonzero(matrix)
    src, pair = np.nonzero(occ[:, nz_j] > 0)
    i, j = nz_i[pair], nz_j[pair]
    nj, ni = occ[src, j], occ[src, i]
    val = matrix[i, j] * np.where(i == j, nj, np.sqrt(nj * (ni + 1)))

    # moving one atom from j to i shifts the suffix counts r_l for l between
    # them by one, and the rank by a binomial per shifted orbital; the running
    # sums may wrap in int64, their differences (below dim) come out exact
    r = _suffix(occ)
    cols = m - 1 - np.arange(m)
    down = np.cumsum(np.where(r > 0, table[np.maximum(r - 1, 0), cols], 0), axis=1)
    up = np.cumsum(table[r, cols], axis=1)
    shift = np.where(i < j, down[src, j] - down[src, i], up[src, j] - up[src, i])
    return src, _rank(occ, table)[src] + shift, val, i, j


def one_body_chunks(occ: np.ndarray, matrix: np.ndarray):
    """one_body_coo over row chunks of at most _ENTRY_BUDGET entries each.

    Yields the same triplets in the same order, source rows numbered over
    all of occ; every caller that may meet a large row set goes through here.
    """
    step = max(1, _ENTRY_BUDGET // max(1, np.count_nonzero(matrix)))
    for start in range(0, len(occ), step):
        src, tgt, val, i, j = one_body_coo(occ[start:start + step], matrix)
        yield src + start, tgt, val, i, j


def sector_operator(basis: OrbitalBasis, n: int, matrix: np.ndarray) -> np.ndarray:
    """Dense matrix of sum_ij A[i][j] a+_i a_j on the fixed-N sector."""
    occs = occupations(n, basis.mode_count)
    out = np.zeros((len(occs), len(occs)), dtype=complex)
    for src, tgt, val, _, _ in one_body_chunks(occs, matrix):
        np.add.at(out, (tgt, src), val)
    return out


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True, eq=False)
class FockState:
    """Fixed-N state: a convex mixture of pure members as one batch of rows.

    occ is a (k, m) integer array, amp the k complex amplitudes beside it and
    label the member of each row (default all 0, a pure state); weight holds
    one entry per member (default one member of weight 1).  The constructor
    drops the members of zero weight, numbers the rest in order and sorts the
    rows by key = label * dim + rank, dim the sector dimension and rank the
    exact sector rank.  It rejects a row repeated within a member, a member
    whose norm is not 1, and weights that are negative or do not sum to 1.
    truncation_loss is the weight a cutoff left out of the mixture.
    """

    n: int
    m: int
    occ: np.ndarray
    amp: np.ndarray
    label: np.ndarray | None = None
    weight: np.ndarray = (1.0,)
    truncation_loss: float = 0.0
    key: np.ndarray = field(init=False, repr=False)
    dim: int = field(init=False, repr=False)

    def __post_init__(self):
        if not self.n >= 1:  # the spreads and moments divide by n
            raise ConfigError(f"a state needs n >= 1 atoms, got {sig(self.n)}")
        occ = np.asarray(self.occ, dtype=np.int64)
        amp = np.asarray(self.amp, dtype=complex).reshape(-1)
        label = np.asarray(np.zeros(len(amp), dtype=np.int64) if self.label is None
                           else self.label)
        weight = np.asarray(self.weight, dtype=float).reshape(-1)
        if (occ.ndim != 2 or occ.shape != (len(amp), self.m) or np.any(occ < 0)
                or np.any(occ.sum(axis=1) != self.n)):
            raise ConfigError(f"{occ.shape} occupation rows invalid for (n={self.n}, "
                              f"m={self.m}) with {len(amp)} amplitudes")
        if (label.shape != amp.shape or label.dtype.kind not in "iu" or np.any(label < 0)
                or np.any(label >= len(weight))):
            raise ConfigError(f"member labels must index the {len(weight)} weights")
        if np.any(weight < 0):
            raise ConfigError(f"member weight {float(weight.min())!r} negative")
        if not abs(weight.sum() - 1.0) <= _NORM_TOL:  # NaN fails too
            raise NotNormalized(f"member weights sum to {float(weight.sum())!r}")
        live = weight > 0
        keep = live[label]
        occ, amp, weight = occ[keep], amp[keep], weight[live]
        label = (np.cumsum(live) - 1)[label[keep]]
        table = _binomials(self.n, self.m)
        dim = sector_dimension(self.n, self.m)
        check_budget("rank", len(weight) * dim, f"the keys of {len(weight)} members")
        key, order = np.unique(label * dim + _rank(occ, table), return_index=True)
        if len(key) < len(amp):
            raise ConfigError("occupation rows repeat within a member")
        norm_sq = np.bincount(label, np.abs(amp) ** 2, len(weight))
        bad = norm_sq[~(np.abs(norm_sq - 1.0) <= _NORM_TOL)]  # NaN fails too
        if len(bad):
            raise NotNormalized(f"state norm^2 = {float(bad[0])!r}")
        for name, value in (("occ", occ[order]), ("amp", amp[order]),
                            ("label", label[order]), ("weight", weight), ("key", key)):
            value.setflags(write=False)  # immutable like the state, so its rho1 holds
            object.__setattr__(self, name, value)
        object.__setattr__(self, "dim", dim)

    @functools.cached_property
    def _rho1(self) -> OneBodyDensity:
        m = self.m
        rho = np.zeros(m * m, dtype=complex)
        for src, key, val, i, j in _hops(self, np.ones((m, m))):
            pos = np.minimum(np.searchsorted(self.key, key), len(self.key) - 1)
            hit = self.key[pos] == key
            pos, src = pos[hit], src[hit]
            terms = (self.weight[self.label[src]] * np.conj(self.amp[pos])
                     * val[hit] * self.amp[src])
            rho += _sum_by(j[hit] * m + i[hit], terms, m * m)
        rho.setflags(write=False)
        return OneBodyDensity(matrix=rho.reshape(m, m), n=self.n)


@dataclass(frozen=True)
class OneBodyDensity:
    """rho1[n][m] = <a+_m a_n>; trace N."""

    matrix: np.ndarray
    n: int

    def expectation(self, op: OneBodyOperator) -> float:
        """<T_A> = Tr(A rho1) of a Hermitian one-body operator."""
        if op.matrix.shape != self.matrix.shape:
            raise ConfigError("operator dimension does not match state mode count")
        return float(np.trace(op.matrix @ self.matrix).real)


# ---------------------------------------------------------------------------
# state constructors


def basis_state(occ: tuple[int, ...] | list[int]) -> FockState:
    occ = [int(k) for k in occ]
    return FockState(n=sum(occ), m=len(occ), occ=[occ], amp=[1.0])


def state_from_amplitudes(n: int, m: int, vec: np.ndarray) -> FockState:
    """Dense coefficient vector over occupations(n, m) -> state on its support."""
    occs = occupations(n, m)
    vec = np.asarray(vec, dtype=complex)
    if len(vec) != len(occs):
        raise ConfigError(f"expected {len(occs)} amplitudes, got {len(vec)}")
    live = vec != 0
    return FockState(n=n, m=m, occ=occs[live], amp=vec[live])


def condensate_state(orbital: np.ndarray, n: int) -> FockState:
    """All n atoms in one orbital: (sum_k c_k a+_k)^n |vac> / sqrt(n!).

    Only occupations of the orbital's nonzero modes are enumerated, so the
    ground condensate is a single row at any n.
    """
    c = np.asarray(orbital, dtype=complex)
    if not abs(np.vdot(c, c).real - 1.0) <= _NORM_TOL:
        raise NotNormalized(f"orbital norm^2 = {np.vdot(c, c).real!r}")
    _binomials(n, len(c))  # an unrankable sector is refused before any multinomial
    live = np.flatnonzero(c)
    sub = occupations(n, len(live))
    # multinomial amplitude sqrt(n!/prod k!) prod c^k, the multinomial exact as
    # the product of C(k_1 + .. + k_l, k_l) over the modes, with no n! formed
    comb = np.frompyfunc(math.comb, 2, 1)
    try:
        multinomial = np.prod(comb(np.cumsum(sub, axis=1), sub), axis=1)
        amp = np.sqrt(multinomial.astype(float)).astype(complex)
    except OverflowError:
        raise ConfigError(f"multinomials of {n} atoms over {len(live)} modes overflow") from None
    for k, ck in zip(sub.T, c[live]):
        amp = np.where(k > 0, amp * ck ** k, amp)
    keep = amp != 0
    occ = np.zeros((int(keep.sum()), len(c)), dtype=np.int64)
    occ[:, live] = sub[keep]
    return FockState(n=n, m=len(c), occ=occ, amp=amp[keep])


def displaced_orbital(basis: OrbitalBasis, d: float) -> np.ndarray:
    """Ground orbital displaced by d, i.e. coherent amplitudes, renormalized.

    Truncation leak is the caller's concern; keep |d| well under the basis
    reach sqrt(2 M) * ladder scale.
    """
    if not math.isfinite(d):
        raise ConfigError(f"displacement must be finite, got {d!r}")
    t = basis.trap
    alpha = d * math.sqrt(t.mass * t.trap_freq / (2.0 * t.hbar))
    c = np.zeros(basis.mode_count, dtype=complex)
    c[0] = 1.0
    for k in range(1, basis.mode_count):
        c[k] = c[k - 1] * alpha / math.sqrt(k)
    return c / math.sqrt(np.vdot(c, c).real)


def squeezed_orbital(basis: OrbitalBasis, r: float) -> np.ndarray:
    """Squeezed ground orbital: x variance e^{-2r}, p variance e^{+2r} scaled."""
    if not math.isfinite(r):
        raise ConfigError(f"squeeze must be finite, got {r!r}")
    c = np.zeros(basis.mode_count, dtype=complex)
    c[0] = 1.0
    th = math.tanh(r)
    for k in range(2, basis.mode_count, 2):
        # c_{2j} = (-tanh r)^j sqrt((2j)!)/(2^j j!) up to overall normalization
        c[k] = c[k - 2] * (-th) * math.sqrt((k - 1) * k) / k
    return c / math.sqrt(np.vdot(c, c).real)


def _ladder_partition(n: int, beta_hw: float) -> float:
    """Z e^{beta E0} of n ideal bosons on the untruncated oscillator ladder,
    prod_{k=1..n} 1 / (1 - e^{-k beta hw}): the configurations of excitation
    E are the partitions of E into at most n parts.  inf past the float range."""
    # expm1: 1 - exp(-x) rounds to 0 once x is below 2^-53
    with np.errstate(over="ignore", divide="ignore"):
        return float(np.prod(1.0 / -np.expm1(-np.arange(1, n + 1) * beta_hw)))


def thermal_ensemble(basis: OrbitalBasis, temperature: float, n: int,
                     energy_cutoff: float) -> FockState:
    """Canonical fixed-N ensemble: one member per occupation configuration.

    Weights ~ exp(-E/T) with E = sum_k n_k hbar w (k + 1/2), truncated to
    configurations inside the basis with E <= energy_cutoff.  The retained
    weight is measured against the exact partition function of the
    untruncated oscillator ladder (_ladder_partition, in closed form), so the
    reported truncation_loss bounds everything the cutoff discards.
    """
    if not (math.isfinite(temperature) and temperature >= 0) or math.isnan(energy_cutoff):
        raise ConfigError(f"need a finite temperature >= 0 and a cutoff, got "
                          f"{temperature!r} and {energy_cutoff!r}")
    t, m = basis.trap, basis.mode_count
    hw = t.hbar * t.trap_freq
    e0 = n * hw / 2.0
    if e0 > energy_cutoff:
        raise CutoffTooTight(f"cutoff {energy_cutoff!r} below ground energy {e0!r}")
    if temperature == 0:
        return basis_state([n] + [0] * (m - 1))

    _binomials(n, m)  # an unrankable sector is refused before any row is enumerated
    beta = 1.0 / temperature
    # no atom inside the cutoff sits above orbital (cutoff - e0) / hw, so the
    # rows are enumerated over the orbitals up to one past it (a margin for
    # the rounding of the energies); zero-padding the kept rows keeps their order
    reach = (energy_cutoff - e0) / hw
    top = m if not reach < m - 2 else int(reach) + 2
    sub = occupations(n, top)
    energy = occupation_energies(sub, t)
    inside = energy <= energy_cutoff
    rows = sub[inside]
    check_budget("cells", len(rows) * m, "the configurations inside the cutoff")
    occs = np.zeros((len(rows), m), dtype=np.int64)
    occs[:, :top] = rows
    kept = [math.exp(-beta * (e - e0)) for e in energy[inside]]

    tot = sum(kept)
    retained = tot / _ladder_partition(n, beta * hw)
    if retained < 0.999:
        raise CutoffTooTight(f"retained weight {retained:.6f} < 0.999")
    return FockState(n=n, m=m, occ=occs, amp=np.ones(len(kept)),
                     label=np.arange(len(kept)), weight=np.array(kept) / tot,
                     truncation_loss=1.0 - retained)


# ---------------------------------------------------------------------------
# expectations: every one goes through one_body_coo on a state's rows


def _sum_by(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    out = np.empty(size, dtype=complex)
    out.real = np.bincount(index, values.real, size)
    out.imag = np.bincount(index, values.imag, size)
    return out


def _hops(state: FockState, matrix: np.ndarray):
    """one_body_chunks on a state, with targets keyed like the state's rows."""
    for src, tgt, val, i, j in one_body_chunks(state.occ, matrix):
        yield src, state.label[src] * state.dim + tgt, val, i, j


def _applied(state: FockState, mats: list[np.ndarray]) -> tuple[np.ndarray, list]:
    """T_A on each member for operators of one nonzero pattern, in one walk:
    the ascending target keys they share and each operator's amplitudes."""
    key, amps = state.key[:0], [state.amp[:0]] * len(mats)
    for src, tgt, hop, i, j in _hops(state, mats[0] != 0):
        # each chunk's targets, merged into those of the earlier chunks; a
        # unit pattern's hop is the ladder factor one_body_coo scales A[i][j] by
        key, inv = np.unique(np.concatenate([key, tgt]), return_inverse=True)
        check_budget("rows", len(key), "an applied vector")
        amps = [_sum_by(inv, np.concatenate([amp, matrix[i, j] * hop * state.amp[src]]),
                        len(key)) for amp, matrix in zip(amps, mats)]
    return key, amps


def leak_headroom(state: FockState) -> float:
    """_LEAK_TOL minus the worst member's top-orbital weight; a product of two
    operators is refused where it is negative."""
    top = np.bincount(state.label, np.abs(state.amp) ** 2 * (state.occ[:, -1] > 0),
                      len(state.weight))
    return _LEAK_TOL - float(top.max())


def few_body_expectation(state: FockState, ops: list[OneBodyOperator]) -> np.ndarray:
    """G[a][b] = <T_a T_b> for Hermitian one-body operators A_1..A_k.

    Each T_a = sum_ij A_a[i][j] a+_i a_j is applied once, and G is the Gram
    matrix sum_w w <T_a psi_w|T_b psi_w> over the members: Hermitian and PSD
    by construction.  Operators of one nonzero pattern share one walk over
    the rows, each rescaling its hops.  Means <T_A> are Tr(A rho1), from
    one_body_density.

    Leak rule: T_b psi loses the flow out of the basis, which leaves only from
    the top orbital.  A mean never meets it, an overlap of two applied vectors
    does, so each member's top-orbital weight must be at most _LEAK_TOL.
    """
    if not ops:
        raise ConfigError("ops list must not be empty")
    for op in ops:
        if op.matrix.shape[0] != state.m:
            raise ConfigError("operator dimension does not match state mode count")
    headroom = leak_headroom(state)
    if headroom < 0:
        raise TruncationLeak(f"top-orbital weight {_LEAK_TOL - headroom:.3e} "
                             "under an operator product")
    groups = {}
    for col, op in enumerate(ops):
        groups.setdefault((op.matrix != 0).tobytes(), []).append(col)
    applied = [(group, *_applied(state, [ops[col].matrix for col in group]))
               for group in groups.values()]
    key = np.unique(np.concatenate([k for _, k, _ in applied]))
    check_budget("rows", len(key) * len(ops), "the applied vectors")
    cols = np.zeros((len(key), len(ops)), dtype=complex)
    for group, k, amps in applied:
        rows = np.searchsorted(key, k)
        for col, amp in zip(group, amps):
            cols[rows, col] = amp
    gram = cols.conj().T @ (state.weight[key // state.dim][:, None] * cols)
    return 0.5 * (gram + gram.conj().T)


def one_body_density(state: FockState) -> OneBodyDensity:
    """rho1[n][m] = <a+_m a_n>, weight-averaged over the members; formed once
    per state and shared, its matrix read-only."""
    return state._rho1


# ---------------------------------------------------------------------------
# real-space densities


def hermite_functions(grid: np.ndarray, m: int, basis: OrbitalBasis) -> np.ndarray:
    """psi_n(x) for n < m on the grid, shape (len(grid), m).

    Upward recurrence on normalized functions (no factorials), stable to
    n = 60: psi_0 = pi^(-1/4) e^(-u^2/2), psi_{n+1} = sqrt(2/(n+1)) u psi_n
    - sqrt(n/(n+1)) psi_{n-1}, with u = x / length_scale.
    """
    ell = basis.length_scale
    u = np.asarray(grid, dtype=float) / ell
    out = np.zeros((len(u), m))
    out[:, 0] = math.pi ** -0.25 * np.exp(-0.5 * u * u)
    if m > 1:
        out[:, 1] = math.sqrt(2.0) * u * out[:, 0]
    for k in range(2, m):
        out[:, k] = math.sqrt(2.0 / k) * u * out[:, k - 1] - math.sqrt((k - 1) / k) * out[:, k - 2]
    return out / math.sqrt(ell)


def _check_grid(grid: np.ndarray, m: int, basis: OrbitalBasis):
    """The grid as floats, refused unless strictly increasing and the basis of m orbitals."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise ConfigError("grid must be 1-d and strictly increasing")
    if basis.mode_count != m:
        raise ConfigError(f"a basis of {basis.mode_count} orbitals for a state of {m}")
    return grid


def density_profile(rho1: OneBodyDensity, grid: np.ndarray, basis: OrbitalBasis) -> np.ndarray:
    """P(x) = (1/N) sum_nm rho1[n][m] psi_n(x) psi_m(x); unit trapezoid norm."""
    grid = _check_grid(grid, len(rho1.matrix), basis)
    psi = hermite_functions(grid, basis.mode_count, basis)
    p = np.einsum("gn,nm,gm->g", psi, rho1.matrix, psi).real / rho1.n
    norm = np.trapezoid(p, grid)
    if abs(norm - 1.0) > 1e-4:
        raise GridTooCoarse(f"density norm {norm!r} off by more than 1e-4")
    return p


def pair_distribution(state: FockState, grid: np.ndarray, basis: OrbitalBasis) -> np.ndarray:
    """P(x, x') = <n(x) n(x')>/N^2 with n(x) the density kernel at x.

    The grid kernel K(x)[n][m] = psi_n(x) psi_m(x) is a real symmetric
    one-body operator, so P is the Gram matrix of the K(x) on the grid
    over N^2, from few_body_expectation.
    """
    grid = _check_grid(grid, state.m, basis)
    # the kernels' entries, before any is built
    check_budget("rows", len(grid) * state.m ** 2, "the pair-distribution kernels")
    psi = hermite_functions(grid, state.m, basis)
    kernels = [OneBodyOperator(np.outer(row, row), kind="K(x)") for row in psi]
    return few_body_expectation(state, kernels).real / state.n ** 2

