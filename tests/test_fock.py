import math

import numpy as np
import pytest

import helpers
from cloudfeedback import criteria, fock, moments
from cloudfeedback.errors import (
    BUDGETS,
    ConfigError,
    CutoffTooTight,
    GridTooCoarse,
    NotNormalized,
    TruncationLeak,
)
from cloudfeedback.scales import TrapConfig

TRAP1 = TrapConfig(atom_count=1)
TRAP2 = TrapConfig(atom_count=2)


def basis(m, trap=TRAP1):
    return fock.OrbitalBasis(mode_count=m, trap=trap)


def terms(state):
    """occupation tuple -> amplitude over the state's support."""
    return dict(zip(map(tuple, state.occ.tolist()), state.amp))


def members(state):
    """(weight, pure FockState) for each member of a state."""
    return [(w, fock.FockState(n=state.n, m=state.m, occ=state.occ[state.label == k],
                               amp=state.amp[state.label == k]))
            for k, w in enumerate(state.weight)]


def member_weights(state):
    """occupation tuple -> member weight, for states of one row per member."""
    return {tuple(occ): state.weight[k] for occ, k in zip(state.occ.tolist(), state.label)}


# ---------------------------------------------------------------------------
# matrices


def test_ladder_entries_unit_trap():
    b = basis(4)
    x = fock.position_matrix(b).matrix
    p = fock.momentum_matrix(b).matrix
    assert x[0, 1] == pytest.approx(1 / math.sqrt(2))
    assert x[1, 2] == pytest.approx(1.0)
    assert p[0, 1] == pytest.approx(-1j / math.sqrt(2))
    assert p[1, 0] == pytest.approx(1j / math.sqrt(2))
    assert np.allclose(x, x.conj().T)
    assert np.allclose(p, p.conj().T)


def test_ladder_scaling_with_trap_parameters():
    trap = TrapConfig(atom_count=1, mass=3.0, trap_freq=0.7, hbar=2.0)
    b = basis(3, trap)
    x = fock.position_matrix(b).matrix
    p = fock.momentum_matrix(b).matrix
    assert x[0, 1] == pytest.approx(math.sqrt(2.0 / (2 * 3.0 * 0.7)))
    assert abs(p[0, 1]) == pytest.approx(math.sqrt(2.0 * 3.0 * 0.7 / 2))


def test_commutator_on_interior_block():
    b = basis(8)
    x = fock.position_matrix(b).matrix
    p = fock.momentum_matrix(b).matrix
    c = x @ p - p @ x
    interior = c[:7, :7] - 1j * np.eye(7)
    assert np.max(np.abs(interior)) < 1e-12


def test_second_moment_matrices_exact_except_top_corner():
    b = basis(6)
    x = fock.position_matrix(b).matrix
    p = fock.momentum_matrix(b).matrix
    for analytic, squared in [
        (fock.position_sq_matrix(b).matrix, x @ x),
        (fock.momentum_sq_matrix(b).matrix, p @ p),
    ]:
        diff = analytic - squared
        corner = diff[5, 5]
        diff[5, 5] = 0.0
        assert np.max(np.abs(diff)) < 1e-14
        assert abs(corner) > 0.1  # the truncation defect lives only there
    x2 = fock.position_sq_matrix(b).matrix
    assert (x2 - x @ x)[5, 5] == pytest.approx(6 * 0.5)  # (hbar/2mw) * M
    # the two lost flows of sym(xp) cancel, so its product form is exact
    sym = fock.sym_xp_matrix(b).matrix
    assert np.max(np.abs(sym - (x @ p + p @ x) / 2)) < 1e-14


def test_quadrature_rotates_between_position_and_momentum():
    b = basis(5)
    x = fock.position_matrix(b).matrix
    p = fock.momentum_matrix(b).matrix
    assert np.allclose(fock.quadrature_matrix(b, 0.0).matrix, x)
    assert np.allclose(fock.quadrature_matrix(b, math.pi / 2).matrix, p, atol=1e-15)
    rng = np.random.default_rng(7)
    for t in rng.uniform(0, 20, size=8):
        q = fock.quadrature_matrix(b, t).matrix
        assert abs(q[0, 1]) == pytest.approx(1 / math.sqrt(2))


def test_quadrature_sq_diag_is_time_independent():
    b = basis(6)
    for t in (0.0, 0.3, 1.7):
        q2 = fock.quadrature_sq_matrix(b, t).matrix
        assert np.allclose(np.diag(q2).real, 0.5 * (2 * np.arange(6) + 1))
        q = fock.quadrature_matrix(b, t).matrix
        diff = q2 - q @ q
        diff[5, 5] = 0.0
        assert np.max(np.abs(diff)) < 1e-14
    q2 = fock.quadrature_sq_matrix(b, 0.4).matrix
    assert q2[0, 2] == pytest.approx(math.sqrt(2) * 0.5 * np.exp(-2j * 0.4))


def _ladder_reference(b, t):
    """x, p, x^2, p^2, sym(xp) and q^2(t) entry by entry, in scalar arithmetic."""
    m, tr = b.mode_count, b.trap
    c = math.sqrt(tr.hbar / (2.0 * tr.mass * tr.trap_freq))
    cp = math.sqrt(tr.hbar * tr.mass * tr.trap_freq / 2.0)
    sx, sp, sh = c**2, tr.hbar * tr.mass * tr.trap_freq / 2.0, tr.hbar / 2.0
    phase = np.exp(-2j * tr.trap_freq * t)
    x, p, x2, p2, sxp, q2 = (np.zeros((m, m), dtype=complex) for _ in range(6))
    for n in range(m):
        x2[n, n] = q2[n, n] = sx * (2 * n + 1)
        p2[n, n] = sp * (2 * n + 1)
    for n in range(m - 1):
        r = math.sqrt(n + 1)
        x[n, n + 1] = x[n + 1, n] = c * r
        p[n, n + 1], p[n + 1, n] = -1j * cp * r, 1j * cp * r
    for n in range(m - 2):
        r = math.sqrt((n + 1) * (n + 2))
        x2[n, n + 2] = x2[n + 2, n] = sx * r
        p2[n, n + 2] = p2[n + 2, n] = -sp * r
        sxp[n, n + 2], sxp[n + 2, n] = -1j * sh * r, 1j * sh * r
        q2[n, n + 2], q2[n + 2, n] = sx * r * phase, sx * r * np.conj(phase)
    return x, p, x2, p2, sxp, q2


def test_ladder_operators_equal_their_scalar_construction():
    # the one ladder builder keeps every bit of each operator, signed zeros included
    for trap in (TRAP1, TrapConfig(atom_count=2, mass=2.3, trap_freq=0.7, hbar=1.3)):
        for m in (2, 3, 8):
            b = basis(m, trap)
            for t in (0.0, 0.3, 1.7):
                got = (fock.position_matrix(b), fock.momentum_matrix(b),
                       fock.position_sq_matrix(b), fock.momentum_sq_matrix(b),
                       fock.sym_xp_matrix(b), fock.quadrature_sq_matrix(b, t))
                for op, want in zip(got, _ladder_reference(b, t)):
                    assert op.matrix.tobytes() == want.tobytes(), (op.kind, m, t)


# ---------------------------------------------------------------------------
# occupation basis and states


def test_occupations_lexicographic():
    occs = fock.occupations(2, 3).tolist()
    assert occs == [[0, 0, 2], [0, 1, 1], [0, 2, 0], [1, 0, 1], [1, 1, 0], [2, 0, 0]]
    assert fock.sector_dimension(2, 3) == len(occs) == 6
    assert fock.sector_dimension(4, 8) == math.comb(11, 4)


@pytest.mark.parametrize("n, m", [(10**20, 6), (10**400, 6), (10**300, 1000)])
@pytest.mark.parametrize("build", [fock.occupations, fock._binomials])
def test_sector_refusals_stay_short_at_any_n(build, n, m):
    # the counts pass the float range and str()'s 4300-digit limit
    with pytest.raises(ConfigError, match="sector") as info:
        build(n, m)
    assert len(str(info.value)) < 100


def test_condensate_amplitudes_two_atoms():
    c = np.array([1 / math.sqrt(2), 1 / math.sqrt(2), 0.0])
    amp = terms(fock.condensate_state(c, 2))
    assert amp[(2, 0, 0)] == pytest.approx(0.5)
    assert amp[(1, 1, 0)] == pytest.approx(1 / math.sqrt(2))
    assert amp[(0, 2, 0)] == pytest.approx(0.5)
    assert (0, 0, 2) not in amp


def test_condensate_density_is_rank_one():
    rng = np.random.default_rng(11)
    for n in (1, 2, 4):
        c = helpers.random_fock_amplitudes(rng, 4)
        rho = fock.one_body_density(fock.condensate_state(c, n)).matrix
        assert np.allclose(rho, n * np.outer(c, c.conj()))


def test_one_body_density_basics():
    st = fock.basis_state((1, 1))
    rho = fock.one_body_density(st)
    assert np.allclose(rho.matrix, np.eye(2))
    assert rho.n == 2


def test_one_body_density_properties_random_states():
    rng = np.random.default_rng(23)
    for n, m in [(2, 4), (3, 3)]:
        dim = fock.sector_dimension(n, m)
        for _ in range(25):
            st = fock.state_from_amplitudes(n, m, helpers.random_fock_amplitudes(rng, dim))
            rho = fock.one_body_density(st).matrix
            assert np.trace(rho).real == pytest.approx(n, rel=1e-12)
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-12
            assert np.max(np.abs(rho - helpers.oracle_one_body_density(st))) < 1e-12


def test_ensemble_density_is_convex_average():
    a = fock.basis_state((2, 0, 0))
    b = fock.basis_state((0, 1, 1))
    ens = fock.FockState(n=2, m=3, occ=[(2, 0, 0), (0, 1, 1)], amp=[1.0, 1.0],
                         label=[0, 1], weight=[0.25, 0.75])
    rho = fock.one_body_density(ens).matrix
    want = 0.25 * fock.one_body_density(a).matrix + 0.75 * fock.one_body_density(b).matrix
    assert np.allclose(rho, want)


# ---------------------------------------------------------------------------
# few-body expectations


def pair_reference(state, mats):
    """<T_a T_b> for every pair, from the first-quantized product space."""
    return np.array([[helpers.oracle_expectation(state, [a.matrix, b.matrix]) for b in mats]
                     for a in mats])


def test_collective_second_moment_frozen_values():
    b = basis(3, TRAP2)
    x = [fock.position_matrix(b)]
    assert fock.few_body_expectation(fock.basis_state((1, 1, 0)), x)[0, 0].real == \
        pytest.approx(3.0)
    noon_minus = fock.FockState(
        n=2, m=3, occ=[(2, 0, 0), (0, 2, 0)], amp=[1 / math.sqrt(2), -1 / math.sqrt(2)]
    )
    noon_plus = fock.FockState(
        n=2, m=3, occ=[(2, 0, 0), (0, 2, 0)], amp=[1 / math.sqrt(2), 1 / math.sqrt(2)]
    )
    assert fock.few_body_expectation(noon_minus, x)[0, 0].real == pytest.approx(1.0)
    assert fock.few_body_expectation(noon_plus, x)[0, 0].real == pytest.approx(3.0)


def test_few_body_matches_first_quantized_products(monkeypatch):
    # random states touch the top orbital; the truncated algebra is compared as is
    monkeypatch.setattr(fock, "_LEAK_TOL", 2.0)
    rng = np.random.default_rng(42)
    b = basis(4, TRAP2)
    mats = [fock.position_matrix(b), fock.momentum_matrix(b), fock.sym_xp_matrix(b)]
    dim = fock.sector_dimension(2, 4)
    for _ in range(6):
        st = fock.state_from_amplitudes(2, 4, helpers.random_fock_amplitudes(rng, dim))
        rho1 = fock.one_body_density(st)
        for op in mats:
            want = helpers.oracle_expectation(st, [op.matrix])
            assert rho1.expectation(op) == pytest.approx(want.real, abs=1e-12)
        got = fock.few_body_expectation(st, mats)
        assert np.max(np.abs(got - pair_reference(st, mats))) < 1e-12


def test_few_body_three_atoms(monkeypatch):
    monkeypatch.setattr(fock, "_LEAK_TOL", 2.0)
    rng = np.random.default_rng(5)
    trap3 = TrapConfig(atom_count=3)
    b = basis(3, trap3)
    dim = fock.sector_dimension(3, 3)
    st = fock.state_from_amplitudes(3, 3, helpers.random_fock_amplitudes(rng, dim))
    mats = [fock.position_matrix(b), fock.momentum_sq_matrix(b)]
    got = fock.few_body_expectation(st, mats)
    assert np.max(np.abs(got - pair_reference(st, mats))) < 1e-12

    # four atoms: every mean and every product of two operators
    b4 = basis(3, TrapConfig(atom_count=4))
    st4 = fock.state_from_amplitudes(
        4, 3, helpers.random_fock_amplitudes(rng, fock.sector_dimension(4, 3)))
    mats4 = [fock.position_matrix(b4), fock.momentum_matrix(b4), fock.sym_xp_matrix(b4)]
    rho1 = fock.one_body_density(st4)
    for op in mats4:
        want = helpers.oracle_expectation(st4, [op.matrix])
        assert rho1.expectation(op) == pytest.approx(want.real, abs=1e-12)
    got = fock.few_body_expectation(st4, mats4)
    assert np.max(np.abs(got - pair_reference(st4, mats4))) < 1e-12
    assert np.max(np.abs(rho1.matrix - helpers.oracle_one_body_density(st4))) < 1e-12

    # a thermal ensemble is evaluated as one batch: the weighted member sum
    monkeypatch.undo()
    b6 = basis(6, trap3)
    ens = fock.thermal_ensemble(b6, temperature=0.45, n=3, energy_cutoff=6.4)
    assert len(ens.weight) > 1
    mats6 = [fock.position_matrix(b6), fock.momentum_matrix(b6)]
    want = sum(w * pair_reference(member, mats6) for w, member in members(ens))
    assert np.max(np.abs(fock.few_body_expectation(ens, mats6) - want)) < 1e-12
    want_rho = sum(w * helpers.oracle_one_body_density(member) for w, member in members(ens))
    assert np.max(np.abs(fock.one_body_density(ens).matrix - want_rho)) < 1e-12


def test_chunked_application_matches_one_chunk(monkeypatch):
    # a tiny entry budget forces many row chunks; each result must agree with
    # the one-chunk evaluation
    monkeypatch.setattr(fock, "_LEAK_TOL", 2.0)
    rng = np.random.default_rng(11)
    b = basis(4, TrapConfig(atom_count=3))
    amps = helpers.random_fock_amplitudes(rng, fock.sector_dimension(3, 4))
    mats = [fock.position_matrix(b), fock.momentum_matrix(b), fock.sym_xp_matrix(b)]
    mats5 = [fock.position_matrix(basis(5)), fock.momentum_sq_matrix(basis(5))]

    def evaluate():
        # fresh states, so each rho1 is formed under the budget of the call
        st = fock.state_from_amplitudes(3, 4, amps)
        ens = fock.thermal_ensemble(basis(5, TrapConfig(atom_count=3)), temperature=0.45,
                                    n=3, energy_cutoff=5.6)
        return (fock.few_body_expectation(st, mats),
                fock.one_body_density(st).matrix,
                fock.few_body_expectation(ens, mats5),
                fock.one_body_density(ens).matrix,
                fock.sector_operator(b, 3, mats[0].matrix))

    whole = evaluate()
    monkeypatch.setattr(fock, "_ENTRY_BUDGET", 7)
    occs = fock.occupations(3, 4)
    assert len(list(fock.one_body_chunks(occs, np.ones((4, 4))))) == len(occs)
    for got, want in zip(evaluate(), whole):
        assert np.max(np.abs(np.asarray(got) - want)) < 1e-12


def test_leak_guard_and_single_op_exception():
    b2 = basis(2, TRAP2)
    st = fock.basis_state((1, 1))
    x = fock.position_matrix(b2)
    with pytest.raises(TruncationLeak):
        fock.few_body_expectation(st, [x])
    # a single application flows straight out of the basis and is annihilated
    # by the bra, so the mean stays exact even from the top orbital
    got = fock.one_body_density(st).expectation(x)
    assert got == pytest.approx(helpers.oracle_expectation(st, [x.matrix]).real, abs=1e-12)

    plus = fock.FockState(n=1, m=2, occ=[(1, 0), (0, 1)],
                          amp=[1 / math.sqrt(2), 1 / math.sqrt(2)])
    b1 = basis(2)
    assert fock.one_body_density(plus).expectation(fock.position_matrix(b1)) == \
        pytest.approx(1 / math.sqrt(2))


def test_leak_headroom_makes_noon_exact():
    # one x application reaches one orbital up; M=3 is exactly enough for
    # states supported on the first two orbitals
    b3 = basis(3, TRAP2)
    noon = fock.FockState(n=2, m=3, occ=[(2, 0, 0), (0, 2, 0)],
                          amp=[1 / math.sqrt(2), -1 / math.sqrt(2)])
    val = fock.few_body_expectation(noon, [fock.position_matrix(b3)])
    assert val[0, 0].real == pytest.approx(1.0)


def test_each_operator_is_applied_once(monkeypatch):
    # one walk over the rows per nonzero pattern, and rho1 once per state: the
    # three quadratures share one walk, x and p another, and init_moments
    # reads the rho1 that quadrature_harmonics formed
    calls = []
    chunks = fock.one_body_chunks

    def counted(occ, matrix):
        calls.append(1)
        return chunks(occ, matrix)

    monkeypatch.setattr(fock, "one_body_chunks", counted)
    b = basis(6, TrapConfig(atom_count=3))
    st = fock.condensate_state(fock.displaced_orbital(b, 0.1), 3)
    criteria.quadrature_harmonics(st, b)
    moments.init_moments(st, b)
    assert len(calls) == 3


def test_grouped_walk_over_many_chunks_keeps_each_operators_bits(monkeypatch):
    # a tiny entry budget splits the rows into many chunks; operators sharing
    # a walk get the bits of walking alone, and the Gram matches the dense one
    monkeypatch.setattr(fock, "_LEAK_TOL", 2.0)
    b = basis(5, TrapConfig(atom_count=3))
    orbital = fock.displaced_orbital(b, 0.4)
    whole = fock.one_body_density(fock.condensate_state(orbital, 3)).matrix
    monkeypatch.setattr(fock, "_ENTRY_BUDGET", 40)
    st = fock.condensate_state(orbital, 3)
    quads = [fock.quadrature_matrix(b, t) for t in (0.0, 0.3, math.pi / 2)]
    ops = [fock.position_matrix(b), *quads, fock.momentum_matrix(b),
           fock.position_sq_matrix(b), fock.quadrature_sq_matrix(b, 0.3)]
    assert len(list(fock.one_body_chunks(st.occ, ops[0].matrix))) >= 3
    for group in (ops[:5], ops[5:]):
        key, amps = fock._applied(st, [op.matrix for op in group])
        for op, amp in zip(group, amps):
            alone_key, alone_amp = helpers.single_walk(st, op.matrix)
            assert np.array_equal(key, alone_key)
            assert amp.tobytes() == alone_amp.tobytes()
    vec = np.zeros(fock.sector_dimension(3, 5), dtype=complex)
    vec[st.key] = st.amp
    applied = [fock.sector_operator(b, 3, op.matrix) @ vec for op in ops]
    want = np.array([[np.vdot(a, c) for c in applied] for a in applied])
    assert np.max(np.abs(fock.few_body_expectation(st, ops) - want)) < 1e-12
    # the chunked rho1 of a fresh state matches the one-chunk one
    assert np.max(np.abs(fock.one_body_density(st).matrix - whole)) < 1e-12


def test_a_state_and_its_one_body_density_are_read_only():
    st = fock.condensate_state(fock.displaced_orbital(basis(4), 0.2), 2)
    rho1 = fock.one_body_density(st)
    assert fock.one_body_density(st) is rho1
    for array in (st.occ, st.amp, st.label, st.weight, st.key, rho1.matrix):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]


# ---------------------------------------------------------------------------
# state preparation


def test_displaced_orbital_moments():
    b = basis(12)
    st = fock.condensate_state(fock.displaced_orbital(b, 0.3), 1)
    x = fock.position_matrix(b)
    x2 = fock.position_sq_matrix(b)
    rho1 = fock.one_body_density(st)
    mean = rho1.expectation(x)
    var = rho1.expectation(x2) - mean**2
    assert mean == pytest.approx(0.3, abs=1e-10)
    assert var == pytest.approx(0.5, abs=1e-10)


def test_squeezed_orbital_variances():
    r = 0.25
    b = basis(14)
    st = fock.condensate_state(fock.squeezed_orbital(b, r), 1)
    rho1 = fock.one_body_density(st)
    vx = rho1.expectation(fock.position_sq_matrix(b))
    vp = rho1.expectation(fock.momentum_sq_matrix(b))
    assert vx == pytest.approx(0.5 * math.exp(-2 * r), abs=1e-6)
    assert vp == pytest.approx(0.5 * math.exp(2 * r), abs=1e-6)


def test_thermal_weights_and_loss():
    b = basis(10)
    ens = fock.thermal_ensemble(b, temperature=1.0, n=1, energy_cutoff=9.5)
    w = member_weights(ens)
    occ0 = tuple([1] + [0] * 9)
    occ1 = tuple([0, 1] + [0] * 8)
    assert w[occ1] / w[occ0] == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert ens.truncation_loss == pytest.approx(math.exp(-10.0), rel=1e-6)
    assert sum(ens.weight) == pytest.approx(1.0)


def test_thermal_cutoff_too_tight():
    b = basis(4)
    with pytest.raises(CutoffTooTight):
        fock.thermal_ensemble(b, temperature=1.0, n=1, energy_cutoff=3.5)


def test_thermal_refuses_an_unrankable_sector_before_enumerating_a_row(monkeypatch):
    # the rank budget depends on N and M alone; a million rows under the
    # cutoff used to be enumerated and weighted before it was read
    def never(*args):
        raise AssertionError("a row was enumerated")

    monkeypatch.setattr(fock, "occupations", never)
    n = 999_999
    with pytest.raises(ConfigError, match=r"the ranks of the \(n=999999, m=6\) sector"):
        fock.thermal_ensemble(basis(6, TrapConfig(atom_count=n)), temperature=0.1, n=n,
                              energy_cutoff=500_000.0)


def test_thermal_zero_temperature():
    b = basis(5, TRAP2)
    ens = fock.thermal_ensemble(b, temperature=0.0, n=2, energy_cutoff=1.0)
    assert ens.weight.tolist() == [1.0]
    assert terms(ens) == {(2, 0, 0, 0, 0): 1.0 + 0.0j}
    assert ens.truncation_loss == 0.0


def test_thermal_partition_recursion_matches_enumeration():
    # brute-force canonical sum over a deep basis against the recursion the
    # implementation uses for the retained-weight denominator
    beta_hw = 1.0
    brute = sum(
        math.exp(-beta_hw * sum(k * j for j, k in enumerate(occ)))
        for occ in fock.occupations(2, 36)
    )
    z1 = 1 / (1 - math.exp(-beta_hw))
    z2 = 1 / (1 - math.exp(-2 * beta_hw))
    assert brute == pytest.approx(0.5 * (z1 * z1 + z2), rel=1e-12)


def _recursion_partition(n, beta_hw):
    """Z e^{beta E0} of n ideal bosons by the canonical N-boson recursion."""
    z = [1.0]
    for j in range(1, n + 1):
        acc = 0.0
        for k in range(1, j + 1):
            acc += z[j - k] / -math.expm1(-k * beta_hw)
        z.append(acc / j)
    return z[n]


def test_ladder_partition_closed_form_matches_the_recursion():
    for beta_hw in (0.05, 0.3, 1.0, 2.5, 10.0, 40.0):
        for n in range(1, 41):
            assert fock._ladder_partition(n, beta_hw) == pytest.approx(
                _recursion_partition(n, beta_hw), rel=1e-12), (n, beta_hw)
    # past the float range both are inf, which the 0.999 gate refuses
    assert fock._ladder_partition(40, 1e-10) == _recursion_partition(40, 1e-10) == math.inf


def test_thermal_two_atom_weight_ratio():
    b = basis(12, TRAP2)
    ens = fock.thermal_ensemble(b, temperature=0.5, n=2, energy_cutoff=10.0)
    w = member_weights(ens)
    ground = tuple([2] + [0] * 11)
    first = tuple([1, 1] + [0] * 10)
    assert w[first] / w[ground] == pytest.approx(math.exp(-2.0), rel=1e-12)


# ---------------------------------------------------------------------------
# real-space densities


def test_density_profile_point_values():
    b1 = basis(3)
    grid = np.linspace(-8, 8, 321)
    rho = fock.one_body_density(fock.basis_state((1, 0, 0)))
    p = fock.density_profile(rho, grid, b1)
    mid = len(grid) // 2
    assert grid[mid] == 0.0
    assert p[mid] == pytest.approx(math.pi**-0.5, rel=1e-10)

    b2 = basis(3, TRAP2)
    rho2 = fock.one_body_density(fock.basis_state((1, 1, 0)))
    p2 = fock.density_profile(rho2, grid, b2)
    assert p2[mid] == pytest.approx(0.5 * math.pi**-0.5, rel=1e-10)
    assert np.trapezoid(p2, grid) == pytest.approx(1.0, abs=1e-9)


def test_density_profile_grid_too_coarse():
    b = basis(3)
    rho = fock.one_body_density(fock.basis_state((1, 0, 0)))
    with pytest.raises(GridTooCoarse):
        fock.density_profile(rho, np.linspace(-1, 1, 5), b)
    with pytest.raises(ConfigError):
        fock.density_profile(rho, np.array([1.0, 0.5]), b)


def test_density_profile_refuses_a_basis_of_another_orbital_count():
    rho = fock.one_body_density(fock.basis_state((1, 0, 0)))
    for m in (2, 4):
        with pytest.raises(ConfigError, match=f"a basis of {m} orbitals for a state of 3"):
            fock.density_profile(rho, np.linspace(-8, 8, 321), basis(m))


def test_hermite_functions_high_order_orthonormal():
    b = basis(61)
    grid = np.linspace(-13, 13, 2601)
    psi = fock.hermite_functions(grid, 61, b)
    gram = np.trapezoid(psi[:, None, :] * psi[:, :, None], grid, axis=0)
    assert np.max(np.abs(gram - np.eye(61))) < 1e-8


def test_pair_distribution_condensate_closed_form():
    n = 2
    b = basis(5, TRAP2)
    rng = np.random.default_rng(19)
    c = np.zeros(5, dtype=complex)
    c[:3] = helpers.random_fock_amplitudes(rng, 3)
    c = np.abs(c)  # real orbital keeps the closed form simple
    c /= np.linalg.norm(c)
    st = fock.condensate_state(c, n)
    grid = np.linspace(-6, 6, 41)
    pd = fock.pair_distribution(st, grid, b)
    psi = fock.hermite_functions(grid, 5, b)
    w = psi @ c.real
    kappa = psi @ psi.T
    want = (n * (n - 1) * np.outer(w**2, w**2) + n * np.outer(w, w) * kappa) / n**2
    assert np.max(np.abs(pd - want)) < 1e-12


def test_pair_distribution_marginal_matches_density():
    b = basis(5, TRAP2)
    rng = np.random.default_rng(31)
    dim3 = fock.sector_dimension(2, 3)
    amps = np.zeros(fock.sector_dimension(2, 5), dtype=complex)
    # support on the first three orbitals leaves leak headroom
    occs5 = fock.occupations(2, 5).tolist()
    small = dict(zip(map(tuple, fock.occupations(2, 3).tolist()),
                     helpers.random_fock_amplitudes(rng, dim3)))
    for i, occ in enumerate(occs5):
        if occ[3] == 0 and occ[4] == 0:
            amps[i] = small.get(tuple(occ[:3]), 0.0)
    st = fock.state_from_amplitudes(2, 5, amps)
    grid = np.linspace(-8, 8, 161)
    pd = fock.pair_distribution(st, grid, b)
    marginal = np.trapezoid(pd, grid, axis=1)
    profile = fock.density_profile(fock.one_body_density(st), grid, b)
    assert np.max(np.abs(marginal - profile)) < 1e-6


def test_pair_distribution_point_values():
    b = basis(3, TRAP2)
    grid = np.linspace(-8, 8, 321)
    mid = len(grid) // 2
    st = fock.basis_state((1, 1, 0))
    pd = fock.pair_distribution(st, grid, b)
    # K(0)|1,1,0> = (1/sqrt(pi))|1,1,0> - (1/sqrt(2 pi))|0,1,1>, so
    # <K(0)^2>/N^2 = (1/pi + 1/2pi)/4 = 3/(8 pi)
    assert pd[mid, mid] == pytest.approx(3 / (8 * math.pi), rel=1e-10)


def test_pair_distribution_matches_dense_sector_products():
    # an independent route: vec+ T_K(x) T_K(x') vec / N^2 with the dense
    # sector matrices of the grid kernels, on states with the top orbital empty
    n, m = 3, 5
    b = basis(m, TrapConfig(atom_count=n))
    rng = np.random.default_rng(47)
    occs = fock.occupations(n, m)
    grid = np.linspace(-3, 3, 9)
    psi = fock.hermite_functions(grid, m, b)
    t_k = [fock.sector_operator(b, n, np.outer(row, row)) for row in psi]
    for _ in range(3):
        vec = np.zeros(len(occs), dtype=complex)
        guarded = occs[:, -1] == 0
        vec[guarded] = helpers.random_fock_amplitudes(rng, int(guarded.sum()))
        st = fock.state_from_amplitudes(n, m, vec)
        want = np.array([[np.vdot(vec, a @ (c @ vec)).real for c in t_k] for a in t_k]) / n**2
        assert np.max(np.abs(fock.pair_distribution(st, grid, b) - want)) < 1e-12


def test_pair_distribution_refuses_a_basis_of_another_orbital_count():
    st = fock.basis_state((1, 1, 0))
    for m in (2, 4):
        with pytest.raises(ConfigError, match=f"a basis of {m} orbitals for a state of 3"):
            fock.pair_distribution(st, np.linspace(-4, 4, 11), basis(m, TRAP2))


def test_one_body_expectation_refuses_an_operator_of_another_orbital_count():
    # init_moments and schwarz_identity_check reach a one-body operator through
    # rho1 first, and at N = 1 only through it
    for occ in ((1, 0, 0), (2, 0, 0)):
        st = fock.basis_state(occ)
        for m in (2, 4):
            b = basis(m, TrapConfig(atom_count=st.n))
            with pytest.raises(ConfigError, match="operator dimension does not match state "
                                                  "mode count"):
                fock.one_body_density(st).expectation(fock.position_matrix(b))
            with pytest.raises(ConfigError, match="operator dimension does not match"):
                moments.init_moments(st, b)
            with pytest.raises(ConfigError, match="operator dimension does not match"):
                criteria.schwarz_identity_check(st, b, 0.3)


def test_pair_distribution_leaky_state_raises():
    b = basis(3, TRAP2)
    st = fock.basis_state((1, 0, 1))
    with pytest.raises(TruncationLeak):
        fock.pair_distribution(st, np.linspace(-4, 4, 11), b)


# ---------------------------------------------------------------------------
# validation


def test_validation_errors():
    with pytest.raises(NotNormalized):
        fock.FockState(n=1, m=2, occ=[(1, 0)], amp=[0.5])
    with pytest.raises(ConfigError):
        fock.FockState(n=1, m=2, occ=[(1, 0, 0)], amp=[1.0])
    with pytest.raises(ConfigError):
        fock.FockState(n=2, m=2, occ=[(1, 0)], amp=[1.0])
    with pytest.raises(NotNormalized):
        fock.FockState(n=1, m=2, occ=[(1, 0)], amp=[1.0], weight=[0.5])
    with pytest.raises(ConfigError, match="negative"):
        fock.FockState(n=1, m=2, occ=[(1, 0), (0, 1)], amp=[1.0, 1.0], label=[0, 1],
                       weight=[-0.5, 1.5])
    with pytest.raises(ConfigError):
        fock.OrbitalBasis(mode_count=1, trap=TRAP1)
    with pytest.raises(NotNormalized):
        fock.condensate_state(np.array([1.0, 1.0]), 2)
    with pytest.raises(ConfigError):
        fock.thermal_ensemble(basis(4), temperature=-1.0, n=1, energy_cutoff=10.0)
    b = basis(3)
    st = fock.basis_state((1, 0, 0))
    with pytest.raises(ConfigError):
        fock.few_body_expectation(st, [])
    with pytest.raises(ConfigError):
        fock.few_body_expectation(st, [fock.position_matrix(basis(4))])
    with pytest.raises(ConfigError, match="not Hermitian"):
        fock.OneBodyOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ConfigError, match="not finite"):
        fock.OneBodyOperator(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ConfigError, match="not finite"):
        fock.OneBodyOperator(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ConfigError, match="mode_count"):
        fock.OrbitalBasis(mode_count=BUDGETS["modes"].cap + 1, trap=TRAP1)


def test_orbital_basis_takes_a_numpy_count_and_refuses_a_bool():
    # a state's m may be a NumPy integer; True and False stay below 2 orbitals
    b = fock.OrbitalBasis(mode_count=np.int64(6), trap=TRAP1)
    assert np.array_equal(fock.position_matrix(b).matrix, fock.position_matrix(basis(6)).matrix)
    for flag in (True, False, np.bool_(True)):
        with pytest.raises(ConfigError, match="mode_count must be an integer >= 2"):
            fock.OrbitalBasis(mode_count=flag, trap=TRAP1)


def test_a_state_of_no_atoms_is_refused():
    # the spreads and moments divide by n: no state has n = 0 to divide by
    with pytest.raises(ConfigError, match="n >= 1"):
        fock.basis_state([0, 0, 0])
    with pytest.raises(ConfigError, match="n >= 1"):
        fock.FockState(n=0, m=2, occ=[(0, 0)], amp=[1.0])


def test_members_are_labelled_rows_of_one_state():
    # rows come in any order; zero-weight members go and the rest renumber
    st = fock.FockState(n=1, m=3, occ=[(0, 1, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0)],
                        amp=[1.0, 1.0, 0.6, 0.8], label=[2, 1, 0, 0],
                        weight=[0.25, 0.0, 0.75], truncation_loss=1e-3)
    assert st.weight.tolist() == [0.25, 0.75]
    # key = label * dim + rank, with ranks 0, 1, 2 for (0,0,1), (0,1,0), (1,0,0)
    assert st.dim == 3
    assert st.key.tolist() == [1, 2, 4]
    assert st.occ.tolist() == [[0, 1, 0], [1, 0, 0], [0, 1, 0]]
    assert st.amp.tolist() == [0.8, 0.6, 1.0]
    assert st.label.tolist() == [0, 0, 1]
    assert st.truncation_loss == 1e-3
    with pytest.raises(NotNormalized):  # each member on its own
        fock.FockState(n=1, m=2, occ=[(1, 0), (0, 1)], amp=[1.0, 1.0], label=[0, 0],
                       weight=[0.5, 0.5])
    # a row may repeat across members, not within one
    fock.FockState(n=1, m=2, occ=[(1, 0), (1, 0)], amp=[1.0, 1.0], label=[0, 1],
                   weight=[0.5, 0.5])
    with pytest.raises(ConfigError, match="repeat"):
        fock.FockState(n=1, m=2, occ=[(1, 0), (1, 0)], amp=[0.6, 0.8])
    for label in ([0, 2], [0.0, 1.0], [0]):
        with pytest.raises(ConfigError, match="labels"):
            fock.FockState(n=1, m=2, occ=[(1, 0), (0, 1)], amp=[1.0, 1.0], label=label,
                           weight=[0.5, 0.5])
    with pytest.raises(ConfigError):
        fock.FockState(n=1, m=2, occ=[(1, 0)], amp=[1.0], weight=[])
