"""Property-based checks of the collective-moment kernel and the oracle's generator.

Derandomized, so a run always draws the same examples: fixed-N states with
an empty top orbital and Hermitian one-body matrices, against the
first-quantized product-space reference of `helpers`; lists of operators of
mixed nonzero patterns on such states, whose shared walks must keep each
operator's bits; mixtures of such states, against the weighted sum over
their members; and generators of drawn sectors, traps and feedback, on
Hermitian matrices.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import helpers
from cloudfeedback import criteria, fock, oracle
from cloudfeedback.scales import FeedbackConfig, TrapConfig

_UNIT = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
_SCALE = st.floats(0.5, 2.0)


def _guarded_rows(n, m):
    """The (n, m) occupation rows with the top orbital empty, which keep every
    product truncation-exact."""
    occ = fock.occupations(n, m)
    return occ[occ[:, -1] == 0]


def _unit_amplitudes(draw, k):
    re, im = (draw(hnp.arrays(float, k, elements=_UNIT)) for _ in range(2))
    amp = re + 1j * im
    norm = np.linalg.norm(amp)
    if norm < 1e-3:
        amp, norm = np.ones(k), math.sqrt(k)
    return amp / norm


@st.composite
def cases(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(2, 5))
    occ = _guarded_rows(n, m)
    amp = _unit_amplitudes(draw, len(occ))
    k = draw(st.integers(1, 3))
    raw = [draw(hnp.arrays(float, (2, m, m), elements=_UNIT)) for _ in range(k)]
    ops = [fock.OneBodyOperator(0.5 * (a + a.T) + 0.5j * (b - b.T))
           for a, b in raw]
    t = draw(st.floats(0.0, math.pi, allow_nan=False))
    return fock.FockState(n=n, m=m, occ=occ, amp=amp), ops, t


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(cases())
def test_gram_matrix_is_hermitian_psd_and_matches_product_space(case):
    state, ops, t = case
    got = fock.few_body_expectation(state, ops)
    assert got.shape == (len(ops), len(ops))
    assert np.array_equal(got, got.conj().T)
    scale = max(1.0, float(np.max(np.abs(got))))
    assert np.linalg.eigvalsh(got).min() >= -1e-12 * scale
    want = np.array([[helpers.oracle_expectation(state, [a.matrix, b.matrix]) for b in ops]
                     for a in ops])
    assert np.max(np.abs(got - want)) < 1e-12
    basis = fock.OrbitalBasis(mode_count=state.m, trap=TrapConfig(atom_count=state.n))
    assert criteria.sigma_q_sq(state, basis, t) >= -1e-12


@st.composite
def operator_lists(draw):
    """A drawn case's state with operators of mixed nonzero patterns, in drawn
    order and with repeats: x, p, x^2, q(t), q^2(t) and the case's dense ones."""
    state, dense, t = draw(cases())
    basis = fock.OrbitalBasis(mode_count=state.m, trap=TrapConfig(atom_count=state.n))
    pool = [fock.position_matrix(basis), fock.momentum_matrix(basis),
            fock.position_sq_matrix(basis), fock.quadrature_matrix(basis, t),
            fock.quadrature_sq_matrix(basis, t), *dense]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=6))
    return state, pool, picks


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(operator_lists())
def test_operators_sharing_a_walk_keep_their_bits_and_the_gram(case):
    state, pool, picks = case
    ops = [pool[p] for p in picks]
    patterns = {}
    for op in ops:
        patterns.setdefault((op.matrix != 0).tobytes(), []).append(op.matrix)
    for group in patterns.values():
        key, amps = fock._applied(state, group)
        for matrix, amp in zip(group, amps):
            alone_key, alone_amp = helpers.single_walk(state, matrix)
            assert np.array_equal(key, alone_key)
            assert amp.tobytes() == alone_amp.tobytes()
    got = fock.few_body_expectation(state, ops)
    pairs = {(a, b): helpers.oracle_expectation(state, [pool[a].matrix, pool[b].matrix])
             for a in set(picks) for b in set(picks)}
    want = np.array([[pairs[a, b] for b in picks] for a in picks])
    assert np.max(np.abs(got - want)) < 1e-12


@st.composite
def mixtures(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(2, 5))
    occ = _guarded_rows(n, m)
    amps = [_unit_amplitudes(draw, len(occ)) for _ in range(draw(st.integers(2, 3)))]
    weight = np.array([draw(st.floats(0.05, 1.0)) for _ in amps])
    weight /= weight.sum()
    mixture = fock.FockState(n=n, m=m, occ=np.concatenate([occ] * len(amps)),
                             amp=np.concatenate(amps),
                             label=np.repeat(np.arange(len(amps)), len(occ)), weight=weight)
    return mixture, [(w, fock.FockState(n=n, m=m, occ=occ, amp=a))
                     for w, a in zip(weight, amps)]


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(mixtures())
def test_mixture_values_are_weighted_member_averages(case):
    mixture, members = case
    basis = fock.OrbitalBasis(mode_count=mixture.m, trap=TrapConfig(atom_count=mixture.n))
    ops = [fock.position_matrix(basis), fock.momentum_matrix(basis)]
    grid = np.linspace(-3.0, 3.0, 7)
    routes = [
        lambda st: fock.one_body_density(st).matrix,
        lambda st: fock.few_body_expectation(st, ops),
        lambda st: fock.pair_distribution(st, grid, basis),
        lambda st: oracle.DensityMatrix.from_state(st).matrix,
    ]
    for route in routes:
        want = sum(w * route(member) for w, member in members)
        assert np.max(np.abs(route(mixture) - want)) < 1e-12


@st.composite
def generators(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(2, 5))
    trap = TrapConfig(atom_count=n, mass=draw(_SCALE), trap_freq=draw(_SCALE),
                      hbar=draw(_SCALE))
    fb = FeedbackConfig(shift_rate=draw(st.floats(0.0, 2.0)), meas_resolution=draw(_SCALE))
    gen = oracle.build_generator(trap, fb, m)
    dim = len(gen.h_diag)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return gen, 0.5 * (g + g.conj().T)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(generators())
def test_generator_output_is_traceless_and_hermitian(case):
    gen, h = case
    out = gen.apply(h)
    scale = float(np.max(np.abs(out)))
    assert abs(np.trace(out)) <= 1e-12 * scale
    assert np.max(np.abs(out - out.conj().T)) <= 1e-12 * scale
