"""Property-based checks of the collective-moment kernel.

Derandomized, so a run always draws the same examples: fixed-N states with
an empty top orbital and Hermitian one-body matrices, against the
first-quantized product-space reference of `helpers`.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import helpers
from cloudfeedback import criteria, fock
from cloudfeedback.scales import TrapConfig

_UNIT = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def cases(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(2, 5))
    # rows with the top orbital empty keep every product truncation-exact
    occ = fock.occupations(n, m)
    occ = occ[occ[:, -1] == 0]
    re, im = (draw(hnp.arrays(float, len(occ), elements=_UNIT)) for _ in range(2))
    amp = re + 1j * im
    norm = np.linalg.norm(amp)
    if norm < 1e-3:
        amp, norm = np.ones(len(occ)), math.sqrt(len(occ))
    k = draw(st.integers(1, 3))
    raw = [draw(hnp.arrays(float, (2, m, m), elements=_UNIT)) for _ in range(k)]
    ops = [fock.OneBodyOperator(0.5 * (a + a.T) + 0.5j * (b - b.T), hermitian=True)
           for a, b in raw]
    t = draw(st.floats(0.0, math.pi, allow_nan=False))
    return fock.FockState(n=n, m=m, occ=occ, amp=amp / norm), ops, t


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
