import math

import numpy as np
import pytest

import helpers
from cloudfeedback import criteria, fock
from cloudfeedback.errors import NegativeRadicand, ZeroShiftRate
from cloudfeedback.scales import FeedbackConfig, TrapConfig, derive_scales
from helpers import NegativeIntensity


def clean_random_state(rng, n, m, headroom=1):
    """Random fixed-N state with the top `headroom` orbitals empty."""
    occs = fock.occupations(n, m)
    amps = np.zeros(len(occs), dtype=complex)
    live = [i for i, occ in enumerate(occs) if all(occ[m - 1 - k] == 0 for k in range(headroom))]
    vals = helpers.random_fock_amplitudes(rng, len(live))
    for i, v in zip(live, vals):
        amps[i] = v
    return fock.state_from_amplitudes(n, m, amps)


def test_single_atom_always_zero():
    rng = np.random.default_rng(2)
    trap = TrapConfig(atom_count=1)
    b = fock.OrbitalBasis(mode_count=6, trap=trap)
    for _ in range(10):
        st = clean_random_state(rng, 1, 6)
        for t in rng.uniform(0, 10, size=3):
            assert criteria.sigma_q_sq(st, b, t) == pytest.approx(0.0, abs=1e-12)


def test_ground_condensate_two_atoms():
    trap = TrapConfig(atom_count=2)
    b = fock.OrbitalBasis(mode_count=4, trap=trap)
    orb = np.zeros(4)
    orb[0] = 1.0
    st = fock.condensate_state(orb, 2)
    for t in (0.0, 0.37, 2.0):
        assert criteria.sigma_q_sq(st, b, t) == pytest.approx(0.25, abs=1e-12)
    h = criteria.quadrature_harmonics(st, b)
    assert h.A == pytest.approx(0.25)
    assert h.B == pytest.approx(0.0, abs=1e-13)
    assert h.C == pytest.approx(0.0, abs=1e-13)


def test_noon_minus_frozen_value():
    trap = TrapConfig(atom_count=2)
    b = fock.OrbitalBasis(mode_count=3, trap=trap)
    st = fock.FockState(n=2, m=3, occ=[(2, 0, 0), (0, 2, 0)],
                        amp=[1 / math.sqrt(2), -1 / math.sqrt(2)])
    assert criteria.sigma_q_sq(st, b, 0.0) == pytest.approx(0.75, abs=1e-12)


def test_condensate_closed_form_any_orbital():
    # (1 - 1/N) Var_orbital(q(t)) for condensates
    rng = np.random.default_rng(17)
    trap = TrapConfig(atom_count=3)
    b = fock.OrbitalBasis(mode_count=7, trap=trap)
    c = np.zeros(7, dtype=complex)
    c[:5] = helpers.random_fock_amplitudes(rng, 5)
    st = fock.condensate_state(c, 3)
    for t in (0.0, 0.9):
        q = fock.quadrature_matrix(b, t).matrix
        q2 = fock.quadrature_sq_matrix(b, t).matrix
        var = (np.vdot(c, q2 @ c) - np.vdot(c, q @ c) ** 2).real
        want = (1 - 1 / 3) * var
        assert criteria.sigma_q_sq(st, b, t) == pytest.approx(want, abs=1e-12)


def test_squeezed_condensate_harmonics_closed_form():
    r = 0.3
    trap = TrapConfig(atom_count=2)
    b = fock.OrbitalBasis(mode_count=28, trap=trap)
    st = fock.condensate_state(fock.squeezed_orbital(b, r), 2)
    h = criteria.quadrature_harmonics(st, b)
    assert h.A == pytest.approx(0.25 * math.cosh(2 * r), abs=1e-12)
    assert h.B == pytest.approx(-0.25 * math.sinh(2 * r), abs=1e-12)
    assert h.C == pytest.approx(0.0, abs=1e-12)
    assert h.minimum() == pytest.approx(0.25 * math.exp(-2 * r), abs=1e-12)


def test_harmonics_reconstruction_matches_direct():
    rng = np.random.default_rng(5)
    trap = TrapConfig(atom_count=2)
    b = fock.OrbitalBasis(mode_count=6, trap=trap)
    st = clean_random_state(rng, 2, 6)
    h = criteria.quadrature_harmonics(st, b)
    for t in rng.uniform(0, 12, size=20):
        assert h.value(t) == pytest.approx(criteria.sigma_q_sq(st, b, t), abs=1e-10)


def test_breathing_minimum_is_the_harmonics_minimum_to_the_bit():
    rng = np.random.default_rng(17)
    for s0, s45, s90 in rng.normal(size=(200, 3)) * np.array([1.0, 1e-3, 1e3]):
        h = criteria.QuadratureHarmonics.from_samples(s0, s45, s90, omega=1.0)
        assert criteria.breathing_minimum(s0, s45, s90) == h.minimum()
    # equal samples are a flat signal at that level
    assert criteria.breathing_minimum(0.25, 0.25, 0.25) == 0.25


def test_harmonics_minimum_and_argmin():
    h = criteria.QuadratureHarmonics(A=1.0, B=0.3, C=-0.4, omega=1.0)
    assert h.minimum() == pytest.approx(0.5)
    t = h.argmin()
    assert 0 <= t < math.pi
    assert h.value(t) == pytest.approx(h.minimum(), abs=1e-12)
    # sampled curve never goes below the closed-form minimum
    ts = np.linspace(0, math.pi, 2001)
    assert min(h.value(x) for x in ts) >= h.minimum() - 1e-12
    # a flat signal (B = C = 0) is least at every instant, first at t = 0
    flat = criteria.QuadratureHarmonics.from_samples(0.25, 0.25, 0.25, omega=0.7)
    assert (flat.B, flat.C) == (0.0, 0.0)
    assert flat.argmin() == 0.0


def test_periodicity_at_twice_trap_frequency():
    rng = np.random.default_rng(29)
    trap = TrapConfig(atom_count=2, trap_freq=0.7)
    b = fock.OrbitalBasis(mode_count=6, trap=trap)
    st = clean_random_state(rng, 2, 6)
    for t in rng.uniform(0, 10, size=10):
        s1 = criteria.sigma_q_sq(st, b, t)
        s2 = criteria.sigma_q_sq(st, b, t + math.pi / 0.7)
        assert abs(s1 - s2) < 1e-10


def test_fixed_n_states_never_negative():
    rng = np.random.default_rng(101)
    cases = [(1, 4), (2, 5), (3, 6), (4, 5)]
    trials_per_case = 125
    for n, m in cases:
        trap = TrapConfig(atom_count=n)
        b = fock.OrbitalBasis(mode_count=m, trap=trap)
        for _ in range(trials_per_case):
            st = clean_random_state(rng, n, m)
            t = rng.uniform(0, 2 * math.pi)
            assert criteria.sigma_q_sq(st, b, t) >= -1e-10


def test_asymptotic_cloud_size_basics():
    trap = TrapConfig(atom_count=1)
    fb = FeedbackConfig(shift_rate=1.0, meas_resolution=math.sqrt(0.5))
    scales = derive_scales(trap, fb)
    flat = criteria.QuadratureHarmonics(A=0.0, B=0.0, C=0.0, omega=1.0)
    for t in (0.0, 0.5, 3.0):
        assert criteria.asymptotic_cloud_size(scales, flat, t) == pytest.approx(scales.DXs)

    trap2 = TrapConfig(atom_count=2)
    fb2 = FeedbackConfig(shift_rate=1.0, meas_resolution=0.5)
    scales2 = derive_scales(trap2, fb2)
    assert scales2.eta == pytest.approx(1.0)
    quarter = criteria.QuadratureHarmonics(A=0.25, B=0.0, C=0.0, omega=1.0)
    assert criteria.asymptotic_cloud_size(scales2, quarter, 1.3) == pytest.approx(
        math.sqrt(0.5), rel=1e-12
    )

    deep = criteria.QuadratureHarmonics(A=-1.0, B=0.0, C=0.0, omega=1.0)
    with pytest.raises(NegativeRadicand):
        criteria.asymptotic_cloud_size(scales, deep, 0.0)


def test_evaluate_criteria_single_atom():
    trap = TrapConfig(atom_count=1)
    fb = FeedbackConfig(shift_rate=1.0, meas_resolution=math.sqrt(0.5))
    scales = derive_scales(trap, fb)
    rep = criteria.evaluate_criteria(
        scales, criteria.QuadratureHarmonics(A=0.0, B=0.0, C=0.0, omega=1.0)
    )
    assert not rep.schwarz_violated
    assert rep.min_dxa == pytest.approx(scales.DXs)
    assert any("boundary" in note for note in rep.notes)


def test_evaluate_criteria_equality_is_not_violation():
    trap = TrapConfig(atom_count=2)
    fb = FeedbackConfig(shift_rate=1.0, meas_resolution=0.5)
    scales = derive_scales(trap, fb)
    rep = criteria.evaluate_criteria(
        scales, criteria.QuadratureHarmonics(A=0.25, B=0.0, C=0.0, omega=1.0)
    )
    # min dxa = sqrt(0.25 + 0.25) equals dx0 exactly; strict test stays false
    assert rep.min_dxa == pytest.approx(scales.dx0, rel=1e-12)
    assert not rep.qs_violated
    assert not rep.schwarz_violated
    assert any("ground-state boundary" in note for note in rep.notes)


def test_evaluate_criteria_squeezed_violates_qs():
    r = 1.0
    trap = TrapConfig(atom_count=2)
    fb = FeedbackConfig(shift_rate=1.0, meas_resolution=0.5)
    scales = derive_scales(trap, fb)
    h = criteria.QuadratureHarmonics(
        A=0.25 * math.cosh(2 * r), B=-0.25 * math.sinh(2 * r), C=0.0, omega=1.0
    )
    rep = criteria.evaluate_criteria(scales, h)
    want = math.sqrt(0.25 + 0.25 * math.exp(-2 * r))
    assert rep.min_dxa == pytest.approx(want, rel=1e-12)
    assert rep.min_dxa == pytest.approx(0.5327605661168563, rel=1e-12)
    assert rep.qs_violated is True
    assert not rep.schwarz_violated


def test_schwarz_identity_random_states():
    rng = np.random.default_rng(47)
    for n, m in [(2, 5), (3, 4)]:
        trap = TrapConfig(atom_count=n)
        b = fock.OrbitalBasis(mode_count=m, trap=trap)
        for _ in range(25):
            st = clean_random_state(rng, n, m)
            t = rng.uniform(0, 5)
            dq, dcm, residual = criteria.schwarz_identity_check(st, b, t)
            assert abs(residual) < 1e-12
            assert dq >= 0 and dcm >= 0


def test_schwarz_identity_displaced_condensate():
    trap = TrapConfig(atom_count=2)
    b = fock.OrbitalBasis(mode_count=16, trap=trap)
    st = fock.condensate_state(fock.displaced_orbital(b, 0.4), 2)
    dq, dcm, residual = criteria.schwarz_identity_check(st, b, 0.8)
    assert abs(residual) < 1e-12
    assert criteria.sigma_q_sq(st, b, 0.8) == pytest.approx(dq**2 - dcm**2, abs=1e-12)


def test_schwarz_identity_single_atom_spreads_coincide():
    rng = np.random.default_rng(9)
    trap = TrapConfig(atom_count=1)
    b = fock.OrbitalBasis(mode_count=5, trap=trap)
    st = clean_random_state(rng, 1, 5)
    dq, dcm, residual = criteria.schwarz_identity_check(st, b, 1.1)
    assert dq == pytest.approx(dcm, abs=1e-13)
    assert abs(residual) < 1e-13


def test_classical_schwarz_gaussians():
    grid = np.linspace(-10, 10, 801)
    gauss = np.exp(-(grid**2) / 2)
    lhs, rhs, ok = helpers.classical_schwarz_check(gauss, grid, grid)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(1.0, abs=1e-8)
    assert ok

    shifted = np.exp(-((grid - 1.5) ** 2) / 2)
    lhs, rhs, ok = helpers.classical_schwarz_check(shifted, grid, grid)
    assert lhs == pytest.approx(1.5**2, abs=1e-8)
    assert rhs == pytest.approx(1.5**2 + 1.0, abs=1e-8)
    assert ok


def test_classical_schwarz_random_intensities():
    rng = np.random.default_rng(13)
    grid = np.linspace(-5, 5, 101)
    for _ in range(1000):
        intensity = rng.uniform(0, 1, size=grid.shape)
        q = rng.standard_normal(grid.shape)
        lhs, rhs, ok = helpers.classical_schwarz_check(intensity, q, grid)
        assert ok
        assert lhs <= rhs + 1e-10


def test_classical_schwarz_negative_intensity():
    grid = np.linspace(-1, 1, 11)
    bad = np.ones_like(grid)
    bad[3] = -0.1
    with pytest.raises(NegativeIntensity):
        helpers.classical_schwarz_check(bad, grid, grid)
    with pytest.raises(NegativeIntensity):
        helpers.classical_schwarz_check(np.zeros_like(grid), grid, grid)


def test_flag_equivalence_with_spread_difference():
    # schwarz flag iff min over t of (Dq^2 - DQcm^2) < 0; exact by the
    # residual identity, checked here on states where the min is positive
    rng = np.random.default_rng(71)
    trap = TrapConfig(atom_count=3)
    b = fock.OrbitalBasis(mode_count=5, trap=trap)
    fb = FeedbackConfig(shift_rate=1.0, meas_resolution=0.5)
    scales = derive_scales(trap, fb)
    for _ in range(10):
        st = clean_random_state(rng, 3, 5)
        h = criteria.quadrature_harmonics(st, b)
        rep = criteria.evaluate_criteria(scales, h)
        grid_min = min(
            criteria.schwarz_identity_check(st, b, t)[0] ** 2
            - criteria.schwarz_identity_check(st, b, t)[1] ** 2
            for t in np.linspace(0, math.pi, 41)
        )
        assert rep.schwarz_violated == (grid_min < -1e-12)
        assert not rep.schwarz_violated
