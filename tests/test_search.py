import math

import numpy as np
import pytest

from cloudfeedback import fock, search
from cloudfeedback.errors import ConfigError, NonConvergence
from cloudfeedback.scales import TrapConfig


def trap_for(n):
    return TrapConfig(atom_count=n, mass=1.0, trap_freq=1.0, hbar=1.0)


def displaced_alpha(nbar, d, m, trap):
    basis = fock.OrbitalBasis(mode_count=m, trap=trap)
    return math.sqrt(nbar) * fock.displaced_orbital(basis, d)


def test_spec_validation():
    with pytest.raises(ConfigError):
        search.SearchSpec(n=2, m=3, family="thermal_pure")
    with pytest.raises(ConfigError):
        search.SearchSpec(n=2, m=3, family="fixed_N_pure", restarts=0)
    with pytest.raises(ConfigError):
        search.SearchSpec(n=2, m=3, family="fixed_N_pure", tol=0.0)
    with pytest.raises(ConfigError):
        search.SearchSpec(n=0, m=3, family="fixed_N_pure")
    with pytest.raises(ConfigError):
        search.SearchSpec(n=2, m=1, family="fixed_N_pure")
    # parameter budget: dim(n=3, m=6) = 56 complex -> 112 reals
    with pytest.raises(ConfigError):
        search.SearchSpec(n=3, m=6, family="fixed_N_pure")
    with pytest.raises(ConfigError):
        search.SearchSpec(n=2, m=33, family="indefinite_N_coherent")
    assert search.SearchSpec(n=2, m=4, family="fixed_N_pure").parameter_count == 20
    assert search.SearchSpec(n=2, m=8, family="indefinite_N_coherent").parameter_count == 16


def test_single_atom_returns_zero_immediately():
    spec = search.SearchSpec(n=1, m=5, family="fixed_N_pure", restarts=4)
    state, value, report = search.search_state(spec, trap_for(1))
    assert value == 0.0
    assert report["best_value"] == 0.0
    assert "note" in report
    assert isinstance(state, fock.FockState)
    assert state.n == 1


def test_fixed_family_confirms_positivity():
    spec = search.SearchSpec(n=2, m=3, family="fixed_N_pure",
                             restarts=16, seed=7)
    state, value, report = search.search_state(spec, trap_for(2))
    assert value >= -1e-8
    assert len(report["rows"]) == 16
    assert isinstance(state, fock.FockState)
    assert state.m == 4  # one guard orbital on top
    assert state.top_orbital_weight() < 1e-20
    starts = [r["start_value"] for r in report["rows"]]
    finals = [r["final_value"] for r in report["rows"]]
    assert value <= min(starts) + 1e-15
    assert value <= min(finals) + 1e-15


def test_sector_harmonics_matches_criteria_route():
    from cloudfeedback import criteria

    rng = np.random.default_rng(3)
    trap = trap_for(2)
    basis = fock.OrbitalBasis(mode_count=4, trap=trap)
    harmonics = search.fixed_sector_harmonics(basis, 2)
    occs = fock.occupations(2, 4)
    slots = [i for i, occ in enumerate(occs) if occ[3] == 0]
    for _ in range(20):
        raw = rng.normal(size=len(slots)) + 1j * rng.normal(size=len(slots))
        full = np.zeros(len(occs), dtype=complex)
        full[slots] = raw / np.linalg.norm(raw)
        st = fock.state_from_amplitudes(2, 4, full)
        fast = harmonics(full)
        slow = criteria.quadrature_harmonics(st, basis)
        assert fast.A == pytest.approx(slow.A, abs=1e-12)
        assert fast.B == pytest.approx(slow.B, abs=1e-12)
        assert fast.C == pytest.approx(slow.C, abs=1e-12)


def test_coherent_displaced_ground_value():
    trap = trap_for(2)
    alpha = displaced_alpha(nbar=2.0, d=1.0, m=14, trap=trap)
    basis = fock.OrbitalBasis(mode_count=14, trap=trap)
    # (hbar/2 m w)(1 - 1/nbar) - d^2/nbar at unit scales, nbar=2, d=1
    assert search.coherent_sigma_q(alpha, basis, 0.0) == pytest.approx(-0.25, abs=1e-9)
    # quarter period later the displacement sits in the other quadrature
    assert search.coherent_sigma_q(alpha, basis, math.pi / 2.0) == pytest.approx(
        0.25, abs=1e-9)
    h = search.coherent_harmonics(alpha, basis)
    assert h.minimum() == pytest.approx(-0.25, abs=1e-9)


def test_coherent_fock_route_matches_closed_form():
    trap = trap_for(2)
    alpha = displaced_alpha(nbar=2.0, d=1.0, m=10, trap=trap)
    closed = search.coherent_sigma_q(
        alpha, fock.OrbitalBasis(mode_count=10, trap=trap), 0.0)
    assert search.coherent_sigma_q_fock(alpha, trap, 0.0, cutoff=20) == pytest.approx(
        closed, abs=1e-9)
    # the spec'd floor cutoff still agrees to the Poisson tail size
    assert search.coherent_sigma_q_fock(alpha, trap, 0.0, cutoff=12) == pytest.approx(
        closed, abs=1e-4)
    with pytest.raises(ConfigError):
        search.coherent_sigma_q_fock(alpha, trap, 0.0, cutoff=8)
    rng = np.random.default_rng(23)
    raw = rng.normal(size=5) + 1j * rng.normal(size=5)
    alpha = math.sqrt(3.0) * raw / np.linalg.norm(raw)
    for t in (0.0, 0.7, 2.1):
        closed = search.coherent_sigma_q(
            alpha, fock.OrbitalBasis(mode_count=5, trap=trap), t)
        fockv = search.coherent_sigma_q_fock(alpha, trap, t, cutoff=24)
        assert fockv == pytest.approx(closed, abs=1e-8)


def test_coherent_search_goes_negative():
    trap = trap_for(2)
    spec = search.SearchSpec(n=2, m=5, family="indefinite_N_coherent",
                             restarts=8, seed=11)
    alpha, value, report = search.search_state(spec, trap)
    assert value < -0.25
    assert np.vdot(alpha, alpha).real == pytest.approx(2.0, rel=1e-12)
    basis = fock.OrbitalBasis(mode_count=5, trap=trap)
    assert search.coherent_harmonics(alpha, basis).minimum() == pytest.approx(
        value, rel=1e-9)


def test_nonconvergence_carries_best_so_far():
    spec = search.SearchSpec(n=2, m=3, family="fixed_N_pure",
                             restarts=3, max_iter=1, seed=5)
    with pytest.raises(NonConvergence) as exc:
        search.search_state(spec, trap_for(2))
    report = exc.value.report
    assert report is not None
    assert len(report["rows"]) == 3
    starts = [r["start_value"] for r in report["rows"]]
    assert report["best_value"] <= min(starts) + 1e-15


def test_search_rerun_is_deterministic():
    spec = search.SearchSpec(n=2, m=3, family="fixed_N_pure",
                             restarts=6, max_iter=200, seed=42)
    reports = []
    for _ in range(2):
        try:
            _, _, report = search.search_state(spec, trap_for(2))
        except NonConvergence as exc:
            report = exc.report
        reports.append(report)
    assert reports[0]["rows"] == reports[1]["rows"]
    assert reports[0]["best_value"] == reports[1]["best_value"]
