import math

import numpy as np
import pytest

import helpers
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
        search.SearchSpec(n=2, m=3, family="fixed_N_pure", tol=math.inf)
    # iteration budget: restarts * max_iter <= 2^22
    with pytest.raises(ConfigError):
        search.SearchSpec(n=2, m=3, family="fixed_N_pure", restarts=2**11,
                          max_iter=2**11 + 1)
    assert search.SearchSpec(n=2, m=3, family="fixed_N_pure", restarts=2**11,
                             max_iter=2**11).restarts == 2**11
    # set-up budget: restarts * (p + 2) <= 2^22, here 14 evaluations a restart
    with pytest.raises(ConfigError):
        search.SearchSpec(n=2, m=3, family="fixed_N_pure", restarts=2**22 // 14 + 1,
                          max_iter=1)
    assert search.SearchSpec(n=2, m=3, family="fixed_N_pure", restarts=2**22 // 14,
                             max_iter=1).restarts == 2**22 // 14
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
    assert not state.occ[:, -1].any()
    starts = [r["start_value"] for r in report["rows"]]
    finals = [r["final_value"] for r in report["rows"]]
    assert value <= min(starts) + 1e-15
    assert value <= min(finals) + 1e-15


def test_sector_harmonics_matches_criteria_route():
    from cloudfeedback import criteria

    rng = np.random.default_rng(3)
    for n in (2, 3):
        trap = trap_for(n)
        basis = fock.OrbitalBasis(mode_count=4, trap=trap)
        harmonics = search.fixed_sector_harmonics(basis, n)
        occs = fock.occupations(n, 4)
        slots = [i for i, occ in enumerate(occs) if occ[3] == 0]
        for _ in range(20):
            raw = rng.normal(size=len(slots)) + 1j * rng.normal(size=len(slots))
            full = np.zeros(len(occs), dtype=complex)
            full[slots] = raw / np.linalg.norm(raw)
            st = fock.state_from_amplitudes(n, 4, full)
            # any norm: the evaluator divides by u . u
            fast = harmonics(3.0 * np.concatenate([raw.real, raw.imag]))
            slow = criteria.quadrature_harmonics(st, basis)
            assert fast.A == pytest.approx(slow.A, abs=1e-12)
            assert fast.B == pytest.approx(slow.B, abs=1e-12)
            assert fast.C == pytest.approx(slow.C, abs=1e-12)


def test_coherent_stacked_route_matches_single_time():
    trap = trap_for(2)
    basis = fock.OrbitalBasis(mode_count=5, trap=trap)
    rng = np.random.default_rng(29)
    for _ in range(10):
        raw = rng.normal(size=5) + 1j * rng.normal(size=5)
        alpha = math.sqrt(2.0) * raw / np.linalg.norm(raw)
        h = search.coherent_harmonics(alpha, basis)
        for t in (0.0, math.pi / 4.0, math.pi / 2.0, 0.7, 2.1):
            assert h.value(t) == pytest.approx(
                search.coherent_sigma_q(alpha, basis, t), abs=1e-12)


def _fock_route_minimum(alpha, trap):
    from cloudfeedback import criteria

    w = trap.trap_freq
    samples = [helpers.coherent_sigma_q_fock(alpha, trap, t, cutoff=24)
               for t in (0.0, math.pi / (4.0 * w), math.pi / (2.0 * w))]
    return criteria.QuadratureHarmonics.from_samples(*samples, omega=w).minimum()


@pytest.mark.parametrize("family,n,m", [("fixed_N_pure", 2, 3), ("fixed_N_pure", 3, 3),
                                        ("indefinite_N_coherent", 2, 4)])
def test_objective_equals_minimum_over_realized_state(family, n, m):
    """The start value of a restart is the objective on the seeded start
    vector; realize that vector as a state and take its minimum by an
    independent route.  The returned best state must match the best value
    the same way."""
    from cloudfeedback import criteria

    trap = trap_for(n)
    spec = search.SearchSpec(n=n, m=m, family=family, restarts=1, seed=13)
    state, value, report = search.search_state(spec, trap)
    x0 = search._restart_rng(13, 0).normal(size=spec.parameter_count)
    amps = x0[: len(x0) // 2] + 1j * x0[len(x0) // 2:]
    start = report["rows"][0]["start_value"]
    if family == "fixed_N_pure":
        basis = fock.OrbitalBasis(mode_count=m + 1, trap=trap)
        occs = fock.occupations(n, m + 1)
        full = np.zeros(len(occs), dtype=complex)
        full[occs[:, -1] == 0] = amps / np.linalg.norm(amps)
        realized = fock.state_from_amplitudes(n, m + 1, full)
        assert criteria.quadrature_harmonics(realized, basis).minimum() == pytest.approx(
            start, abs=1e-12)
        assert criteria.quadrature_harmonics(state, basis).minimum() == pytest.approx(
            value, abs=1e-12)
    else:
        alpha = math.sqrt(n) * amps / np.linalg.norm(amps)
        # the Poisson sum stops at 24 atoms, so the routes agree to its tail
        assert _fock_route_minimum(alpha, trap) == pytest.approx(start, abs=1e-8)
        assert _fock_route_minimum(state, trap) == pytest.approx(value, abs=1e-8)


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
    assert helpers.coherent_sigma_q_fock(alpha, trap, 0.0, cutoff=20) == pytest.approx(
        closed, abs=1e-9)
    # the spec'd floor cutoff still agrees to the Poisson tail size
    assert helpers.coherent_sigma_q_fock(alpha, trap, 0.0, cutoff=12) == pytest.approx(
        closed, abs=1e-4)
    with pytest.raises(ConfigError):
        helpers.coherent_sigma_q_fock(alpha, trap, 0.0, cutoff=8)
    rng = np.random.default_rng(23)
    raw = rng.normal(size=5) + 1j * rng.normal(size=5)
    alpha = math.sqrt(3.0) * raw / np.linalg.norm(raw)
    for t in (0.0, 0.7, 2.1):
        closed = search.coherent_sigma_q(
            alpha, fock.OrbitalBasis(mode_count=5, trap=trap), t)
        fockv = helpers.coherent_sigma_q_fock(alpha, trap, t, cutoff=24)
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


def _scipy_nelder_mead(func, x0, max_iter, fatol, xatol):
    from scipy.optimize import minimize

    res = minimize(func, x0, method="Nelder-Mead",
                   options={"maxiter": max_iter, "fatol": fatol, "xatol": xatol,
                            "adaptive": True})
    return res.x, float(res.fun), int(res.nit), int(res.nfev), bool(res.success)


def _assert_same_bits(mine, theirs):
    x, fun, nit, nfev, success = mine
    assert x.dtype == theirs[0].dtype and x.tobytes() == theirs[0].tobytes()
    assert np.float64(fun).tobytes() == np.float64(theirs[1]).tobytes()
    assert (nit, nfev, success) == theirs[2:]


@pytest.mark.parametrize("family,n,m", [("fixed_N_pure", 2, 3),
                                        ("indefinite_N_coherent", 2, 4)])
def test_nelder_mead_matches_scipy_on_search_objectives(family, n, m):
    spec = search.SearchSpec(n=n, m=m, family=family, max_iter=3000)
    objective, _ = search._objective(spec, trap_for(n))
    for seed in (0, 1, 7, 13):
        for k in range(3):
            x0 = search._restart_rng(seed, k).normal(size=spec.parameter_count)
            args = (x0, spec.max_iter, spec.tol, 1e-8)
            _assert_same_bits(search._nelder_mead(objective, *args),
                              _scipy_nelder_mead(objective, *args))


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def test_nelder_mead_matches_scipy_through_shrinks():
    # a plateau with one lower well around x0: every trial point off the
    # well ties with the worst vertex, so the simplex can only shrink
    x0 = np.array([0.7, -1.3, 2.0, 0.4])

    def well(x):
        return -1.0 if float(np.abs(x - x0).max()) < 1e-3 else 0.0

    mine = search._nelder_mead(well, x0, 500, 1e-9, 1e-8)
    _assert_same_bits(mine, _scipy_nelder_mead(well, x0, 500, 1e-9, 1e-8))
    _, _, nit, nfev, success = mine
    assert success
    # without a shrink an iteration costs at most two evaluations
    assert nfev > len(x0) + 1 + 2 * (nit - 1)


def test_nelder_mead_matches_scipy_from_zero_entries():
    x0 = np.array([0.0, 1.5, 0.0, -0.5, 0.0])
    args = (x0, 5000, 1e-10, 1e-8)
    mine = search._nelder_mead(_rosenbrock, *args)
    _assert_same_bits(mine, _scipy_nelder_mead(_rosenbrock, *args))
    assert mine[4]


def test_nelder_mead_matches_scipy_when_capped():
    x0 = np.array([-1.2, 1.0, 0.3])
    args = (x0, 40, 1e-12, 1e-12)
    mine = search._nelder_mead(_rosenbrock, *args)
    _assert_same_bits(mine, _scipy_nelder_mead(_rosenbrock, *args))
    assert mine[2] == 40 and not mine[4]
