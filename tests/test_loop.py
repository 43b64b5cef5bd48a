import math

import numpy as np
import pytest

from cloudfeedback import fock, loop, moments, oracle
from cloudfeedback.errors import ConfigError, MinResolution, TimescaleViolation
from cloudfeedback.scales import FeedbackConfig, TrapConfig, derive_scales


def trap_for(n):
    return TrapConfig(atom_count=n, mass=1.0, trap_freq=1.0, hbar=1.0)


def loop_for(trap, zeta, eta, gamma, **kw):
    scale = trap.hbar / (2.0 * trap.atom_count * trap.mass * trap.trap_freq)
    sigma = math.sqrt(scale / (zeta * eta))
    return loop.LoopConfig(gamma=gamma, sigma0=sigma * math.sqrt(gamma),
                           zeta0=zeta / gamma, **kw)


def pair_state(mean, cov, k=None):
    """Collective-pair filter state; k copies of the means when k is given."""
    x, p = mean if k is None else (np.full(k, mean[0]), np.full(k, mean[1]))
    return loop._Pair(x, p, cov[0][0], cov[0][1], cov[1][1])


def event(st, z, sigma0, zeta0=0.0, dt=0.0, n=1):
    """One kernel event on the n-atom pair, rotating by dt first."""
    trap = trap_for(n)
    return loop._filter_event(st, loop._rotation(trap, dt), z, sigma0, zeta0,
                              trap.hbar)


def ground_moments(n):
    trap = trap_for(n)
    basis = fock.OrbitalBasis(mode_count=4, trap=trap)
    orb = np.zeros(4, dtype=complex)
    orb[0] = 1.0
    return moments.init_moments(fock.condensate_state(orb, n), basis)


def test_loop_config_validation_and_continuous_map():
    with pytest.raises(ConfigError):
        loop.LoopConfig(gamma=0.0, sigma0=1.0, zeta0=0.1)
    with pytest.raises(ConfigError):
        loop.LoopConfig(gamma=10.0, sigma0=-1.0, zeta0=0.1)
    with pytest.raises(ConfigError):
        loop.LoopConfig(gamma=10.0, sigma0=1.0, zeta0=-0.1)
    with pytest.raises(ConfigError):
        loop.LoopConfig(gamma=10.0, sigma0=1.0, zeta0=0.1, schedule="fixed")
    with pytest.raises(ConfigError):
        loop.LoopConfig(gamma=10.0, sigma0=1.0, zeta0=0.1, trajectories=0)
    cfg = loop.LoopConfig(gamma=100.0, sigma0=5.0, zeta0=0.002)
    fb = cfg.continuous_equivalent()
    assert fb.shift_rate == pytest.approx(0.2)
    assert fb.meas_resolution == pytest.approx(0.5)


def test_rotation_is_exact_symplectic_orbit():
    cov = [[0.7, 0.1], [0.1, 0.9]]
    for n in (1, 3):
        # the pair oscillates with the collective mass n m
        mw = n * 1.0 * 1.0
        st = pair_state([1.0, 0.5], cov)
        quarter = loop._rotate(st, loop._rotation(trap_for(n), math.pi / 2))
        assert quarter.x == pytest.approx(0.5 / mw, abs=1e-12)
        assert quarter.p == pytest.approx(-1.0 * mw, abs=1e-12)
        full = loop._rotate(st, loop._rotation(trap_for(n), 2 * math.pi))
        assert np.allclose(full, st, atol=1e-12)


def test_sample_measurement_statistics():
    rng = np.random.default_rng(7)
    sharp = pair_state([1.3, 0.0], [[1e-16, 0.0], [0.0, 0.5]], k=3000)
    _, draws = event(sharp, rng.normal(size=3000), 0.4)
    assert draws.mean() == pytest.approx(1.3, abs=4 * 0.4 / math.sqrt(3000))

    n_samp = 100_000
    st = pair_state([0.2, 0.0], [[0.5, 0.0], [0.0, 0.5]], k=n_samp)
    var = st.xx
    target = var + 0.3**2
    _, draws = event(st, rng.normal(size=n_samp), 0.3)
    stat = 3.0 * target * math.sqrt(2.0 / n_samp)
    assert abs(np.var(draws) - target) < stat
    # uninformative limit: outcome variance ~ sigma0^2
    st = pair_state([0.2, 0.0], [[0.5, 0.0], [0.0, 0.5]], k=20_000)
    _, wide = event(st, rng.normal(size=20_000), 50.0)
    assert np.var(wide) == pytest.approx(50.0**2 + var, rel=0.05)


def test_measurement_update_conditioning_formulas():
    v = 0.8
    st = pair_state([0.4, -0.2], [[v, 0.05], [0.05, 0.6]])
    # the unit-normal draw that lands the outcome on 1.0
    z = (1.0 - 0.4) / math.sqrt(v + v)
    post, x_m = event(st, z, math.sqrt(v))
    assert x_m == pytest.approx(1.0, abs=1e-12)
    assert post.xx == pytest.approx(v / 2.0, abs=1e-12)
    k = v / (v + v)
    assert post.x == pytest.approx(0.4 + k * (1.0 - 0.4), abs=1e-12)


def test_measurement_update_never_increases_cm_variance():
    rng = np.random.default_rng(42)
    for n in (1, 2):
        for _ in range(100):
            a = rng.normal(size=(2, 2))
            cov = a @ a.T + 1e-6 * np.eye(2)
            st = pair_state(rng.normal(size=2), cov)
            dt = rng.uniform(0.0, 1.0)
            before = loop._rotate(st, loop._rotation(trap_for(n), dt)).xx
            post, _ = event(st, rng.normal(), 10**rng.uniform(-1, 1), dt=dt, n=n)
            assert post.xx <= before + 1e-12


def test_no_signalling_of_the_average():
    trap = trap_for(2)
    cov = np.array([
        [0.6, 0.1, 0.2, 0.0],
        [0.1, 0.7, 0.0, 0.1],
        [0.2, 0.0, 0.5, 0.05],
        [0.0, 0.1, 0.05, 0.8],
    ])
    mean, pair_cov = moments.project_collective(moments.JointMoments(
        mean=np.array([0.3, -0.1, 0.2, 0.4]), cov=cov, n=2))
    sigma0 = 0.6
    rng = np.random.default_rng(99)
    n_samp = 1_000_000
    z = rng.normal(size=n_samp)

    batch, _ = event(pair_state(mean, pair_cov, k=n_samp), z, sigma0, n=2)
    post = np.stack([batch.x, batch.p], axis=1)
    for j in range(5):
        single, _ = event(pair_state(mean, pair_cov), float(z[j]), sigma0, n=2)
        assert np.allclose(post[j], [single.x, single.p], atol=1e-12)

    # averaged conditional mean returns the prior mean
    se = np.std(post, axis=0) / math.sqrt(n_samp)
    assert np.all(np.abs(post.mean(axis=0) - mean) < 3.0 * se + 1e-12)

    # spread of conditional means + conditional covariance = prior + back-action
    post_cov = np.array([[batch.xx, batch.xp], [batch.xp, batch.pp]])
    spread = np.cov(post.T, bias=True)
    u = np.array([0.0, 1.0])
    expected = pair_cov + (trap.hbar**2 / (4.0 * sigma0**2)) * np.outer(u, u)
    recon = spread + post_cov
    assert np.max(np.abs(recon - expected)) < 0.005 * np.max(np.abs(expected))


def test_kick_shifts_positions_only():
    st = pair_state([0.5, 0.1], [[0.3, 0.0], [0.0, 0.6]])
    free, x_m = event(st, 0.7, 0.8)
    shifted, kicked_at = event(st, 0.7, 0.8, zeta0=1.0)
    assert kicked_at == x_m
    assert shifted.x == pytest.approx(free.x - x_m)
    assert shifted.p == pytest.approx(free.p)
    assert (shifted.xx, shifted.xp, shifted.pp) == (free.xx, free.xp, free.pp)
    # perfectly known cm, unit gain: exact cancellation
    sharp = pair_state([0.9, 0.0], [[1e-18, 0.0], [0.0, 0.5]])
    zeroed, _ = event(sharp, 0.0, 1.0, zeta0=1.0)
    assert zeroed.x == pytest.approx(0.0, abs=1e-15)


def test_min_resolution_guard():
    trap = trap_for(1)
    cfg = loop.LoopConfig(gamma=100.0, sigma0=1e-9, zeta0=0.0, trajectories=4)
    with pytest.raises(MinResolution):
        loop.run_ensemble(ground_moments(1), cfg, trap, 1.0)


def test_timescale_warning_below_twenty_omega():
    trap = trap_for(1)
    cfg = loop_for(trap, zeta=0.5, eta=1.0, gamma=5.0, trajectories=8)
    with pytest.warns(TimescaleViolation):
        loop.run_ensemble(ground_moments(1), cfg, trap, 1.0)


def test_zero_gain_backaction_heats_at_measurement_rate():
    trap = trap_for(1)
    gamma, sigma0 = 200.0, 0.5
    cfg = loop.LoopConfig(gamma=gamma, sigma0=sigma0, zeta0=0.0,
                          rng_seed=5, trajectories=16384)
    traj = loop.run_ensemble(ground_moments(1), cfg, trap, 2.0, record_stride=10)
    w, m, hbar = trap.trap_freq, trap.mass, trap.hbar
    combo = traj.var_P + (m * w) ** 2 * traj.var_X
    slope = np.polyfit(traj.times, combo, 1)[0]
    expected = gamma * hbar**2 / (4.0 * sigma0**2)
    # late-time variance is spread dominated, so the slope carries the
    # usual sqrt(2/K) sampling error; 0.035 is about three sigma here
    assert slope == pytest.approx(expected, rel=0.035)


def test_full_loop_mean_matches_continuous_prediction():
    trap = trap_for(1)
    zeta, gamma = 0.5, 100.0
    cfg = loop_for(trap, zeta=zeta, eta=1.0, gamma=gamma,
                   rng_seed=11, trajectories=10_000)
    fb = cfg.continuous_equivalent()
    m0 = ground_moments(1)
    m0 = moments.JointMoments(mean=np.array([2.0, 0.0]), cov=m0.cov, n=1)
    traj = loop.run_ensemble(m0, cfg, trap, 6.0, record_stride=2)

    g = moments.build_generators(trap, fb)
    pred = np.array([moments.evolve(m0, g, t).mean[0] for t in traj.times])
    stat = 3.0 * np.sqrt(traj.var_X / cfg.trajectories)
    tol = np.maximum(0.02 * 2.0 * np.exp(-0.5 * zeta * traj.times), stat + 0.02)
    assert np.all(np.abs(traj.mean_X - pred) < tol)


def test_stationary_variance_matches_discrete_fixed_point():
    zeta = 0.5
    for n in (1, 3):
        trap = trap_for(n)
        target = derive_scales(trap, FeedbackConfig(
            shift_rate=zeta, meas_resolution=math.sqrt(0.5 / (n * zeta)))).DXs ** 2
        errs = []
        for gamma in (25.0, 100.0):
            cfg = loop_for(trap, zeta=zeta, eta=1.0, gamma=gamma,
                           rng_seed=3, trajectories=6000)
            fixed_var = float(loop.stationary_discrete(trap, cfg)[0, 0])
            traj = loop.run_ensemble(ground_moments(n), cfg, trap, 30.0,
                                     record_stride=5)
            late = traj.times > 20.0
            mc = float(np.mean(traj.var_X[late]))
            assert mc == pytest.approx(fixed_var, rel=0.05)
            errs.append(abs(fixed_var - target))
        # discrete-map bias shrinks like 1/gamma
        assert errs[1] < errs[0]
        assert errs[1] < 4.0 * target / 100.0
    # the fixed point lives on the collective pair, so it is well posed at any n
    for n in (2, 5):
        trap = trap_for(n)
        fixed = loop.stationary_discrete(trap, loop_for(trap, zeta=zeta, eta=1.0,
                                                        gamma=50.0))
        assert np.all(np.isfinite(fixed))
        assert np.array_equal(fixed, fixed.T)


def test_regular_and_poisson_schedules_share_the_limit():
    trap = trap_for(1)
    zeta = 0.5
    diffs = []
    for gamma in (25.0, 100.0):
        var = {}
        for schedule in ("regular", "poisson"):
            cfg = loop_for(trap, zeta=zeta, eta=1.0, gamma=gamma,
                           rng_seed=17, trajectories=2048, schedule=schedule)
            traj = loop.run_ensemble(ground_moments(1), cfg, trap, 24.0,
                                     record_stride=max(1, int(gamma // 10)))
            late = traj.times > 16.0
            var[schedule] = float(np.mean(traj.var_X[late]))
            if schedule == "poisson":
                expect = traj.times[-1] * gamma
                assert traj.n_events[-1] == pytest.approx(expect, rel=0.05)
        scale = derive_scales(trap, cfg.continuous_equivalent()).DXs ** 2
        diffs.append(abs(var["regular"] - var["poisson"]) / scale)
    assert diffs[0] < 3.0 / 25.0 + 0.06
    assert diffs[1] < 3.0 / 100.0 + 0.06


def test_ensemble_rerun_is_deterministic():
    trap = trap_for(1)
    runs = []
    for _ in range(2):
        cfg = loop_for(trap, zeta=0.5, eta=1.0, gamma=60.0,
                       rng_seed=123, trajectories=2500)
        runs.append(loop.run_ensemble(ground_moments(1), cfg, trap, 4.0))
    for field in ("times", "mean_X", "var_X", "mean_P", "var_P", "n_events"):
        a, b = getattr(runs[0], field), getattr(runs[1], field)
        assert np.array_equal(a, b)
    other = loop.run_ensemble(
        ground_moments(1),
        loop_for(trap, zeta=0.5, eta=1.0, gamma=60.0, rng_seed=124,
                 trajectories=2500),
        trap, 4.0)
    assert not np.array_equal(other.mean_X, runs[0].mean_X)

    poisson = []
    for _ in range(2):
        cfg = loop_for(trap, zeta=0.5, eta=1.0, gamma=40.0, rng_seed=9,
                       trajectories=1500, schedule="poisson")
        poisson.append(loop.run_ensemble(ground_moments(1), cfg, trap, 3.0,
                                         record_stride=4))
    assert np.array_equal(poisson[0].var_X, poisson[1].var_X)


def test_kraus_sample_follows_predictive_distribution():
    trap = trap_for(1)
    basis = fock.OrbitalBasis(mode_count=16, trap=trap)
    gen = oracle.build_generator(
        trap, FeedbackConfig(shift_rate=0.0, meas_resolution=math.inf), basis)
    state = fock.condensate_state(fock.displaced_orbital(basis, 0.6), 1)
    rho = oracle.DensityMatrix.from_state(state, basis).matrix
    mean, cov = moments.project_collective(moments.init_moments(state, basis))
    sigma0 = 1.5
    rng = np.random.default_rng(2)
    n_samp = 40_000
    draws = np.array([loop.kraus_sample(rho, gen.x_hat, sigma0, rng)
                      for _ in range(n_samp)])
    target = cov[0, 0] + sigma0**2
    assert draws.mean() == pytest.approx(mean[0], abs=4 * math.sqrt(target / n_samp))
    assert np.var(draws) == pytest.approx(target, rel=4 * math.sqrt(2.0 / n_samp))


def test_trajectory_summary_reports_run_parameters():
    trap = trap_for(1)
    cfg = loop_for(trap, zeta=0.5, eta=1.0, gamma=40.0, rng_seed=8,
                   trajectories=32)
    traj = loop.run_ensemble(ground_moments(1), cfg, trap, 1.0)
    doc = traj.summary()
    assert doc["gamma"] == pytest.approx(40.0)
    assert doc["K"] == 32
    assert doc["seed"] == 8
    assert set(doc) >= {"gamma", "sigma0", "zeta0", "K", "seed"}


def test_kraus_backend_agrees_with_gaussian_filter():
    # needs a moderate sigma0: a hard measurement squeezes the conditional
    # state until its momentum tail leaves any reachable orbital basis
    trap = trap_for(1)
    basis = fock.OrbitalBasis(mode_count=28, trap=trap)
    gen = oracle.build_generator(
        trap, FeedbackConfig(shift_rate=0.0, meas_resolution=math.inf), basis)
    state = fock.condensate_state(fock.displaced_orbital(basis, 0.4), 1)
    rho = oracle.DensityMatrix.from_state(state, basis).matrix
    filt = pair_state(*moments.project_collective(moments.init_moments(state, basis)))

    sigma0, zeta0, dt = 2.5, 0.05, 0.05
    x_hat, p_hat = gen.x_hat, gen.p_hat
    phases = np.exp(-1j * gen.h_diag * dt / trap.hbar)
    rng = np.random.default_rng(31)
    for _ in range(40):
        rho = (phases[:, None] * rho) * phases.conj()[None, :]
        filt, x_m = event(filt, rng.normal(), sigma0, zeta0=zeta0, dt=dt)
        rho = loop.kraus_measure(rho, x_hat, x_m, sigma0)
        rho = loop.kraus_kick(rho, p_hat, x_m, zeta0, trap.hbar)

        mean_x = float(np.trace(x_hat @ rho).real)
        mean_p = float(np.trace(p_hat @ rho).real)
        var_x = float(np.trace(x_hat @ x_hat @ rho).real) - mean_x**2
        var_p = float(np.trace(p_hat @ p_hat @ rho).real) - mean_p**2
        assert mean_x == pytest.approx(filt.x, abs=1e-7)
        assert mean_p == pytest.approx(filt.p, abs=1e-7)
        assert var_x == pytest.approx(filt.xx, abs=1e-7)
        assert var_p == pytest.approx(filt.pp, abs=1e-7)
