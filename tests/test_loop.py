import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import helpers
from cloudfeedback import driver, fock, loop, moments, oracle
from cloudfeedback.errors import BUDGETS, ConfigError, MinResolution, TimescaleViolation
from cloudfeedback.scales import (FeedbackConfig, TrapConfig, continuous_limit_params,
                                  derive_scales)


def trap_for(n):
    return TrapConfig(atom_count=n, mass=1.0, trap_freq=1.0, hbar=1.0)


def loop_for(trap, zeta, eta, gamma, **kw):
    scale = trap.hbar / (2.0 * trap.atom_count * trap.mass * trap.trap_freq)
    sigma = math.sqrt(scale / (zeta * eta))
    return loop.LoopConfig(gamma=gamma, sigma0=sigma * math.sqrt(gamma),
                           zeta0=zeta / gamma, **kw)


def continuous_feedback(cfg):
    sigma, zeta = continuous_limit_params(cfg.gamma, cfg.sigma0, cfg.zeta0)
    return FeedbackConfig(shift_rate=zeta, meas_resolution=sigma)


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


def loop_record(tmp_path, cfg, trap, t_max, record_stride=1):
    """The run record cli_main writes for the loop cfg over t_max, from the
    default ground condensate."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "n": trap.atom_count, "gamma": cfg.gamma, "sigma0": cfg.sigma0, "zeta0": cfg.zeta0,
        "seed": cfg.rng_seed,
        "task": {"t_max": t_max, "schedule": cfg.schedule, "trajectories": cfg.trajectories,
                 "record_stride": record_stride}}))
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        assert driver.cli_main(["loop", "--config", str(path)]) == 0
    return json.loads(err.getvalue())


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
    # one Generator per trajectory stays alive: a cap, checked before any work
    cap = BUDGETS["trajectories"].cap
    loop.LoopConfig(gamma=10.0, sigma0=1.0, zeta0=0.1, trajectories=cap)
    with pytest.raises(ConfigError):
        loop.LoopConfig(gamma=10.0, sigma0=1.0, zeta0=0.1, trajectories=cap + 1)
    cfg = loop.LoopConfig(gamma=100.0, sigma0=5.0, zeta0=0.002)
    fb = continuous_feedback(cfg)
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
    (mean,), (pair_cov,) = moments.project_collective(moments.checked_grid(
        2, np.array([0.3, -0.1, 0.2, 0.4])[None], cov[None]))
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


def test_run_ensemble_refuses_a_start_that_is_not_one_instant_of_its_moments():
    trap = trap_for(2)
    cfg = loop_for(trap, zeta=0.5, eta=1.0, gamma=40.0, trajectories=4)
    m0 = ground_moments(2)
    g = moments.build_generators(trap, continuous_feedback(cfg))
    # two instants; one atom's two moments, with n wrong and right
    for start in (moments.evolve_grid(m0, g, [0.0, 1.0]), ground_moments(1),
                  ground_moments(1)._replace(n=2)):
        with pytest.raises(ConfigError, match="a start must be one instant"):
            loop.run_ensemble(start, cfg, trap, 1.0)
    assert loop.run_ensemble(m0, cfg, trap, 1.0).traj_events == 4 * 40


def test_full_loop_mean_matches_continuous_prediction():
    trap = trap_for(1)
    zeta, gamma = 0.5, 100.0
    cfg = loop_for(trap, zeta=zeta, eta=1.0, gamma=gamma,
                   rng_seed=11, trajectories=10_000)
    fb = continuous_feedback(cfg)
    m0 = ground_moments(1)
    m0 = moments.checked_grid(1, np.array([2.0, 0.0])[None], m0.cov)
    traj = loop.run_ensemble(m0, cfg, trap, 6.0, record_stride=2)

    g = moments.build_generators(trap, fb)
    pred = np.array([moments.evolve_grid(m0, g, [t]).mean[0, 0] for t in traj.times])
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
        scale = derive_scales(trap, continuous_feedback(cfg)).DXs ** 2
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


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
def test_spawn_states_are_numpys_spawn_children(seed):
    states = loop._spawn_states(seed, 2**16)
    assert states.shape == (2**16, 4) and states.dtype == np.uint64
    assert states.flags.c_contiguous  # PCG64 reads each row's memory as it is
    for i in (0, 1, 63, 64, 65, 2**16 - 1):
        want = np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(4, np.uint64)
        np.testing.assert_array_equal(states[i], want)


@pytest.mark.parametrize("k, block, tile", [(1, 40, 2**16), (65, 40, 2**16),
                                            (130, 40, 2**16), (3, 100, 32)])
def test_streams_fill_event_major_rows_from_each_trajectorys_stream(monkeypatch, k, block,
                                                                     tile):
    # a tile of 32 floats splits a 100-draw block into calls of 32, 32, 32 and 4
    monkeypatch.setattr(loop, "_TILE_FLOATS", tile)
    refills = iter([np.arange(k), np.arange(0, k, 2)])
    blocks = loop._Streams(7, k, block, ("standard_exponential", "standard_normal")
                           ).blocks(lambda: next(refills))
    rngs = [np.random.default_rng(np.random.SeedSequence(entropy=7, spawn_key=(i,)))
            for i in range(k)]
    want = np.empty((2, block, k))
    for live in (np.arange(k), np.arange(0, k, 2)):
        for i in live:
            want[0, :, i] = rngs[i].standard_exponential(block)
            want[1, :, i] = rngs[i].standard_normal(block)
        np.testing.assert_array_equal(next(blocks), want)


def regular_reference(init, cfg, trap, t_max, record_stride):
    """Event-by-event reference for the regular schedule.

    Trajectory i draws all its normals from its own numpy stream (spawn key
    i) at once; the batch steps through the filter kernel with the shared
    covariance, and every record_stride-th event is recorded as the mean
    of the means and the shared variance plus the spread of the means.
    """
    k, n_events = cfg.trajectories, round(t_max * cfg.gamma)
    zs = np.array([np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.rng_seed, spawn_key=(i,))).standard_normal(n_events)
        for i in range(k)])
    (mean0,), (cov0,) = moments.project_collective(init)
    st = loop._Pair(np.full(k, mean0[0]), np.full(k, mean0[1]),
                    cov0[0, 0], cov0[0, 1], cov0[1, 1])

    def record(st):
        mx, mp = st.x.sum() / k, st.p.sum() / k
        return (mx, st.xx + ((st.x**2).sum() / k - mx**2),
                mp, st.pp + ((st.p**2).sum() / k - mp**2))

    rot = loop._rotation(trap, 1.0 / cfg.gamma)
    rows = [record(st)]
    for ev in range(n_events):
        st, _ = loop._filter_event(st, rot, zs[:, ev], cfg.sigma0, cfg.zeta0, trap.hbar)
        if (ev + 1) % record_stride == 0:
            rows.append(record(st))
    return np.array(rows)


@pytest.mark.parametrize("k", [1, 63, 65, 130, 300])
@pytest.mark.parametrize("stride", [1, 7])
def test_regular_ensemble_matches_event_by_event_reference(k, stride):
    trap = trap_for(2)
    cfg = loop_for(trap, zeta=0.5, eta=1.0, gamma=40.0, rng_seed=2**40 + k,
                   trajectories=k)
    traj = loop.run_ensemble(ground_moments(2), cfg, trap, 3.0, record_stride=stride)
    got = np.column_stack([traj.mean_X, traj.var_X, traj.mean_P, traj.var_P])
    assert np.array_equal(got, regular_reference(ground_moments(2), cfg, trap, 3.0, stride))


@pytest.mark.parametrize("k", [1, 130])
def test_regular_ensemble_across_many_refills_matches_the_reference(monkeypatch, k):
    # draw blocks of 32 events at K = 1 and of 16, the floor, at K = 130 make
    # the 120 events cross four and eight refills
    monkeypatch.setattr(loop, "_DRAW_FLOATS", 32)
    trap = trap_for(2)
    cfg = loop_for(trap, zeta=0.5, eta=1.0, gamma=40.0, rng_seed=2**40 + k,
                   trajectories=k)
    traj = loop.run_ensemble(ground_moments(2), cfg, trap, 3.0, record_stride=7)
    got = np.column_stack([traj.mean_X, traj.var_X, traj.mean_P, traj.var_P])
    assert np.array_equal(got, regular_reference(ground_moments(2), cfg, trap, 3.0, 7))


@pytest.mark.parametrize("schedule", ["regular", "poisson"])
def test_record_stride_past_the_last_event_records_the_start_alone(schedule):
    # 10 events: any stride from 11 on, past the float range too, gives one record
    trap = trap_for(1)
    cfg = loop_for(trap, zeta=0.5, eta=1.0, gamma=100.0, rng_seed=7, trajectories=3,
                   schedule=schedule)
    runs = [loop.run_ensemble(ground_moments(1), cfg, trap, 0.1, record_stride=stride)
            for stride in (11, 10**400)]
    assert len(runs[0].times) == 1
    for name in ("times", "mean_X", "var_X", "mean_P", "var_P", "n_events"):
        assert np.array_equal(getattr(runs[0], name), getattr(runs[1], name)), name
    assert runs[0].traj_events == runs[1].traj_events


def grid_walk_poisson(init, cfg, trap, t_max, record_stride):
    """Grid-by-grid reference for the poisson schedule.

    Each record edge is reached in turn: the trajectories whose next event
    falls at or before the edge fire it, one index set at a time, until none
    is left, and the edge is then recorded from every trajectory rotated
    forward from its last event.  Trajectory i reads its own stream (spawn
    key i, a block of exponential gaps and then a block of normal draws, the
    block as in run_ensemble) one event at a time.  Returns the records as
    rows of (mean X, Var X, mean P, Var P) and the mean event counts.
    """
    k = cfg.trajectories
    n_events = round(t_max * cfg.gamma)
    block = max(16, min(n_events, loop._DRAW_FLOATS // k))
    rngs = [np.random.default_rng(np.random.SeedSequence(entropy=cfg.rng_seed, spawn_key=(i,)))
            for i in range(k)]
    buf = np.empty((2, k, block))
    used = np.full(k, block)

    def take(idx):
        for i in idx[used[idx] == block]:
            rngs[i].standard_exponential(out=buf[0, i])
            rngs[i].standard_normal(out=buf[1, i])
            used[i] = 0
        draws = buf[:, idx, used[idx]]
        used[idx] += 1
        return draws

    def ensemble(st):
        return (st.x.mean(), st.xx.mean() + np.var(st.x),
                st.p.mean(), st.pp.mean() + np.var(st.p))

    (mean0,), (cov0,) = moments.project_collective(init)
    st = loop._Pair(*(np.full(k, v) for v in
                      (mean0[0], mean0[1], cov0[0, 0], cov0[0, 1], cov0[1, 1])))
    gaps, z = take(np.arange(k))
    t_next, t_last, fired = gaps / cfg.gamma, np.zeros(k), np.zeros(k)
    rows, counts = [ensemble(st)], [0.0]
    for g in range(1, n_events // record_stride + 1):
        t_edge = g * (record_stride / cfg.gamma)
        while (idx := np.flatnonzero(t_next <= t_edge)).size:
            sub, _ = loop._filter_event(loop._Pair(*(f[idx] for f in st)),
                                        loop._rotation(trap, t_next[idx] - t_last[idx]),
                                        z[idx], cfg.sigma0, cfg.zeta0, trap.hbar)
            for field, value in zip(st, sub):
                field[idx] = value
            t_last[idx] = t_next[idx]
            fired[idx] += 1.0
            gaps, z[idx] = take(idx)
            t_next[idx] += gaps / cfg.gamma
        rows.append(ensemble(loop._rotate(st, loop._rotation(trap, t_edge - t_last))))
        counts.append(fired.mean())
    return np.array(rows), np.array(counts)


@pytest.mark.parametrize("n, k, stride", [(1, 64, 1), (1, 64, 7), (3, 17, 1), (3, 40, 7)])
def test_poisson_lockstep_matches_grid_walk(n, k, stride):
    trap = trap_for(n)
    basis = fock.OrbitalBasis(mode_count=12, trap=trap)
    init = moments.init_moments(
        fock.condensate_state(fock.displaced_orbital(basis, 0.5), n), basis)
    cfg = loop_for(trap, zeta=0.5, eta=1.0, gamma=40.0, rng_seed=30 + n,
                   trajectories=k, schedule="poisson")
    traj = loop.run_ensemble(init, cfg, trap, 3.0, record_stride=stride)
    rows, counts = grid_walk_poisson(init, cfg, trap, 3.0, stride)
    np.testing.assert_array_equal(traj.n_events, counts)
    np.testing.assert_array_equal(traj.times, np.arange(len(counts)) * (stride / 40.0))
    got = np.column_stack([traj.mean_X, traj.var_X, traj.mean_P, traj.var_P])
    np.testing.assert_allclose(got, rows, rtol=1e-12, atol=0.0)
    # lockstep steps every trajectory until the last one is past the final edge
    assert traj.traj_events >= k * counts[-1]


def test_poisson_lockstep_across_many_refills_matches_grid_walk(monkeypatch):
    # 16-event blocks at K = 130: every trajectory refills several times,
    # and those already past the last edge are left out of the later ones
    monkeypatch.setattr(loop, "_DRAW_FLOATS", 32)
    trap = trap_for(2)
    cfg = loop_for(trap, zeta=0.5, eta=1.0, gamma=40.0, rng_seed=77, trajectories=130,
                   schedule="poisson")
    traj = loop.run_ensemble(ground_moments(2), cfg, trap, 3.0, record_stride=7)
    rows, counts = grid_walk_poisson(ground_moments(2), cfg, trap, 3.0, 7)
    np.testing.assert_array_equal(traj.n_events, counts)
    got = np.column_stack([traj.mean_X, traj.var_X, traj.mean_P, traj.var_P])
    np.testing.assert_allclose(got, rows, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("schedule", ["regular", "poisson"])
def test_draw_counts_follow_each_streams_refills(monkeypatch, tmp_path, schedule):
    # 16-event blocks at K = 130 refill every stream several times; a stream
    # refilled r times has drawn r blocks of each method, and its events read
    # the first of them, one number of each method per event
    monkeypatch.setattr(loop, "_DRAW_FLOATS", 32)
    refills = np.zeros(130, dtype=int)
    blocks = loop._Streams.blocks

    def counted(self, live=None):
        def spy():
            idx = np.arange(130) if live is None else live()
            refills[idx] += 1
            return idx
        return blocks(self, spy)

    monkeypatch.setattr(loop._Streams, "blocks", counted)
    trap = trap_for(2)
    cfg = loop_for(trap, zeta=0.5, eta=1.0, gamma=40.0, rng_seed=5, trajectories=130,
                   schedule=schedule)
    traj = loop.run_ensemble(ground_moments(2), cfg, trap, 3.0, record_stride=7)
    methods = 1 if schedule == "regular" else 2
    stepped = traj.traj_events // 130
    # the regular schedule splits its 120 events evenly: 8 blocks of 15
    block = 15 if schedule == "regular" else 16
    assert refills.max() > 2
    assert traj.draws == methods * block * refills.sum()
    assert traj.draws_unread == methods * np.maximum(block * refills - stepped, 0).sum()
    # the run record reports the same counts
    assert loop_record(tmp_path, cfg, trap, 3.0, record_stride=7)["health"] == {
        "draws": traj.draws, "draws_unread": traj.draws_unread, "truncation_loss": 0.0}
    if schedule == "regular":
        assert (traj.draws, traj.draws_unread) == (130 * 120, 0)
    else:
        assert traj.draws_unread > 0


def test_edges_before_matches_a_search_of_the_edge_times():
    for stride, gamma, count in ((1, 100.0, 2400), (7, 40.0, 17), (10, 100.0, 240), (3, 3.0, 50)):
        step = stride / gamma
        edges = np.arange(1, count + 1) * step
        t = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
                            [0.0, step / 2, edges[-1] * 2.0],
                            np.random.default_rng(count).uniform(0.0, 1.1 * edges[-1], 500)])
        np.testing.assert_array_equal(loop._edges_before(t, step, count),
                                      np.searchsorted(edges, t))


def test_kraus_sample_follows_predictive_distribution():
    trap = trap_for(1)
    basis = fock.OrbitalBasis(mode_count=16, trap=trap)
    gen = oracle.build_generator(
        trap, FeedbackConfig(shift_rate=0.0, meas_resolution=math.inf), basis.mode_count)
    state = fock.condensate_state(fock.displaced_orbital(basis, 0.6), 1)
    rho = oracle.DensityMatrix.from_state(state).matrix
    (mean,), (cov,) = moments.project_collective(moments.init_moments(state, basis))
    sigma0 = 1.5
    rng = np.random.default_rng(2)
    n_samp = 40_000
    kraus = helpers.KrausSector(gen.x_hat.toarray(), gen.p_hat.toarray())
    draws = kraus.sample(rho, sigma0, rng, n_samp)
    target = cov[0, 0] + sigma0**2
    assert draws.mean() == pytest.approx(mean[0], abs=4 * math.sqrt(target / n_samp))
    assert np.var(draws) == pytest.approx(target, rel=4 * math.sqrt(2.0 / n_samp))


def test_trajectory_summary_reports_run_parameters(tmp_path):
    trap = trap_for(1)
    cfg = loop_for(trap, zeta=0.5, eta=1.0, gamma=40.0, rng_seed=8,
                   trajectories=32)
    doc = loop_record(tmp_path, cfg, trap, 1.0)
    assert doc["gamma"] == pytest.approx(40.0)
    assert doc["K"] == 32
    assert doc["seed"] == 8
    assert doc["spectral_radius"] == loop._check_stable(trap, cfg)
    assert 0.0 < doc["spectral_radius"] <= 1.0
    assert doc["traj_events"] == 32 * 40
    assert set(doc) >= {"gamma", "sigma0", "zeta0", "K", "seed", "spectral_radius",
                        "traj_events"}


def test_kraus_backend_agrees_with_gaussian_filter():
    # needs a moderate sigma0: a hard measurement squeezes the conditional
    # state until its momentum tail leaves any reachable orbital basis
    trap = trap_for(1)
    basis = fock.OrbitalBasis(mode_count=28, trap=trap)
    gen = oracle.build_generator(
        trap, FeedbackConfig(shift_rate=0.0, meas_resolution=math.inf), basis.mode_count)
    state = fock.condensate_state(fock.displaced_orbital(basis, 0.4), 1)
    rho = oracle.DensityMatrix.from_state(state).matrix
    (mean,), (cov,) = moments.project_collective(moments.init_moments(state, basis))
    filt = pair_state(mean, cov)

    sigma0, zeta0, dt = 2.5, 0.05, 0.05
    x_hat, p_hat = gen.x_hat.toarray(), gen.p_hat.toarray()
    kraus = helpers.KrausSector(x_hat, p_hat)
    phases = np.exp(-1j * gen.h_diag * dt / trap.hbar)
    rng = np.random.default_rng(31)
    for _ in range(40):
        rho = (phases[:, None] * rho) * phases.conj()[None, :]
        filt, x_m = event(filt, rng.normal(), sigma0, zeta0=zeta0, dt=dt)
        rho = kraus.measure(rho, x_m, sigma0)
        rho = kraus.kick(rho, x_m, zeta0, trap.hbar)

        mean_x = float(np.trace(x_hat @ rho).real)
        mean_p = float(np.trace(p_hat @ rho).real)
        var_x = float(np.trace(x_hat @ x_hat @ rho).real) - mean_x**2
        var_p = float(np.trace(p_hat @ p_hat @ rho).real) - mean_p**2
        assert mean_x == pytest.approx(filt.x, abs=1e-7)
        assert mean_p == pytest.approx(filt.p, abs=1e-7)
        assert var_x == pytest.approx(filt.xx, abs=1e-7)
        assert var_p == pytest.approx(filt.pp, abs=1e-7)
