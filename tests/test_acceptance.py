"""End-to-end acceptance gate: twelve numbered properties, one test line each.

Every test pins its tolerance inline and runs on the public API only.  The
deviation-rate claim (a04b) is a documented expected failure: the measured
contraction rate of the cloud-size deviation is the full damping rate, twice
the mean-envelope rate, so the claimed value cannot be reproduced; the sup
bound of the asymptotic law (a04a) holds regardless.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import helpers
from cloudfeedback import criteria, driver, fock, loop, moments, oracle, search
from cloudfeedback.scales import (FeedbackConfig, TrapConfig, classify_regime,
                                  derive_scales)


def feedback_for_eta(trap, eta, zeta):
    dx0_sq = trap.hbar / (2.0 * trap.atom_count * trap.mass * trap.trap_freq)
    return FeedbackConfig(shift_rate=zeta,
                          meas_resolution=math.sqrt(dx0_sq / (zeta * eta)))


def clean_random_state(rng, n, m, headroom=1):
    occs = fock.occupations(n, m)
    amps = np.zeros(len(occs), dtype=complex)
    live = [i for i, occ in enumerate(occs)
            if all(occ[m - 1 - k] == 0 for k in range(headroom))]
    vals = helpers.random_fock_amplitudes(rng, len(live))
    for i, v in zip(live, vals):
        amps[i] = v
    return fock.state_from_amplitudes(n, m, amps)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = driver.cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def envelope_rate(ts, mean_x, mean_v, zeta, omega=1.0):
    # friction acts on position, so x(t) = e^{-zeta t/2}(a cos + b sin) and
    # v + (zeta/2)x ... the exact envelope uses v - (zeta/2)x with v = p/m
    om = omega * math.sqrt(1.0 - (zeta / (2.0 * omega)) ** 2)
    e_sq = mean_x**2 + ((mean_v - 0.5 * zeta * mean_x) / om) ** 2
    slope = np.polyfit(ts, 0.5 * np.log(e_sq), 1)[0]
    return -slope


def test_a01_stationary_cm_noise_matches_lyapunov():
    """Lyapunov fixed point equals the closed-form DXs, rel 1e-10, and the
    minimum over eta sits at eta = 1 with value dX0."""
    zeta = 0.8
    for n in (1, 2, 5, 40, 1000):
        trap = TrapConfig(atom_count=n)
        for eta in np.geomspace(0.04, 25.0, 5):
            fb = feedback_for_eta(trap, float(eta), zeta)
            s = derive_scales(trap, fb)
            g = moments.build_generators(trap, fb)
            assert moments.stationary_cm(g) == pytest.approx(s.DXs, rel=1e-10)
        s1 = derive_scales(trap, feedback_for_eta(trap, 1.0, zeta))
        assert s1.DXs == pytest.approx(s1.dX0, rel=1e-12)
        for eta in (0.9, 1.1):
            off = derive_scales(trap, feedback_for_eta(trap, eta, zeta))
            assert off.DXs > s1.DXs


def test_a02_mean_damping_rate_is_half_zeta():
    """Fitted envelope decay of <X>(t) equals zeta/2 within 2 percent, from
    the moment flow and from the dense integrator, N = 1 and 2."""
    zeta = 0.1
    t_end = 6.0 * math.pi
    target = zeta / 2.0
    for n in (1, 2):
        trap = TrapConfig(atom_count=n)
        fb = feedback_for_eta(trap, 1.0, zeta)

        g = moments.build_generators(trap, fb)
        b4 = fock.OrbitalBasis(mode_count=4, trap=trap)
        ground = fock.condensate_state(np.eye(4, dtype=complex)[0], n)
        m0 = moments.init_moments(ground, b4)
        mean = m0.mean.copy()
        mean[0] = 1.0
        if n > 1:
            mean[2] = 1.0
        m0 = moments.JointMoments(mean=mean, cov=m0.cov, n=n)
        ts = np.linspace(0.0, t_end, 121)
        xs, vs = [], []
        for t in ts:
            mt = moments.evolve(m0, g, float(t))
            cm = mt.mean[0] if n == 1 else (mt.mean[0] + mt.mean[2]) / 2.0
            xs.append(cm)
            vs.append(mt.mean[1] / trap.mass)
        rate = envelope_rate(ts, np.array(xs), np.array(vs), zeta)
        assert rate == pytest.approx(target, rel=0.02)

        b12 = fock.OrbitalBasis(mode_count=12, trap=trap)
        st = fock.condensate_state(fock.displaced_orbital(b12, 0.8), n)
        gen = oracle.build_generator(trap, fb, b12)
        traj = oracle.integrate(oracle.DensityMatrix.from_state(st, b12),
                                gen, t_end)
        xs = np.array([j.mean[0] if n == 1 else (j.mean[0] + j.mean[2]) / 2.0
                       for j in traj.joint])
        vs = np.array([j.mean[1] / trap.mass for j in traj.joint])
        rate = envelope_rate(np.array(traj.times), xs, vs, zeta)
        assert rate == pytest.approx(target, rel=0.02)


def test_a03_oracle_matches_moment_flow():
    """Dense integrator vs moment flow over three trap periods: 1e-6 for one
    atom, 1e-5 for two (ground condensate, NOON+, one-one)."""
    zeta = 0.2
    grid = np.linspace(0.0, 6.0 * math.pi, 16)

    trap1 = TrapConfig(atom_count=1)
    b1 = fock.OrbitalBasis(mode_count=12, trap=trap1)
    ground1 = fock.condensate_state(np.eye(12, dtype=complex)[0], 1)
    dev = oracle.compare_with_moments(ground1, trap1,
                                      feedback_for_eta(trap1, 1.0, zeta),
                                      grid, b1)
    assert dev["mean"] < 1e-6 and dev["cov"] < 1e-6

    trap2 = TrapConfig(atom_count=2)
    b2 = fock.OrbitalBasis(mode_count=12, trap=trap2)
    fb2 = feedback_for_eta(trap2, 1.0, zeta)
    amp = 1.0 / math.sqrt(2.0)
    starts = [
        fock.condensate_state(np.eye(12, dtype=complex)[0], 2),
        fock.FockState(n=2, m=12, amp={(2,) + (0,) * 11: amp,
                                       (0, 2) + (0,) * 10: amp}),
        fock.basis_state((1, 1) + (0,) * 10),
    ]
    for st in starts:
        dev = oracle.compare_with_moments(st, trap2, fb2, grid, b2)
        assert dev["mean"] < 1e-5 and dev["cov"] < 1e-5


def test_a04a_asymptotic_law_sup_bound():
    """After twelve damping times the cloud size follows
    sqrt(DXs^2 + sigma_q^2(t)) to better than 1e-3 dx0."""
    rng = np.random.default_rng(41)
    zeta = 0.5
    trap = TrapConfig(atom_count=2)
    fb = feedback_for_eta(trap, 1.0, zeta)
    s = derive_scales(trap, fb)
    g = moments.build_generators(trap, fb)
    t0 = 12.0 / zeta
    for _ in range(3):
        b = fock.OrbitalBasis(mode_count=5, trap=trap)
        st = clean_random_state(rng, 2, 5)
        m0 = moments.init_moments(st, b)
        h = criteria.quadrature_harmonics(st, b)
        worst = 0.0
        for t in np.linspace(t0, t0 + math.pi, 60):
            dx = moments.cloud_size(moments.evolve(m0, g, float(t)))
            dxa = criteria.asymptotic_cloud_size(s, h, float(t))
            worst = max(worst, abs(dx - dxa))
        assert worst < 1e-3 * s.dx0


@pytest.mark.xfail(
    strict=True,
    reason="the cloud-size deviation contracts at the covariance relaxation "
    "rate zeta, twice the claimed mean-envelope rate zeta/2; the sup bound "
    "above holds, the rate claim does not",
)
def test_a04b_deviation_rate_claim():
    """Claimed: the decay rate of |dx(t) - dxa(t)| fits zeta/2 within 5
    percent.  Measured: it fits zeta."""
    rng = np.random.default_rng(42)
    zeta = 0.5
    trap = TrapConfig(atom_count=2)
    fb = feedback_for_eta(trap, 1.0, zeta)
    s = derive_scales(trap, fb)
    g = moments.build_generators(trap, fb)
    b = fock.OrbitalBasis(mode_count=5, trap=trap)
    st = clean_random_state(rng, 2, 5)
    m0 = moments.init_moments(st, b)
    h = criteria.quadrature_harmonics(st, b)
    ts = np.arange(6.0 / zeta, 12.0 / zeta, 0.02)
    dev = np.array([
        abs(moments.cloud_size(moments.evolve(m0, g, float(t)))
            - criteria.asymptotic_cloud_size(s, h, float(t)))
        for t in ts
    ])
    peaks = [(ts[i], dev[i]) for i in range(1, len(ts) - 1)
             if dev[i] > dev[i - 1] and dev[i] >= dev[i + 1]]
    pt = np.array([p[0] for p in peaks])
    pv = np.array([p[1] for p in peaks])
    rate = -np.polyfit(pt, np.log(pv), 1)[0]
    assert rate == pytest.approx(zeta / 2.0, rel=0.05)


def test_a05_identity_residual_vanishes():
    """sigma_q^2 minus (one-body spread squared minus cm spread squared)
    vanishes to 1e-12 on 50 random states at 5 times."""
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(3, 6))
        trap = TrapConfig(atom_count=n)
        b = fock.OrbitalBasis(mode_count=m, trap=trap)
        st = clean_random_state(rng, n, m)
        for t in (0.0, 0.37, 1.1, 2.0, 4.9):
            _, _, residual = criteria.schwarz_identity_check(st, b, t)
            assert abs(residual) < 1e-12


def test_a06_fixed_n_positivity():
    """min over t of sigma_q^2 stays above -1e-10 for 500 random fixed-N
    states (N <= 4, M <= 6) and for every converged fixed-N search result.

    No fixed-N pure state has ever produced a negative minimum here; the
    scheme's quantumness test needs a state this family appears not to
    contain, and that empirical finding is asserted rather than hidden.
    """
    rng = np.random.default_rng(78)
    for _ in range(500):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(2, 7))
        trap = TrapConfig(atom_count=n)
        b = fock.OrbitalBasis(mode_count=m + 1, trap=trap)
        st = clean_random_state(rng, n, m + 1)
        assert criteria.quadrature_harmonics(st, b).minimum() >= -1e-10

    trap = TrapConfig(atom_count=2)
    spec = search.SearchSpec(n=2, m=3, family="fixed_N_pure", restarts=6,
                             seed=3)
    _, best, report = search.search_state(spec, trap)
    assert best >= -1e-8
    for row in report["rows"]:
        if row["converged"]:
            assert row["final_value"] >= -1e-8


def test_a07_closed_form_spot_values():
    """sigma_q^2(0) = 0.25 for the two-atom ground condensate, NOON+ and
    one-one, and 0.75 for NOON-, against first-quantized brute force, 1e-12."""
    trap = TrapConfig(atom_count=2)
    b = fock.OrbitalBasis(mode_count=4, trap=trap)
    amp = 1.0 / math.sqrt(2.0)
    cases = [
        (fock.condensate_state(np.eye(4, dtype=complex)[0], 2), 0.25),
        (fock.FockState(n=2, m=4, amp={(2, 0, 0, 0): amp,
                                       (0, 2, 0, 0): amp}), 0.25),
        (fock.basis_state((1, 1, 0, 0)), 0.25),
        (fock.FockState(n=2, m=4, amp={(2, 0, 0, 0): amp,
                                       (0, 2, 0, 0): -amp}), 0.75),
    ]
    q = fock.quadrature_matrix(b, 0.0).matrix
    q2 = fock.quadrature_sq_matrix(b, 0.0).matrix
    for st, exact in cases:
        assert criteria.sigma_q_sq(st, b, 0.0) == pytest.approx(exact,
                                                                abs=1e-12)
        brute = (helpers.oracle_expectation(st, [q2]).real / 2.0
                 - helpers.oracle_expectation(st, [q, q]).real / 4.0)
        assert brute == pytest.approx(exact, abs=1e-12)


def test_a08_regime_boundaries():
    """classify_regime agrees with the direct DXs vs dx0 comparison on 1e4
    random points; at eta = N + sqrt(N^2-1) the two scales coincide to
    1e-10; the two-atom threshold ordering flips between eta 1 and 4."""
    rng = np.random.default_rng(8)
    zeta = 0.6
    for _ in range(10_000):
        n = int(10 ** rng.uniform(0.0, 6.0))
        eta = float(10 ** rng.uniform(-4.0, 4.0))
        trap = TrapConfig(atom_count=n)
        s = derive_scales(trap, feedback_for_eta(trap, eta, zeta))
        kind = classify_regime(n, eta).kind.value
        if kind == "boundary":
            assert abs(s.DXs - s.dx0) <= 1e-9 * s.dx0
        elif kind == "qs_threshold_above":
            assert s.DXs < s.dx0
        else:
            assert s.DXs > s.dx0

    for n in (1, 2, 3, 10, 100, 10_000):
        trap = TrapConfig(atom_count=n)
        root = math.sqrt(float(n) ** 2 - 1.0)
        for eta_edge in (n + root, 1.0 / (n + root)):
            s = derive_scales(trap, feedback_for_eta(trap, eta_edge, zeta))
            assert abs(s.DXs - s.dx0) <= 1e-10 * s.dx0

    trap = TrapConfig(atom_count=2)
    low = derive_scales(trap, feedback_for_eta(trap, 1.0, zeta))
    high = derive_scales(trap, feedback_for_eta(trap, 4.0, zeta))
    assert low.DXs == pytest.approx(0.5, abs=1e-12)
    assert low.DXs <= low.dx0
    assert high.DXs == pytest.approx(0.7288689868556626, rel=1e-12)
    assert high.DXs > high.dx0


def test_a09_discrete_loop_converges_to_continuum():
    """With sigma0 = sigma sqrt(gamma) and zeta0 = zeta/gamma the stationary
    Var(X) approaches DXs^2; the residual is the exact O(1/gamma) map bias
    plus at most 3 sigma of sampling noise (K = 1e4)."""
    n = 2
    zeta = 0.5
    trap = TrapConfig(atom_count=n)
    fb = feedback_for_eta(trap, 1.0, zeta)
    sigma = fb.meas_resolution
    target = derive_scales(trap, fb).DXs ** 2

    b = fock.OrbitalBasis(mode_count=4, trap=trap)
    init = moments.init_moments(
        fock.condensate_state(np.eye(4, dtype=complex)[0], n), b)
    kk = 10_000
    noise = 3.0 * math.sqrt(2.0 / kk) * target

    errs = []
    scaled_biases = []
    for gamma in (25.0, 50.0, 100.0, 200.0):
        cfg = loop.LoopConfig(gamma=gamma, sigma0=sigma * math.sqrt(gamma),
                              zeta0=zeta / gamma, trajectories=kk,
                              rng_seed=11)
        # records land after measure-kick-backaction, where the fixed point sits
        var_rec = float(loop.stationary_discrete(trap, cfg)[0, 0])
        bias = abs(var_rec - target)
        scaled_biases.append(gamma * bias)

        traj = loop.run_ensemble(init, cfg, trap, 24.0,
                                 record_stride=max(1, round(gamma * 0.4)))
        late = traj.times >= 16.0
        mc = float(np.mean(traj.var_X[late]))
        assert abs(mc - var_rec) <= noise
        err = abs(mc - target)
        assert err <= bias + noise
        errs.append(err)

    assert max(scaled_biases) <= 1.3 * min(scaled_biases)
    assert errs[-1] < errs[0]


def test_a10_breathing_at_twice_trap_frequency():
    """Late-time cloud size oscillates at 2 omega: the spectrum peaks at the
    2 omega bin, and the per-period amplitude is constant to 1e-6 dx0^2."""
    zeta = 0.5
    n = 2
    trap = TrapConfig(atom_count=n)
    fb = feedback_for_eta(trap, 1.0, zeta)
    s = derive_scales(trap, fb)
    b = fock.OrbitalBasis(mode_count=10, trap=trap)
    st = fock.condensate_state(fock.squeezed_orbital(b, 0.4), n)
    m0 = moments.init_moments(st, b)
    g = moments.build_generators(trap, fb)

    periods = 5
    per = 64
    base = moments.evolve(m0, g, 32.0)
    dt = 2.0 * math.pi / per
    npts = per * periods
    ts = 32.0 + np.arange(npts) * dt
    vals = np.empty(npts)
    cur = base
    for i in range(npts):
        vals[i] = moments.cloud_size(cur) ** 2
        cur = moments.evolve(cur, g, dt)

    spectrum = np.abs(np.fft.rfft(vals - vals.mean()))
    peak = int(np.argmax(spectrum[1:]) + 1)
    assert abs(peak - 2 * periods) <= 1

    amps = []
    for k in range(periods):
        sl = slice(k * per, (k + 1) * per)
        a = np.stack([np.ones(per), np.cos(2.0 * ts[sl]),
                      np.sin(2.0 * ts[sl])], axis=1)
        coef, *_ = np.linalg.lstsq(a, vals[sl], rcond=None)
        amps.append(math.hypot(coef[1], coef[2]))
    assert np.max(np.abs(np.array(amps) - np.mean(amps))) <= 1e-6 * s.dx0**2


def test_a11_pair_marginals_and_classical_schwarz():
    """Pair-distribution marginals reproduce the density profile to 1e-6;
    the classical inequality holds on 1000 random intensities."""
    grid = np.linspace(-8.0, 8.0, 161)
    rng = np.random.default_rng(31)
    for n, m in ((2, 5), (3, 4)):
        trap = TrapConfig(atom_count=n)
        b = fock.OrbitalBasis(mode_count=m, trap=trap)
        st = clean_random_state(rng, n, m, headroom=2)
        pd = fock.pair_distribution(st, grid, b)
        marginal = np.trapezoid(pd, grid, axis=1)
        profile = fock.density_profile(fock.one_body_density(st), grid, b)
        assert np.max(np.abs(marginal - profile)) < 1e-6

    qgrid = np.linspace(-5.0, 5.0, 101)
    for _ in range(1000):
        intensity = rng.uniform(0.0, 1.0, size=qgrid.shape)
        q = rng.standard_normal(qgrid.shape)
        lhs, rhs, ok = criteria.classical_schwarz_check(intensity, q, qgrid)
        assert ok
        assert lhs <= rhs + 1e-10


def test_a12_seeded_runs_are_byte_identical(tmp_path):
    """loop, scan and search artifacts are byte-identical across reruns of
    the same seeded invocation."""
    runs = {
        "loop": ({"n": 1, "gamma": 100.0, "sigma0": 5.0, "zeta0": 0.002,
                  "task": {"name": "loop", "t_max": 1.0, "trajectories": 256}},
                 ["--seed", "7"]),
        "scan": ({"n": 2, "zeta": 1.0, "sigma": 0.5, "task": {"name": "scan"}},
                 []),
        "search": ({"n": 2,
                    "task": {"name": "search", "family": "fixed_N_pure", "m": 3,
                             "restarts": 3}},
                   ["--seed", "5"]),
    }
    for name, (doc, extra) in runs.items():
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc))
        blobs = []
        for rerun in range(2):
            out = tmp_path / f"{name}{rerun}.csv"
            code, _, _ = run_cli([name, "--config", str(cfg), *extra,
                                  "--out", str(out)])
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], name
