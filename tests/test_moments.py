import math

import numpy as np
import pytest

import helpers
from cloudfeedback import criteria, fock, moments
from cloudfeedback.errors import ConfigError, SingularLyapunov, StepRejected
from cloudfeedback.scales import FeedbackConfig, TrapConfig, derive_scales


def feedback_for_eta(trap, eta, zeta=1.0):
    dx0_sq = trap.hbar / (2 * trap.atom_count * trap.mass * trap.trap_freq)
    return FeedbackConfig(shift_rate=zeta, meas_resolution=math.sqrt(dx0_sq / (zeta * eta)))


def clean_random_state(rng, n, m):
    occs = fock.occupations(n, m)
    amps = np.zeros(len(occs), dtype=complex)
    live = [i for i, occ in enumerate(occs) if occ[m - 1] == 0]
    vals = helpers.random_fock_amplitudes(rng, len(live))
    for i, v in zip(live, vals):
        amps[i] = v
    return fock.state_from_amplitudes(n, m, amps)


# ---------------------------------------------------------------------------
# generator


def test_generator_shapes():
    fb = FeedbackConfig(shift_rate=0.5, meas_resolution=1.0)
    g1 = moments.build_generators(TrapConfig(atom_count=1), fb)
    assert g1.A.shape == (2, 2) and g1.D.shape == (2, 2)
    g3 = moments.build_generators(TrapConfig(atom_count=3), fb)
    assert g3.A.shape == (4, 4) and g3.D.shape == (4, 4)
    assert np.allclose(g3.D, g3.D.T)
    assert np.linalg.eigvalsh(g3.D).min() >= -1e-15


def test_drift_entries():
    trap = TrapConfig(atom_count=4, mass=1.3, trap_freq=0.9)
    zeta, sigma = 0.37, 0.8
    g = moments.build_generators(trap, FeedbackConfig(shift_rate=zeta, meas_resolution=sigma))
    n, m, w = 4, 1.3, 0.9
    want = np.array(
        [
            [-zeta / n, 1 / m, -zeta * (n - 1) / n, 0.0],
            [-m * w**2, 0.0, 0.0, 0.0],
            [-zeta / n, 0.0, -zeta * (n - 1) / n, 1 / ((n - 1) * m)],
            [0.0, 0.0, -(n - 1) * m * w**2, 0.0],
        ]
    )
    assert np.allclose(g.A, want, atol=1e-15)
    # noise rates (entering as 2D): correlated kicks on positions,
    # collective-weighted back-action on momenta
    two_d = 2 * g.D
    kick = zeta**2 * sigma**2
    back = 1.0 / (4 * sigma**2)
    assert two_d[0, 0] == pytest.approx(kick)
    assert two_d[0, 2] == pytest.approx(kick)
    assert two_d[2, 2] == pytest.approx(kick)
    assert two_d[1, 1] == pytest.approx(back / n**2)
    assert two_d[1, 3] == pytest.approx(back * (n - 1) / n**2)
    assert two_d[3, 3] == pytest.approx(back * (n - 1) ** 2 / n**2)
    assert two_d[0, 1] == 0.0 and two_d[2, 3] == 0.0


@pytest.mark.parametrize("n", [1, 3])
def test_drift_of_a_trap_whose_omega_squared_overflows(n):
    # m omega^2 = 1e300 is in the float range, omega^2 = 1e600 is not: the
    # spring is formed as (m omega) omega there, where it raised OverflowError
    trap = TrapConfig(atom_count=n, mass=1e-300, trap_freq=1e300)
    g = moments.build_generators(trap, FeedbackConfig(shift_rate=0.5, meas_resolution=0.7))
    assert np.all(np.isfinite(g.A))
    assert g.A[1, 0] == pytest.approx(-1e300, rel=1e-12)
    if n > 1:
        assert g.A[3, 2] == pytest.approx(-(n - 1) * 1e300, rel=1e-12)


def test_drift_spectrum_damped():
    for zeta in (0.0, 0.2, 1.5):
        g = moments.build_generators(
            TrapConfig(atom_count=3), FeedbackConfig(shift_rate=zeta, meas_resolution=1.0)
        )
        assert np.real(np.linalg.eigvals(g.A)).max() <= 1e-12


def test_collective_contraction():
    trap = TrapConfig(atom_count=5, mass=0.7, trap_freq=1.4)
    zeta, sigma = 0.6, 1.1
    g = moments.build_generators(trap, FeedbackConfig(shift_rate=zeta, meas_resolution=sigma))
    c, s = moments._collective_maps(5)
    assert np.allclose(c @ s, np.eye(2))
    # invariance: C A = A_c C makes A_c independent of the section choice
    a_c = c @ g.A @ s
    assert np.allclose(c @ g.A, a_c @ c, atol=1e-14)
    n, m, w = 5, 0.7, 1.4
    assert np.allclose(a_c, [[-zeta, 1 / (n * m)], [-n * m * w**2, 0.0]], atol=1e-14)
    d_c = 2 * (c @ g.D @ c.T)
    assert d_c[0, 0] == pytest.approx(zeta**2 * sigma**2)
    assert d_c[1, 1] == pytest.approx(1.0 / (4 * sigma**2))
    assert abs(d_c[0, 1]) < 1e-15
    lam = np.linalg.eigvals(a_c)
    want = -zeta / 2 + 1j * math.sqrt((n * 0 + w**2) - zeta**2 / 4)
    assert sorted(lam.imag) == pytest.approx(sorted([-want.imag, want.imag]))
    assert lam.real == pytest.approx([-zeta / 2, -zeta / 2])


def test_feedback_off_is_pure_rotation():
    g = moments.build_generators(
        TrapConfig(atom_count=2), FeedbackConfig(shift_rate=0.0, meas_resolution=math.inf)
    )
    assert np.allclose(g.D, 0.0)
    assert np.allclose(g.A[0], [0.0, 1.0, 0.0, 0.0])
    assert np.allclose(np.real(np.linalg.eigvals(g.A)), 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# initial moments


def test_init_ground_condensate():
    for n in (2, 3):
        trap = TrapConfig(atom_count=n)
        b = fock.OrbitalBasis(mode_count=4, trap=trap)
        orb = np.zeros(4)
        orb[0] = 1.0
        m0 = moments.init_moments(fock.condensate_state(orb, n), b)
        assert np.allclose(m0.mean, 0.0, atol=1e-14)
        assert m0.cov[0][0, 0] == pytest.approx(0.5)
        _, cov_c = moments.project_collective(m0)
        assert cov_c[0][0, 0] == pytest.approx(0.5 / n, abs=1e-14)
        assert cov_c[0][1, 1] == pytest.approx(n / 2, abs=1e-13)


def test_init_displaced_condensate():
    trap = TrapConfig(atom_count=3)
    b = fock.OrbitalBasis(mode_count=16, trap=trap)
    st = fock.condensate_state(fock.displaced_orbital(b, 0.35), 3)
    m0 = moments.init_moments(st, b)
    assert m0.mean[0][0] == pytest.approx(0.35, abs=1e-10)
    assert m0.mean[0][2] == pytest.approx(0.35, abs=1e-10)
    assert m0.mean[0][1] == pytest.approx(0.0, abs=1e-10)
    assert m0.mean[0][3] == pytest.approx(0.0, abs=1e-10)


def test_init_single_atom_reduction():
    rng = np.random.default_rng(3)
    trap = TrapConfig(atom_count=1)
    b = fock.OrbitalBasis(mode_count=5, trap=trap)
    st = clean_random_state(rng, 1, 5)
    m0 = moments.init_moments(st, b)
    rho = fock.one_body_density(st).matrix
    x = fock.position_matrix(b).matrix
    p = fock.momentum_matrix(b).matrix
    mx = np.trace(x @ rho).real
    mp = np.trace(p @ rho).real
    assert m0.mean[0] == pytest.approx([mx, mp])
    assert m0.cov[0][0, 0] == pytest.approx(
        np.trace(fock.position_sq_matrix(b).matrix @ rho).real - mx**2
    )
    assert m0.cov[0][0, 1] == pytest.approx(np.trace(fock.sym_xp_matrix(b).matrix @ rho).real - mx * mp)


def test_init_moments_against_first_quantized():
    rng = np.random.default_rng(77)
    n, mm = 3, 4
    trap = TrapConfig(atom_count=n)
    b = fock.OrbitalBasis(mode_count=mm, trap=trap)
    x = fock.position_matrix(b).matrix
    p = fock.momentum_matrix(b).matrix
    for _ in range(4):
        st = clean_random_state(rng, n, mm)
        got = moments.init_moments(st, b)
        vec = helpers.product_vector(st)
        ops = [
            helpers.single_atom_operator(x, 0, n),
            helpers.single_atom_operator(p, 0, n),
            sum(helpers.single_atom_operator(x, k, n) for k in range(1, n)) / (n - 1),
            sum(helpers.single_atom_operator(p, k, n) for k in range(1, n)),
        ]
        mean = np.array([np.vdot(vec, o @ vec).real for o in ops])
        cov = np.empty((4, 4))
        for i in range(4):
            for j in range(4):
                sym = 0.5 * (ops[i] @ ops[j] + ops[j] @ ops[i])
                cov[i, j] = np.vdot(vec, sym @ vec).real - mean[i] * mean[j]
        assert np.allclose(got.mean[0], mean, atol=1e-12)
        assert np.allclose(got.cov[0], cov, atol=1e-12)


# ---------------------------------------------------------------------------
# evolution


def test_evolve_t0_identity():
    rng = np.random.default_rng(15)
    trap = TrapConfig(atom_count=2)
    b = fock.OrbitalBasis(mode_count=5, trap=trap)
    st = clean_random_state(rng, 2, 5)
    m0 = moments.init_moments(st, b)
    g = moments.build_generators(trap, FeedbackConfig(shift_rate=0.4, meas_resolution=0.9))
    m1 = moments.evolve_grid(m0, g, [0.0])
    assert np.allclose(m1.mean, m0.mean)
    assert np.allclose(m1.cov, m0.cov, atol=1e-14)


def test_evolve_pure_rotation_is_periodic():
    rng = np.random.default_rng(21)
    trap = TrapConfig(atom_count=2)
    b = fock.OrbitalBasis(mode_count=5, trap=trap)
    st = clean_random_state(rng, 2, 5)
    m0 = moments.init_moments(st, b)
    g = moments.build_generators(trap, FeedbackConfig(shift_rate=0.0, meas_resolution=math.inf))
    for k in (1, 3):
        mt = moments.evolve_grid(m0, g, [k * math.pi])
        assert abs(mt.cov[0][0, 0] - m0.cov[0][0, 0]) < 1e-10


def test_evolve_mean_envelope_rate():
    trap = TrapConfig(atom_count=2)
    zeta = 0.1
    b = fock.OrbitalBasis(mode_count=12, trap=trap)
    st = fock.condensate_state(fock.displaced_orbital(b, 0.4), 2)
    m0 = moments.init_moments(st, b)
    g = moments.build_generators(trap, feedback_for_eta(trap, 1.0, zeta=zeta))
    ts = np.arange(0.0, 60.0, 0.01)
    xs = []
    f = None
    import scipy.linalg

    f_step = scipy.linalg.expm(g.A * 0.01)
    mean = m0.mean[0].copy()
    c, _ = moments._collective_maps(2)
    for _ in ts:
        xs.append((c @ mean)[0])
        mean = f_step @ mean
    xs = np.abs(np.array(xs))
    peaks = [
        (ts[i], xs[i]) for i in range(1, len(ts) - 1) if xs[i] > xs[i - 1] and xs[i] >= xs[i + 1]
    ]
    tp = np.array([t for t, _ in peaks[1:-1]])
    vp = np.log([v for _, v in peaks[1:-1]])
    slope = np.polyfit(tp, vp, 1)[0]
    assert slope == pytest.approx(-zeta / 2, rel=0.01)


def test_evolve_closed_and_rk4_agree():
    rng = np.random.default_rng(33)
    trap = TrapConfig(atom_count=2)
    b = fock.OrbitalBasis(mode_count=5, trap=trap)
    st = clean_random_state(rng, 2, 5)
    m0 = moments.init_moments(st, b)
    g = moments.build_generators(trap, FeedbackConfig(shift_rate=0.4, meas_resolution=0.8))
    a = moments.evolve_grid(m0, g, [7.3])
    bb = helpers.rk4_evolve(m0, g, 7.3)
    scale = max(1.0, np.max(np.abs(a.cov)))
    assert np.max(np.abs(a.cov - bb.cov)) / scale < 1e-8
    assert np.max(np.abs(a.mean - bb.mean)) < 1e-8
    with pytest.raises(ConfigError):
        moments.evolve_grid(m0, g, [-1.0])


def test_covariance_psd_along_trajectory():
    rng = np.random.default_rng(41)
    trap = TrapConfig(atom_count=3)
    b = fock.OrbitalBasis(mode_count=5, trap=trap)
    st = clean_random_state(rng, 3, 5)
    m0 = moments.init_moments(st, b)
    g = moments.build_generators(trap, feedback_for_eta(trap, 0.5, zeta=0.7))
    for t in np.linspace(0, 30, 40):
        mt = moments.evolve_grid(m0, g, [t])
        scale = max(1.0, np.max(np.abs(np.diag(mt.cov[0]))))
        assert np.linalg.eigvalsh(mt.cov[0]).min() >= -1e-10 * scale


def _condensate_flow(n, kind, zeta=0.5, sigma=0.7):
    trap = TrapConfig(atom_count=n)
    b = fock.OrbitalBasis(mode_count=12, trap=trap)
    orbital = {"ground": np.eye(12)[0], "displaced": fock.displaced_orbital(b, 0.3),
               "squeezed": fock.squeezed_orbital(b, 0.3)}[kind]
    m0 = moments.init_moments(fock.condensate_state(orbital, n), b)
    return m0, moments.build_generators(trap, FeedbackConfig(zeta, sigma))


def _assert_instants_bitwise(grid, m0, g, times, instants):
    for k in instants:
        one = moments.evolve_grid(m0, g, [float(times[k])])
        assert np.array_equal(grid.mean[k], one.mean[0]), k
        assert np.array_equal(grid.cov[k], one.cov[0]), k


@pytest.mark.parametrize("kind", ["ground", "displaced", "squeezed"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_evolve_grid_equals_one_instant_calls_bit_for_bit(monkeypatch, n, kind):
    m0, g = _condensate_flow(n, kind)
    # a short chunk, so that this grid of 2 chunks + 3 crosses two edges
    monkeypatch.setattr(moments, "_CHUNK", 4)
    times = np.linspace(0.0, 9.0, 2 * 4 + 3)
    grid = moments.evolve_grid(m0, g, times)
    dim = 2 if n == 1 else 4
    assert grid.mean.shape == (len(times), dim) and grid.cov.shape == (len(times), dim, dim)
    _assert_instants_bitwise(grid, m0, g, times, range(len(times)))
    assert np.array_equal(grid.mean[0], m0.mean[0])  # t = 0 is the identity
    assert (grid.psd_clips, grid.psd_clip_min) == (0, 0.0)


def test_evolve_grid_crosses_its_chunk_edges_bit_for_bit(monkeypatch):
    m0, g = _condensate_flow(2, "displaced")
    chunk = moments._CHUNK
    times = np.linspace(0.0, 20.0, 2 * chunk + 3)
    grid = moments.evolve_grid(m0, g, times)
    edges = [0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk - 1, 2 * chunk, 2 * chunk + 2]
    _assert_instants_bitwise(grid, m0, g, times, edges)
    # and every instant equals one stacked pass over the whole grid
    monkeypatch.setattr(moments, "_CHUNK", len(times))
    whole = moments.evolve_grid(m0, g, times)
    assert np.array_equal(grid.mean, whole.mean) and np.array_equal(grid.cov, whole.cov)


def test_evolve_grid_counts_the_psd_clips_of_a_singular_covariance():
    # a rank-1 covariance under a pure rotation: rounding leaves its zero
    # eigenvalue slightly negative at some instants, which the check clips
    trap = TrapConfig(atom_count=1)
    m0 = moments.checked_grid(1, np.zeros(2)[None], np.full((2, 2), 0.5)[None])
    g = moments.build_generators(trap, FeedbackConfig(shift_rate=0.0, meas_resolution=math.inf))
    times = np.linspace(0.0, 10.0, 200)
    grid = moments.evolve_grid(m0, g, times)
    assert 0 < grid.psd_clips < len(times)
    assert -1e-15 < grid.psd_clip_min < 0.0
    _assert_instants_bitwise(grid, m0, g, times, range(len(times)))
    assert np.linalg.eigvalsh(grid.cov).min() >= -1e-15


def test_evolve_grid_refuses_at_its_first_failing_instant():
    m0, g = _condensate_flow(2, "displaced")
    # the symmetry defect of t = 100 is reported ahead of the overflow of t = 1e5
    for t in (100.0, 1e5):
        with pytest.raises(StepRejected) as one:
            moments.evolve_grid(m0, g, [t])
        with pytest.raises(StepRejected) as grid:
            moments.evolve_grid(m0, g, [0.0, t])
        assert str(grid.value) == str(one.value)
    with pytest.raises(StepRejected, match="not symmetric"):
        moments.evolve_grid(m0, g, [0.0, 100.0, 1e5])
    with pytest.raises(StepRejected, match="non-finite"):
        moments.evolve_grid(m0, g, [0.0, 1e5, 100.0])
    with pytest.raises(ConfigError, match="t must be >= 0, got -1.0"):
        moments.evolve_grid(m0, g, [0.0, 1.0, -1.0])


def test_evolve_grid_refuses_a_start_that_is_not_one_instant_of_its_moments():
    m0, g = _condensate_flow(2, "displaced")
    _, g1 = _condensate_flow(1, "displaced")
    # two instants; four moments against one atom's two, with n wrong and right
    for start, gen in [(moments.evolve_grid(m0, g, [0.0, 1.0]), g), (m0, g1),
                       (m0._replace(n=1), g1)]:
        with pytest.raises(ConfigError, match="a start must be one instant"):
            moments.evolve_grid(start, gen, [0.0])


@pytest.mark.parametrize("times", [[math.nan], [math.inf], [0.0, math.nan]],
                         ids=["nan", "inf", "zero-nan"])
def test_non_finite_instants_are_refused_as_config_errors(times):
    m0, g = _condensate_flow(2, "displaced")
    shown = repr(times[-1])
    with pytest.raises(ConfigError, match=f"t must be finite, got {shown}"):
        moments.evolve_grid(m0, g, times)
    with pytest.raises(ConfigError, match=f"t must be finite, got {shown}"):
        moments.evolve_grid(m0, g, [times[-1]])


def test_collective_projection_of_a_grid_matches_each_instant():
    m0, g = _condensate_flow(3, "squeezed")
    grid = moments.evolve_grid(m0, g, np.linspace(0.0, 5.0, 17))
    mean, cov = moments.project_collective(grid)
    assert mean.shape == (17, 2) and cov.shape == (17, 2, 2)
    c, _ = moments._collective_maps(3)
    for k in range(17):
        one = moments.checked_grid(3, grid.mean[k][None], grid.cov[k][None])
        (mean_k,), (cov_k,) = moments.project_collective(one)
        # one instant keeps the bits of its contraction
        assert (np.array_equal(mean_k, c @ one.mean[0])
                and np.array_equal(cov_k, c @ one.cov[0] @ c.T))
        assert np.max(np.abs(mean[k] - mean_k)) <= 1e-15
        assert np.max(np.abs(cov[k] - cov_k)) <= 1e-15


def test_checked_grid_stops_at_the_first_failing_slice():
    good = np.diag([1.0, 2.0])
    skew = np.array([[1.0, 0.5], [0.0, 1.0]])
    nan = np.full((2, 2), np.nan)
    low = np.diag([1.0, -1.0])
    for covs, text in [([good, skew, nan], "not symmetric"), ([good, good, nan, skew], "non-finite"),
                       ([low, nan], "below the PSD floor")]:
        with pytest.raises(StepRejected, match=text):
            moments.checked_grid(1, np.zeros((len(covs), 2)), np.stack(covs))
    grid = moments.checked_grid(1, np.zeros((2, 2)), np.stack([good, good]))
    assert np.array_equal(grid.cov, [good, good]) and (grid.psd_clips, grid.psd_clip_min) == (0, 0.0)


# ---------------------------------------------------------------------------
# cloud size and stationary spread


def test_cloud_size_ground():
    for n in (1, 2, 5):
        trap = TrapConfig(atom_count=n)
        b = fock.OrbitalBasis(mode_count=3, trap=trap)
        orb = np.zeros(3)
        orb[0] = 1.0
        m0 = moments.init_moments(fock.condensate_state(orb, n), b)
        assert moments.cloud_size(m0)[0] == pytest.approx(math.sqrt(0.5), rel=1e-12)


def test_cloud_size_single_atom_settles_to_stationary():
    trap = TrapConfig(atom_count=1)
    fb = feedback_for_eta(trap, 2.0, zeta=0.8)
    scales = derive_scales(trap, fb)
    b = fock.OrbitalBasis(mode_count=3, trap=trap)
    orb = np.zeros(3)
    orb[0] = 1.0
    m0 = moments.init_moments(fock.condensate_state(orb, 1), b)
    g = moments.build_generators(trap, fb)
    late = moments.evolve_grid(m0, g, [40.0 / 0.8])
    assert moments.cloud_size(late)[0] == pytest.approx(scales.DXs, rel=1e-8)


def test_stationary_cm_matches_closed_form_grid():
    for eta in (0.1, 0.5, 1.0, 2.0, 10.0):
        for n in (1, 2, 3, 10, 100):
            trap = TrapConfig(atom_count=n)
            fb = feedback_for_eta(trap, eta)
            want = derive_scales(trap, fb).DXs
            got = helpers.stationary_cm(moments.build_generators(trap, fb))
            assert got == pytest.approx(want, rel=1e-10)


def test_stationary_cm_frozen_example():
    trap = TrapConfig(atom_count=1)
    fb = FeedbackConfig(shift_rate=1.0, meas_resolution=math.sqrt(2.0))
    scales = derive_scales(trap, fb)
    assert scales.eta == pytest.approx(0.25)
    got = helpers.stationary_cm(moments.build_generators(trap, fb))
    assert got == pytest.approx(1.0307764064044151, rel=1e-12)
    assert got == pytest.approx(scales.DXs, rel=1e-12)


def test_stationary_cm_requires_damping():
    g = moments.build_generators(
        TrapConfig(atom_count=2), FeedbackConfig(shift_rate=0.0, meas_resolution=1.0)
    )
    with pytest.raises(SingularLyapunov):
        helpers.stationary_cm(g)


# ---------------------------------------------------------------------------
# asymptotic behavior against the criteria layer


def test_cloud_size_approaches_asymptotic_law():
    rng = np.random.default_rng(6)
    n = 2
    trap = TrapConfig(atom_count=n)
    zeta = 0.5
    fb = feedback_for_eta(trap, 1.0, zeta=zeta)
    scales = derive_scales(trap, fb)
    b = fock.OrbitalBasis(mode_count=5, trap=trap)
    st = clean_random_state(rng, n, 5)
    m0 = moments.init_moments(st, b)
    g = moments.build_generators(trap, fb)
    h = criteria.quadrature_harmonics(st, b)
    t0 = 12.0 / zeta
    worst = 0.0
    for t in np.linspace(t0, t0 + math.pi, 60):
        dx = moments.cloud_size(moments.evolve_grid(m0, g, [t]))[0]
        dxa = criteria.asymptotic_cloud_size(scales, h, t)
        worst = max(worst, abs(dx - dxa))
    assert worst < 1e-3 * scales.dx0


def test_collective_relative_cross_block_vanishes():
    # exchange symmetry makes Cov(T_x, x_1) = Cov(T_x, Xbar), so the
    # collective and tagged-relative sectors start uncorrelated; the drift is
    # block-diagonal in those sectors, so they stay uncorrelated forever
    rng = np.random.default_rng(64)
    for n, mm in [(2, 5), (3, 4)]:
        trap = TrapConfig(atom_count=n)
        b = fock.OrbitalBasis(mode_count=mm, trap=trap)
        st = clean_random_state(rng, n, mm)
        m0 = moments.init_moments(st, b)
        c, _ = moments._collective_maps(n)
        r = np.array([[1.0, 0, -1.0, 0], [0, 1.0, 0, -1.0 / (n - 1)]])
        assert np.max(np.abs(c @ m0.cov[0] @ r.T)) < 1e-12
        g = moments.build_generators(trap, feedback_for_eta(trap, 0.7, zeta=0.4))
        mt = moments.evolve_grid(m0, g, [11.0])
        assert np.max(np.abs(c @ mt.cov[0] @ r.T)) < 1e-10


def test_deviation_decays_at_zeta():
    # the deviation from the asymptotic law lives entirely in the collective
    # variance (the cross block above is identically zero and the relative
    # sector matches the asymptotic term exactly), so its envelope decays at
    # the covariance rate zeta, twice the amplitude rate zeta/2
    rng = np.random.default_rng(106)
    n = 2
    trap = TrapConfig(atom_count=n)
    zeta = 0.5
    fb = feedback_for_eta(trap, 1.0, zeta=zeta)
    scales = derive_scales(trap, fb)
    b = fock.OrbitalBasis(mode_count=5, trap=trap)
    st = clean_random_state(rng, n, 5)
    m0 = moments.init_moments(st, b)
    g = moments.build_generators(trap, fb)
    h = criteria.quadrature_harmonics(st, b)
    ts = np.arange(6.0 / zeta, 12.0 / zeta, 0.02)
    dev = np.array(
        [
            abs(
                moments.cloud_size(moments.evolve_grid(m0, g, [t]))[0]
                - criteria.asymptotic_cloud_size(scales, h, t)
            )
            for t in ts
        ]
    )
    peaks = [
        (ts[i], dev[i])
        for i in range(1, len(ts) - 1)
        if dev[i] > dev[i - 1] and dev[i] >= dev[i + 1]
    ]
    tp = np.array([t for t, _ in peaks])
    vp = np.log([v for _, v in peaks])
    slope = np.polyfit(tp, vp, 1)[0]
    assert slope == pytest.approx(-zeta, rel=0.05)


def test_breathing_amplitude_survives_feedback():
    rng = np.random.default_rng(58)
    n = 2
    trap = TrapConfig(atom_count=n)
    zeta = 0.5
    fb = feedback_for_eta(trap, 1.0, zeta=zeta)
    b = fock.OrbitalBasis(mode_count=5, trap=trap)
    st = clean_random_state(rng, n, 5)
    m0 = moments.init_moments(st, b)
    g = moments.build_generators(trap, fb)

    def amplitude(t0):
        s0 = moments.evolve_grid(m0, g, [t0]).cov[0][0, 0]
        s90 = moments.evolve_grid(m0, g, [t0 + math.pi / 2]).cov[0][0, 0]
        s45 = moments.evolve_grid(m0, g, [t0 + math.pi / 4]).cov[0][0, 0]
        a = 0.5 * (s0 + s90)
        return math.hypot(0.5 * (s0 - s90), s45 - a)

    t0 = 24.0
    amps = [amplitude(t0 + 5 * k * math.pi) for k in range(3)]
    assert max(amps) - min(amps) < 1e-6
    assert amps[0] > 1e-4  # a breathing state, not the trivial zero