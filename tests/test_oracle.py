import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.linalg

from cloudfeedback import fock, moments, oracle
from cloudfeedback.errors import (
    BUDGETS,
    ConfigError,
    DimensionTooLarge,
    PositivityLoss,
    StepRejected,
    TruncationLeak,
)
from cloudfeedback.scales import FeedbackConfig, TrapConfig, derive_scales

from helpers import (
    _full_apply,
    plant_covariance_eigenvalue,
    random_fock_amplitudes,
    reference_integrate,
)


def trap_for(n):
    return TrapConfig(atom_count=n, mass=1.0, trap_freq=1.0, hbar=1.0)


def feedback_for_eta(trap, eta, zeta):
    scale = trap.hbar / (2.0 * trap.atom_count * trap.mass * trap.trap_freq)
    return FeedbackConfig(shift_rate=zeta, meas_resolution=math.sqrt(scale / (zeta * eta)))


def no_feedback():
    return FeedbackConfig(shift_rate=0.0, meas_resolution=math.inf)


def test_sector_operators_match_one_body_at_n1():
    basis = fock.OrbitalBasis(mode_count=6, trap=trap_for(1))
    occs = fock.occupations(1, 6)
    orb = np.argmax(occs, axis=1)
    for build in (fock.position_matrix, fock.momentum_matrix, fock.position_sq_matrix):
        one_body = build(basis).matrix
        sector = fock.sector_operator(basis, 1, one_body)
        expected = one_body[np.ix_(orb, orb)]
        assert np.max(np.abs(sector - expected)) < 1e-14


def test_commutator_is_i_hbar_on_interior():
    for n in (1, 2):
        trap = trap_for(n)
        basis = fock.OrbitalBasis(mode_count=7, trap=trap)
        gen = oracle.build_generator(trap, no_feedback(), basis.mode_count)
        comm = (gen.x_hat @ gen.p_hat - gen.p_hat @ gen.x_hat).toarray()
        occs = fock.occupations(n, 7)
        interior = [i for i, occ in enumerate(occs) if occ[-1] == 0]
        block = comm[np.ix_(interior, interior)]
        assert np.max(np.abs(block - 1j * trap.hbar * np.eye(len(interior)))) < 1e-13
        # the defect operator is diagonal, so no interior/exterior mixing
        exterior = [i for i, occ in enumerate(occs) if occ[-1] > 0]
        assert np.max(np.abs(comm[np.ix_(interior, exterior)])) < 1e-13


def test_generator_preserves_trace_on_random_hermitian():
    trap = trap_for(2)
    basis = fock.OrbitalBasis(mode_count=5, trap=trap)
    gen = oracle.build_generator(trap, feedback_for_eta(trap, 0.7, zeta=0.4), basis.mode_count)
    dim = fock.sector_dimension(2, 5)
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = 0.5 * (g + g.conj().T)
        h /= np.max(np.abs(h))
        assert abs(np.trace(gen.apply(h))) < 1e-12


def test_generator_is_sum_of_terms():
    trap = trap_for(2)
    basis = fock.OrbitalBasis(mode_count=5, trap=trap)
    fb = feedback_for_eta(trap, 1.3, zeta=0.3)
    rng = np.random.default_rng(3)
    dim = fock.sector_dimension(2, 5)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (g + g.conj().T)
    full = oracle.build_generator(trap, fb, basis.mode_count).apply(h)
    parts = sum(
        oracle.build_generator(trap, fb, basis.mode_count, terms=(term,)).apply(h)
        for term in ("hamiltonian", "friction", "measurement", "noise")
    )
    assert np.max(np.abs(full - parts)) < 1e-13


def test_coefficients_degrade_gracefully():
    trap = trap_for(1)
    basis = fock.OrbitalBasis(mode_count=4, trap=trap)
    gen = oracle.build_generator(trap, no_feedback(), basis.mode_count)
    coefficients = oracle._coefficients(gen.basis.trap, gen.fb)
    assert coefficients["friction"] == 0.0
    assert coefficients["measurement"] == 0.0
    assert coefficients["noise"] == 0.0
    # feedback without a finite resolution has infinite kick noise: refused
    with pytest.raises(ConfigError, match="sigma = inf only with zeta = 0"):
        FeedbackConfig(shift_rate=0.5, meas_resolution=math.inf)


def test_build_generator_guards():
    trap = trap_for(2)
    # N = 4 over eleven orbitals is a 1001-state sector: one over the cap
    with pytest.raises(DimensionTooLarge,
                       match=re.escape("(n=4, m=11) sector: 1001 states, over the budget of 1000")):
        oracle.build_generator(trap_for(4), feedback_for_eta(trap_for(4), 1.0, zeta=0.2), 11)
    with pytest.raises(DimensionTooLarge):
        oracle.build_generator(trap, no_feedback(), 150)
    with pytest.raises(ConfigError):
        oracle.build_generator(trap, no_feedback(), 5, terms=("hamiltonian", "drift"))
    gen = oracle.build_generator(trap, no_feedback(), 5)
    rho = oracle.DensityMatrix.from_state(fock.basis_state((2, 0, 0, 0, 0)))
    with pytest.raises(ConfigError):
        oracle.step_times(trap, 1.0, dt=2.0 * math.pi / 400.0)
    with pytest.raises(ConfigError):
        oracle.step_times(trap, 1.0, dt=0.0)
    with pytest.raises(ConfigError):
        oracle.step_times(trap, -1.0)
    # the clock is budgeted before it is allocated
    with pytest.raises(ConfigError, match="budget"):
        oracle.step_times(trap, 1e9)
    # times is an array of instants, never a scalar t_max
    with pytest.raises(ConfigError):
        oracle.integrate(rho, gen, 1.0)


def test_step_counts_are_budgeted_as_floats():
    # t_max / dt is inf for a subnormal dt: refused, where ceil() and round()
    # of it raised OverflowError; the count prints in %.6g, not in full
    trap = trap_for(1)
    for t_max, dt in ((0.01, 5e-324), (1e300, None)):
        with pytest.raises(ConfigError, match="budget") as info:
            oracle.step_times(trap, t_max, dt)
        assert not re.search(r"\d{10}", str(info.value))
    dt = 2 * math.pi / 1000
    cap = BUDGETS["steps"].cap
    assert len(oracle.step_times(trap, cap * dt, dt)) == cap + 1
    with pytest.raises(ConfigError, match="budget"):
        oracle.step_times(trap, (cap + 1) * dt, dt)


def test_density_matrix_validation():
    dim = fock.sector_dimension(2, 3)
    with pytest.raises(ConfigError):
        skew = np.zeros((dim, dim), dtype=complex)
        skew[0, 1] = 1.0
        skew[0, 0] = 1.0
        oracle.DensityMatrix(matrix=skew, n=2, m=3)
    with pytest.raises(ConfigError):
        oracle.DensityMatrix(matrix=0.5 * np.eye(dim), n=2, m=3)
    noon = fock.state_from_amplitudes(
        2, 3, np.array([0.0, 0.0, 1 / math.sqrt(2), 0.0, 0.0, -1 / math.sqrt(2)])
    )
    rho = oracle.DensityMatrix.from_state(noon)
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-14
    assert np.min(np.linalg.eigvalsh(rho.matrix)) > -1e-14


def test_density_matrix_refuses_a_sector_of_no_counts():
    # checked before math.comb, which raises a bare ValueError or TypeError on them
    for n, m in ((-1, 3), (2.5, 3), (math.nan, 3), (2, 2.5), (2, 0)):
        with pytest.raises(ConfigError, match="integer counts"):
            oracle.DensityMatrix(np.eye(6) / 6, n, m)
    assert oracle.DensityMatrix(np.eye(6) / 6, np.int64(2), 3).n == 2


def test_density_matrix_from_thermal_ensemble():
    trap = trap_for(2)
    basis = fock.OrbitalBasis(mode_count=6, trap=trap)
    ens = fock.thermal_ensemble(basis, temperature=0.8, n=2, energy_cutoff=9.0)
    rho = oracle.DensityMatrix.from_state(ens)
    evals = np.linalg.eigvalsh(rho.matrix)
    assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12
    assert evals.min() > -1e-14
    # mixed, not pure
    assert np.sum(evals**2) < 0.999


def test_unitary_limit_oscillates_and_conserves_energy():
    trap = trap_for(2)
    basis = fock.OrbitalBasis(mode_count=8, trap=trap)
    gen = oracle.build_generator(trap, no_feedback(), basis.mode_count)
    state = fock.condensate_state(fock.displaced_orbital(basis, 0.3), 2)
    traj = oracle.integrate(
        oracle.DensityMatrix.from_state(state), gen,
        oracle.step_times(trap, 3 * 2 * math.pi)
    )
    mean_x = moments.project_collective(traj.moments)[0][:, 0]
    expected = mean_x[0] * np.cos(trap.trap_freq * traj.times)
    assert np.max(np.abs(mean_x - expected)) < 1e-8
    assert np.max(traj.trace_err) < 1e-12

    energies = []
    rho = oracle.DensityMatrix.from_state(state).matrix
    for _ in range(6):
        t = oracle.integrate(oracle.DensityMatrix(rho, 2, 8), gen,
                             oracle.step_times(trap, math.pi, 2 * math.pi / 1000))
        rho = t.final
        energies.append(float(np.sum(gen.h_diag * np.diag(rho).real)))
    spread = max(energies) - min(energies)
    assert spread < 1e-8 * abs(energies[0])


def test_propagator_matches_dense_expm_and_trace_stays_put():
    trap = trap_for(1)
    fb = feedback_for_eta(trap, 1.0, zeta=0.4)
    basis = fock.OrbitalBasis(mode_count=10, trap=trap)
    gen = oracle.build_generator(trap, fb, basis.mode_count)
    state = fock.condensate_state(fock.displaced_orbital(basis, 0.4), 1)
    rho0 = oracle.DensityMatrix.from_state(state)
    t_end = 2 * math.pi
    # L as a dense matrix on the row-major vec(rho): column k is L(E_k)
    dim = len(gen.h_diag)
    units = np.eye(dim * dim, dtype=complex).reshape(dim * dim, dim, dim)
    dense = np.array([gen.apply(unit).ravel() for unit in units]).T
    want = scipy.linalg.expm(t_end * dense) @ rho0.matrix.ravel()

    # one jump to t_end, and the thousand steps of the default clock
    for times in (np.array([0.0, t_end]), oracle.step_times(trap, t_end)):
        traj = oracle.integrate(rho0, gen, times)
        assert traj.times[-1] == t_end
        assert np.max(np.abs(traj.final.ravel() - want)) < 1e-10
        assert np.max(traj.trace_err) < 1e-8


def test_superoperator_matches_dense_master_equation():
    rng = np.random.default_rng(5)
    # the small sectors apply dense stacks, N = 3 over six orbitals sparse ones
    for n, m in ((1, 7), (2, 5), (3, 4), (3, 6)):
        trap = trap_for(n)
        fb = feedback_for_eta(trap, 0.7, zeta=0.4)
        basis = fock.OrbitalBasis(mode_count=m, trap=trap)
        gen = oracle.build_generator(trap, fb, basis.mode_count)
        x = fock.sector_operator(basis, n, fock.position_matrix(basis).matrix) / n
        p = fock.sector_operator(basis, n, fock.momentum_matrix(basis).matrix)
        h = np.diag(fock.occupation_energies(fock.occupations(n, m), trap))
        hbar, zeta, sigma = trap.hbar, fb.shift_rate, fb.meas_resolution

        def comm(a, b):
            return a @ b - b @ a

        dim = len(h)
        for _ in range(3):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = 0.5 * (g + g.conj().T)
            rho /= np.max(np.abs(rho))
            want = (-1j / hbar * comm(h, rho)
                    + 1j * zeta / (2 * hbar) * comm(p, x @ rho + rho @ x)
                    - comm(x, comm(x, rho)) / (8 * sigma**2)
                    - zeta**2 * sigma**2 / (2 * hbar**2) * comm(p, comm(p, rho)))
            assert np.max(np.abs(gen.apply(rho) - want)) < 1e-13


@pytest.mark.parametrize("n, m", [(2, 6), (3, 6), (4, 5), (2, 10), (3, 8)])
def test_generator_conserves_excitation_parity(n, m):
    # X and P move E by one and H leaves it, so no rounding leaks across:
    # even entries stay even and odd ones odd, to the last bit
    trap = trap_for(n)
    basis = fock.OrbitalBasis(mode_count=m, trap=trap)
    fb = feedback_for_eta(trap, 0.7, zeta=0.4)
    # the entries where E - E' is odd, E = sum_i i n_i the excitation of a basis state
    excitation = fock.occupations(n, m) @ np.arange(m)
    odd = excitation[:, None] % 2 != excitation % 2
    rng = np.random.default_rng(10 * n + m)
    g = rng.normal(size=odd.shape) + 1j * rng.normal(size=odd.shape)
    rho = 0.5 * (g + g.conj().T)
    # the full generator, and the Hamiltonian alone, whose stacks hold one part
    for gen in (oracle.build_generator(trap, fb, basis.mode_count),
                oracle.build_generator(trap, fb, basis.mode_count, terms=("hamiltonian",))):
        for kept in (~odd, odd):
            out = gen.apply(np.where(kept, rho, 0.0))
            assert np.all(out[~kept] == 0.0)
            assert np.all(np.isfinite(out)) and np.any(out[kept] != 0.0)
        blocks, even = gen.blocks, np.where(~odd, rho, 0.0)
        if len(blocks.classes) == 2:
            # the even entries pack as one half, rho with its odd ones as two
            assert 2 * blocks.pack(even).shape[1] == blocks.pack(rho).shape[1]
            assert np.array_equal(blocks.unpack(blocks.apply(blocks.pack(even))),
                                  gen.apply(even))
        else:
            assert blocks.pack(even) is even and blocks.pack(rho) is rho
        # one kernel for both parities, to the bit of the full product
        out = blocks.unpack(blocks.apply(blocks.pack(rho)))
        assert np.array_equal(out, gen.apply(rho))
        assert np.array_equal(out, _full_apply(gen.stacks, rho))


def _start(basis, n, start):
    m = basis.mode_count
    if start == "ground":
        return fock.condensate_state(np.eye(m, dtype=complex)[0], n)
    if start == "displaced":
        return fock.condensate_state(fock.displaced_orbital(basis, 0.2), n)
    if start == "squeezed":
        return fock.condensate_state(fock.squeezed_orbital(basis, 0.3), n)
    if start == "thermal":
        return fock.thermal_ensemble(basis, temperature=0.35, n=n, energy_cutoff=0.5 * n + 3.0)
    if start == "noon":
        amps = np.zeros(fock.sector_dimension(n, m), dtype=complex)
        occs = fock.occupations(n, m).tolist()
        amps[occs.index([n] + [0] * (m - 1))] = 1 / math.sqrt(2)
        amps[occs.index([0, n] + [0] * (m - 2))] = -1 / math.sqrt(2)
        return fock.state_from_amplitudes(n, m, amps)
    return fock.basis_state(start + (0,) * (m - len(start)))


@pytest.mark.parametrize("n, m, start", [
    (2, 10, "ground"), (3, 6, "ground"), (4, 5, "ground"), (3, 6, (2, 1)),
    (2, 10, "noon"), (2, 10, "thermal"), (2, 10, "squeezed"), (3, 6, "displaced"),
    (2, 10, "displaced"), (2, 16, "displaced"), (2, 8, "ground"),
], ids=["n2-ground", "n3-ground", "n4-ground", "n3-fock", "n2-noon", "n2-thermal",
        "n2-squeezed", "n3-displaced", "n2-displaced", "n2-m16-displaced", "n2-dense"])
def test_parity_blocks_reproduce_the_full_rho_to_the_bit(n, m, start):
    trap = trap_for(n)
    basis = fock.OrbitalBasis(mode_count=m, trap=trap)
    gen = oracle.build_generator(trap, feedback_for_eta(trap, 0.8, zeta=0.3), basis.mode_count)
    rho0 = oracle.DensityMatrix.from_state(_start(basis, n, start))
    # the Fock row and the squeezed condensate reach the top orbital by t = 1
    times = oracle.step_times(trap, 0.6)[::10]
    traj = oracle.integrate(rho0, gen, times)
    want = reference_integrate(rho0, gen, times)
    # a displaced condensate carries its odd half too, and the dense stacks
    # of N = 2 over eight orbitals propagate rho itself
    assert traj.sectors == (2 if start == "displaced" or m == 8 else 1)
    for f in dataclasses.fields(traj):
        got, ref = getattr(traj, f.name), getattr(want, f.name)
        if f.name == "moments":
            assert all(np.array_equal(a, b) for a, b in zip(got, ref, strict=True))
        elif f.name != "sectors":
            assert np.array_equal(got, ref), f.name


@pytest.mark.parametrize("n, m", [(1, 12), (2, 10)])
def test_integrate_leaves_rho0_unchanged(n, m):
    # the Taylor sums run in place: on the dense stacks of N = 1 over twelve
    # orbitals the packed rho is rho0.matrix itself, which is never written;
    # the first instant is past 0, so rho0 is propagated as it was packed
    trap = trap_for(n)
    basis = fock.OrbitalBasis(mode_count=m, trap=trap)
    gen = oracle.build_generator(trap, feedback_for_eta(trap, 0.8, zeta=0.3), basis.mode_count)
    rho0 = oracle.DensityMatrix.from_state(_start(basis, n, "displaced"))
    before = rho0.matrix.copy()
    assert (gen.blocks.pack(rho0.matrix) is rho0.matrix) == (n == 1)
    traj = oracle.integrate(rho0, gen, oracle.step_times(trap, 0.3)[10::10])
    assert not np.array_equal(traj.final, before)
    assert np.array_equal(rho0.matrix, before)


def _spied(monkeypatch, owner, name):
    """The argument tuples of every call of owner.name from here on."""
    calls, real = [], getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_integrate_checks_its_moments_once_as_one_grid(monkeypatch):
    trap = trap_for(2)
    basis = fock.OrbitalBasis(mode_count=6, trap=trap)
    gen = oracle.build_generator(trap, feedback_for_eta(trap, 0.8, zeta=0.3), basis.mode_count)
    state = fock.condensate_state(fock.displaced_orbital(basis, 0.3), 2)
    rho0 = oracle.DensityMatrix.from_state(state)
    times = oracle.step_times(trap, 0.5)[::10]
    checks = _spied(monkeypatch, oracle, "checked_grid")
    traj = oracle.integrate(rho0, gen, times)
    assert len(checks) == 1 and checks[0][2].shape == (len(times), 4, 4)
    grid = traj.moments
    assert isinstance(grid, moments.MomentGrid) and grid.n == 2
    assert grid.mean.shape == (len(times), 4) and (grid.psd_clips, grid.psd_clip_min) == (0, 0.0)
    assert not {"joint", "mean_X", "var_X", "dx"} & {f.name for f in dataclasses.fields(traj)}


def test_integrate_refuses_its_moments_as_numerics_after_the_last_instant(monkeypatch):
    trap = trap_for(1)
    basis = fock.OrbitalBasis(mode_count=4, trap=trap)
    rho = oracle.DensityMatrix.from_state(fock.basis_state((1, 0, 0, 0)))
    plant_covariance_eigenvalue(monkeypatch, 1, -1.0)
    gen = oracle.build_generator(trap, feedback_for_eta(trap, 0.8, zeta=0.3), basis.mode_count)
    with pytest.raises(StepRejected, match="below the PSD floor"):
        oracle.integrate(rho, gen, oracle.step_times(trap, 0.1))
    # the moments are checked once every instant is formed: a leak wins over
    # the covariance planted at every instant before it
    gen = oracle.build_generator(trap, FeedbackConfig(shift_rate=0.0, meas_resolution=0.1),
                                 basis.mode_count)
    with pytest.raises(TruncationLeak):
        oracle.integrate(rho, gen, oracle.step_times(trap, 4 * 2 * math.pi))


def test_integrate_takes_a_density_matrix_of_its_sector_only():
    trap = trap_for(2)
    basis = fock.OrbitalBasis(mode_count=10, trap=trap)
    gen = oracle.build_generator(trap, feedback_for_eta(trap, 0.8, zeta=0.3), basis.mode_count)
    times = oracle.step_times(trap, 0.1)
    # a bare eye(55) of trace 55 read as a leak, and eye(3) / 3 raised IndexError
    for bare in (np.eye(55), np.eye(3) / 3):
        with pytest.raises(ConfigError, match="DensityMatrix"):
            oracle.integrate(bare, gen, times)
    # another sector: N = 2 over six orbitals, and N = 1 over 55 of the same d
    for rho in (oracle.DensityMatrix(np.eye(21) / 21, 2, 6),
                oracle.DensityMatrix(np.eye(55) / 55, 1, 55)):
        with pytest.raises(ConfigError, match="sector"):
            oracle.integrate(rho, gen, times)


def test_instants_asked_for_match_the_full_clock():
    trap = trap_for(2)
    fb = feedback_for_eta(trap, 0.8, zeta=0.3)
    basis = fock.OrbitalBasis(mode_count=6, trap=trap)
    gen = oracle.build_generator(trap, fb, basis.mode_count)
    state = fock.condensate_state(fock.displaced_orbital(basis, 0.3), 2)
    rho0 = oracle.DensityMatrix.from_state(state)
    clock = oracle.step_times(trap, 1.0)
    # the last step is cut short to land on t_max
    assert len(clock) == 161 and clock[-1] == 1.0
    assert clock[-2] == pytest.approx(159 * 2 * math.pi / 1000, rel=1e-14)
    full = oracle.integrate(rho0, gen, clock)
    sparse = oracle.integrate(rho0, gen, clock[::25])
    assert np.array_equal(sparse.times, full.times[::25])
    assert sparse.times[-1] == pytest.approx(150 * 2 * math.pi / 1000, rel=1e-14)
    assert np.max(np.abs(sparse.moments.cov - full.moments.cov[::25])) < 1e-12
    assert np.max(np.abs(sparse.moments.mean - full.moments.mean[::25])) < 1e-12
    with pytest.raises(ConfigError):
        oracle.integrate(rho0, gen, np.array([0.0, 0.5, 0.4]))
    with pytest.raises(ConfigError):
        oracle.integrate(rho0, gen, np.array([-0.1, 0.5]))
    with pytest.raises(ConfigError):
        oracle.step_times(trap, math.inf)


def test_friction_only_leaves_relative_sector_alone():
    # short window: without the Hamiltonian the friction term squeezes the
    # cm without bound, so long runs would hit the truncation monitor
    zeta = 0.5
    trap = trap_for(2)
    # c_f = zeta / 2 hbar does not read sigma
    fb = FeedbackConfig(shift_rate=zeta, meas_resolution=0.7)
    basis = fock.OrbitalBasis(mode_count=12, trap=trap)
    gen = oracle.build_generator(trap, fb, basis.mode_count, terms=("friction",))
    t_x, t_p, t_x2, t_p2, t_sxp = (
        fock.sector_operator(basis, 2, build(basis).matrix)
        for build in (fock.position_matrix, fock.momentum_matrix, fock.position_sq_matrix,
                      fock.momentum_sq_matrix, fock.sym_xp_matrix))
    r_sq = 2.0 * t_x2 - t_x @ t_x
    pr_sq = (2.0 * t_p2 - t_p @ t_p) / 4.0
    cross = 0.5 * (t_x @ t_p + t_p @ t_x) - t_sxp
    r_pr = 0.5 * (t_sxp - cross)
    watch = {"r2": r_sq, "pr2": pr_sq, "rpr": r_pr, "r4": r_sq @ r_sq}

    state = fock.condensate_state(fock.displaced_orbital(basis, 0.4), 2)
    rho = oracle.DensityMatrix.from_state(state).matrix
    start = {k: np.trace(m @ rho).real for k, m in watch.items()}
    x0 = float(np.trace(gen.x_hat @ rho).real)

    # stepped by hand: the bare friction term is not completely positive
    # (pure-state zero eigenvalues dip negative right away), so integrate's
    # positivity monitor would fire even though the claims below are exact
    h = 2 * math.pi / 1000
    steps = 100
    for k in range(steps):
        k1 = gen.apply(rho)
        k2 = gen.apply(rho + 0.5 * h * k1)
        k3 = gen.apply(rho + 0.5 * h * k2)
        k4 = gen.apply(rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        if k % 20 == 0:
            for name, m in watch.items():
                assert np.trace(m @ rho).real == pytest.approx(start[name], abs=1e-6)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    for name, m in watch.items():
        assert np.trace(m @ rho).real == pytest.approx(start[name], abs=1e-6)
    # the cm, by contrast, is dragged toward the measured origin at rate zeta
    x_end = float(np.trace(gen.x_hat @ rho).real)
    assert x_end == pytest.approx(x0 * math.exp(-zeta * steps * h), rel=1e-3)


def test_n1_cloud_settles_to_asymptotic_size():
    trap = trap_for(1)
    fb = feedback_for_eta(trap, 1.0, zeta=1.0)
    basis = fock.OrbitalBasis(mode_count=14, trap=trap)
    gen = oracle.build_generator(trap, fb, basis.mode_count)
    state = fock.condensate_state(fock.displaced_orbital(basis, 0.5), 1)
    traj = oracle.integrate(
        oracle.DensityMatrix.from_state(state), gen,
        oracle.step_times(trap, 12.0, 2 * math.pi / 500)
    )
    target = derive_scales(trap, fb).DXs
    assert abs(moments.cloud_size(traj.moments)[-1] - target) < 1e-3


def test_mean_damping_rate_is_half_zeta():
    zeta = 0.1
    trap = trap_for(1)
    fb = feedback_for_eta(trap, 1.0, zeta=zeta)
    basis = fock.OrbitalBasis(mode_count=10, trap=trap)
    gen = oracle.build_generator(trap, fb, basis.mode_count)
    state = fock.condensate_state(fock.displaced_orbital(basis, 0.5), 1)
    traj = oracle.integrate(
        oracle.DensityMatrix.from_state(state), gen,
        oracle.step_times(trap, 10 * 2 * math.pi, 2 * math.pi / 500),
    )
    x = moments.project_collective(traj.moments)[0][:, 0]
    peaks = [
        i for i in range(1, len(x) - 1)
        if abs(x[i]) >= abs(x[i - 1]) and abs(x[i]) > abs(x[i + 1]) and abs(x[i]) > 1e-3
    ]
    t_pk = traj.times[peaks]
    slope = np.polyfit(t_pk, np.log(np.abs(x[peaks])), 1)[0]
    assert slope == pytest.approx(-zeta / 2.0, rel=0.02)


def test_compare_with_moments_n1_random_orbital():
    trap = trap_for(1)
    fb = feedback_for_eta(trap, 1.0, zeta=0.2)
    rng = np.random.default_rng(20)
    vec = np.zeros(12, dtype=complex)
    vec[:4] = random_fock_amplitudes(rng, 4)
    state = fock.condensate_state(vec, 1)
    t_grid = np.linspace(0.0, 3 * 2 * math.pi, 10)
    dev = oracle.compare_with_moments(state, trap, fb, t_grid)
    assert dev["mean"] < 1e-6
    assert dev["cov"] < 1e-6
    for bad in ([], [0.0, math.nan], [0.0, math.inf], [-0.5, 1.0]):
        with pytest.raises(ConfigError, match="t_grid"):
            oracle.compare_with_moments(state, trap, fb, np.array(bad))


def test_compare_with_moments_runs_both_paths_at_the_grids_own_instants():
    # an off-clock, unsorted grid with a repeated instant: both paths run at
    # np.unique of it, so the deviations are those of integrate and
    # evolve_grid there, to the bit
    trap = trap_for(1)
    fb = feedback_for_eta(trap, 1.0, zeta=0.2)
    basis = fock.OrbitalBasis(mode_count=10, trap=trap)
    state = fock.condensate_state(fock.displaced_orbital(basis, 0.3), 1)
    grid = np.array([1.0, 0.1234, 0.0, 1.0])
    times = np.unique(grid)
    exact = oracle.integrate(oracle.DensityMatrix.from_state(state),
                             oracle.build_generator(trap, fb, basis.mode_count), times).moments
    gauss = moments.evolve_grid(moments.init_moments(state, basis),
                                moments.build_generators(trap, fb), times)
    dev = oracle.compare_with_moments(state, trap, fb, grid)
    assert dev == {"mean": float(np.max(np.abs(exact.mean - gauss.mean))),
                   "cov": float(np.max(np.abs(exact.cov - gauss.cov)))}
    assert 0.0 < dev["mean"] < 1e-6 and 0.0 < dev["cov"] < 1e-6


def test_compare_with_moments_takes_the_orbitals_of_its_one_trap():
    # the oracle and the moment flow read one trap: the orbitals of a
    # unit-frequency trap beside this one put the covariance gap at 0.57
    trap = TrapConfig(atom_count=2, mass=1.0, trap_freq=1.5, hbar=1.0)
    fb = feedback_for_eta(trap, 0.8, zeta=0.3)
    state = fock.condensate_state(np.eye(8, dtype=complex)[0], 2)
    dev = oracle.compare_with_moments(state, trap, fb, np.array([0.0, 0.5, 1.0]))
    assert dev["mean"] < 1e-6 and dev["cov"] < 1e-6
    assert oracle.build_generator(trap, fb, 8).basis == fock.OrbitalBasis(mode_count=8, trap=trap)


def test_compare_with_moments_takes_a_state_of_a_numpy_orbital_count():
    # the orbitals come from the state's m, which a caller may give as a NumPy integer
    trap = trap_for(2)
    amps = np.zeros(fock.sector_dimension(2, 6))
    amps[-1] = 1.0  # (2, 0, 0, 0, 0, 0), the last row
    state = fock.state_from_amplitudes(2, np.int64(6), amps)
    dev = oracle.compare_with_moments(state, trap, feedback_for_eta(trap, 0.8, zeta=0.3),
                                      np.array([0.0, 0.5]))
    assert dev["mean"] < 1e-6 and dev["cov"] < 1e-6


def test_compare_with_moments_n2_condensate_cloud_size():
    trap = trap_for(2)
    fb = feedback_for_eta(trap, 0.8, zeta=0.3)
    ground = np.zeros(8, dtype=complex)
    ground[0] = 1.0
    state = fock.condensate_state(ground, 2)
    t_grid = np.linspace(0.0, 2 * 2 * math.pi, 9)
    dev = oracle.compare_with_moments(state, trap, fb, t_grid)
    assert dev["mean"] < 1e-5
    assert dev["cov"] < 1e-5


def test_compare_with_moments_n2_noon_collective_variance():
    trap = trap_for(2)
    fb = feedback_for_eta(trap, 1.0, zeta=0.25)
    basis = fock.OrbitalBasis(mode_count=8, trap=trap)
    amps = np.zeros(fock.sector_dimension(2, 8), dtype=complex)
    occs = fock.occupations(2, 8).tolist()
    amps[occs.index([2, 0, 0, 0, 0, 0, 0, 0])] = 1 / math.sqrt(2)
    amps[occs.index([0, 2, 0, 0, 0, 0, 0, 0])] = -1 / math.sqrt(2)
    state = fock.state_from_amplitudes(2, 8, amps)

    dev = oracle.compare_with_moments(
        state, trap, fb, np.linspace(0.0, 2 * math.pi, 8)
    )
    assert dev["mean"] < 1e-5
    assert dev["cov"] < 1e-5

    gen = oracle.build_generator(trap, fb, basis.mode_count)
    traj = oracle.integrate(
        oracle.DensityMatrix.from_state(state), gen,
        oracle.step_times(trap, math.pi, 2 * math.pi / 1000)
    )
    m0 = moments.init_moments(state, basis)
    g = moments.build_generators(trap, fb)
    _, cov_c = moments.project_collective(moments.evolve_grid(m0, g, [math.pi]))
    assert moments.project_collective(traj.moments)[1][-1, 0, 0] == pytest.approx(
        cov_c[0][0, 0], abs=1e-5)


def test_compare_with_moments_n3_checks_the_n_minus_two_terms():
    trap = trap_for(3)
    fb = feedback_for_eta(trap, 0.8, zeta=0.3)
    basis = fock.OrbitalBasis(mode_count=8, trap=trap)
    ground = np.zeros(8, dtype=complex)
    ground[0] = 1.0
    starts = [
        fock.condensate_state(ground, 3),
        fock.condensate_state(fock.displaced_orbital(basis, 0.3), 3),
        fock.basis_state((2, 1, 0, 0, 0, 0, 0, 0)),
    ]
    t_grid = np.linspace(0.0, 2 * 2 * math.pi, 9)
    for state in starts:
        dev = oracle.compare_with_moments(state, trap, fb, t_grid)
        assert dev["mean"] < 1e-5
        assert dev["cov"] < 1e-5


@pytest.mark.parametrize("n, m, start, periods", [
    (4, 5, "ground", 0.25),
    (4, 7, "displaced", 0.25),
    (4, 7, (2, 1, 1), 0.125),
    (5, 5, "ground", 0.25),
], ids=["n4-ground", "n4-displaced", "n4-occupation", "n5-ground"])
def test_compare_with_moments_n4_n5_pins_the_n_minus_two_polynomial(n, m, start, periods):
    # at N = 3, n - 2 = 1 and (n - 1)(n - 2) = 2(n - 2), so a wrong power of
    # (n - 2) in the pair terms passes there; N = 4 is the first that tells.
    # Each case takes the fewest orbitals and the shortest window that pass.
    trap = trap_for(n)
    fb = feedback_for_eta(trap, 0.8, zeta=0.3)
    basis = fock.OrbitalBasis(mode_count=m, trap=trap)
    if start == "ground":
        state = fock.condensate_state(np.eye(m, dtype=complex)[0], n)
    elif start == "displaced":
        state = fock.condensate_state(fock.displaced_orbital(basis, 0.3), n)
    else:
        state = fock.basis_state(start + (0,) * (m - len(start)))
    t_grid = np.linspace(0.0, periods * 2 * math.pi, 3)
    dev = oracle.compare_with_moments(state, trap, fb, t_grid)
    assert dev["mean"] < 1e-5
    assert dev["cov"] < 1e-5


def test_truncation_leak_detected():
    trap = trap_for(1)
    fb = FeedbackConfig(shift_rate=0.0, meas_resolution=0.1)
    basis = fock.OrbitalBasis(mode_count=4, trap=trap)
    gen = oracle.build_generator(trap, fb, basis.mode_count)
    rho = oracle.DensityMatrix.from_state(fock.basis_state((1, 0, 0, 0)))
    with pytest.raises(TruncationLeak):
        oracle.integrate(rho, gen, oracle.step_times(trap, 4 * 2 * math.pi))


def test_positivity_monitor_trips_on_bad_input():
    trap = trap_for(1)
    basis = fock.OrbitalBasis(mode_count=4, trap=trap)
    gen = oracle.build_generator(trap, no_feedback(), basis.mode_count)
    bad = np.diag([0.0, 0.5, 0.5 + 1e-5, -1e-5]).astype(complex)
    with pytest.raises(PositivityLoss):
        oracle.integrate(oracle.DensityMatrix(matrix=bad, n=1, m=4), gen,
                         oracle.step_times(trap, 1.0))
