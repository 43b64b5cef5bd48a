"""Reference implementations the unit tests check the package against.

Most are first-quantized and independent of the package's occupation-number
algebra: states live in the full M^N product space, collective operators
are Kronecker sums, and expectations are dense matrix products.
Exponentially sized, so only for small N and M; used to pin frozen values.
The others are second routes to what the package computes one way:
  * `reference_integrate`: the oracle's propagation on the full density
    matrix, the bits its packed propagation must reproduce;
  * `plant_covariance_eigenvalue`: a covariance of the oracle's moments
    moved off the PSD cone, for the checks that must catch it;
  * `rk4_evolve`: the moment flow by fixed-step RK4, against the closed form;
  * `stationary_cm`: the stationary center-of-mass spread from a Lyapunov
    solve, against the closed-form DXs;
  * `KrausSector`: the loop's measure-and-kick event as Kraus maps on a Fock
    sector, against the Gaussian filter;
  * `coherent_sigma_q_fock`: a coherent state's sigma_q_sq as a Poisson sum
    over condensate sectors, against the closed form;
  * `classical_schwarz_check`: the Schwarz inequality on a factorized
    classical pair distribution;
  * `breathing_curve`: the criteria subcommand's columns for a given state;
  * `single_walk`: one operator applied by a walk of its own matrix, the bits
    a walk shared by operators of one nonzero pattern must reproduce.
"""

import itertools
import math

import numpy as np

from cloudfeedback import criteria, driver, fock, moments, oracle
from cloudfeedback.errors import ConfigError, MinResolution, SingularLyapunov, ToolkitError


def _seq_index(seq, m):
    idx = 0
    for s in seq:
        idx = idx * m + s
    return idx


def symmetrized_vector(occ):
    """Unit-norm symmetric product vector for one occupation configuration."""
    n = sum(occ)
    m = len(occ)
    seq = []
    for orb, k in enumerate(occ):
        seq.extend([orb] * k)
    amp = math.sqrt(math.prod(math.factorial(k) for k in occ) / math.factorial(n))
    vec = np.zeros(m ** n, dtype=complex)
    for p in set(itertools.permutations(seq)):
        vec[_seq_index(p, m)] = amp
    return vec


def product_vector(state):
    vec = np.zeros(state.m ** state.n, dtype=complex)
    for occ, a in zip(state.occ.tolist(), state.amp):
        vec += a * symmetrized_vector(occ)
    return vec


def collective_operator(a, n):
    """sum_alpha I x .. x a x .. x I on the product space."""
    a = np.asarray(a, dtype=complex)
    m = a.shape[0]
    eye = np.eye(m)
    total = np.zeros((m ** n, m ** n), dtype=complex)
    for alpha in range(n):
        acc = np.array([[1.0 + 0j]])
        for spot in range(n):
            acc = np.kron(acc, a if spot == alpha else eye)
        total += acc
    return total


def oracle_expectation(state, matrices):
    """<A1 A2 ..> for collective one-body operators, no truncation inside."""
    vec = product_vector(state)
    out = vec
    for a in reversed(matrices):
        out = collective_operator(a, state.n) @ out
    return complex(np.vdot(vec, out))


def single_atom_operator(a, atom_index, n):
    """a acting on one tensor slot only."""
    a = np.asarray(a, dtype=complex)
    m = a.shape[0]
    eye = np.eye(m)
    acc = np.array([[1.0 + 0j]])
    for spot in range(n):
        acc = np.kron(acc, a if spot == atom_index else eye)
    return acc


def oracle_one_body_density(state):
    """rho1[n][m] = <sum_alpha (|m><n|)_alpha>."""
    vec = product_vector(state)
    m = state.m
    rho = np.zeros((m, m), dtype=complex)
    for nn in range(m):
        for mm in range(m):
            e = np.zeros((m, m))
            e[mm, nn] = 1.0
            rho[nn, mm] = np.vdot(vec, collective_operator(e, state.n) @ vec)
    return rho


def single_walk(state, matrix):
    """T_A on each member from a walk of A's own matrix alone: one_body_coo's
    values, merged chunk by chunk into ascending target keys."""
    key, amp = state.key[:0], state.amp[:0]
    for src, tgt, val, _, _ in fock.one_body_chunks(state.occ, matrix):
        key, inv = np.unique(np.concatenate([key, state.label[src] * state.dim + tgt]),
                             return_inverse=True)
        amp = fock._sum_by(inv, np.concatenate([amp, val * state.amp[src]]), len(key))
    return key, amp


def random_fock_amplitudes(rng, dim):
    """Seeded dense unit vector of complex amplitudes."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _full_apply(stacks, rho):
    # L(rho) = [left; X; P] rho, then [rho, X rho, P rho] [right; Y; Z]
    lhs, rhs_t = stacks
    dim = len(rho)
    products = (lhs @ rho).reshape(-1, dim, dim)
    blocks = products.transpose(0, 2, 1).copy()
    blocks[0] = rho.T
    return products[0] + (rhs_t @ blocks.reshape(-1, dim)).T


def _full_propagate(gen, rho, h, degree, substeps):
    # Al-Mohy & Higham's Algorithm 3.2 on L - shift I, every term a full d x d rho
    stacks, mu = gen.stacks, gen.shift
    scale = h / substeps
    eta = np.exp(mu * scale)
    out = rho
    for _ in range(int(substeps)):
        c1 = np.max(np.abs(rho))
        for j in range(1, degree + 1):
            rho = (scale / j) * (_full_apply(stacks, rho) - mu * rho)
            c2 = np.max(np.abs(rho))
            out = out + rho
            if c1 + c2 <= 2.0**-53 * np.max(np.abs(out)):
                break
            c1 = c2
        out = eta * out
        rho = out
    return out


def reference_integrate(rho0, gen, times):
    """oracle.integrate on the full rho at every step, with the same monitors."""
    steps = np.diff(times, prepend=0.0).tolist()
    rho = np.array(rho0.matrix, dtype=complex)
    raw, record = [], []
    for h in steps:
        if h > 0:
            rho = _full_propagate(gen, rho, h, *oracle._taylor_plan(gen.norm, h))
        rho = 0.5 * (rho + rho.conj().T)
        top = float(np.sum(gen.top_number * np.diag(rho).real))
        eig_min = float(np.linalg.eigvalsh(rho).min())
        raw.append(gen.raw_moments(rho))
        record.append((abs(np.trace(rho).real - 1.0), top, eig_min))
    trace_err, top_pop, min_eig = np.array(record).T
    grid = moments.checked_grid(gen.basis.trap.atom_count, *map(np.array, zip(*raw)))
    return oracle.OracleTrajectory(
        times=np.asarray(times, dtype=float), moments=grid, trace_err=trace_err,
        top_pop=top_pop, min_eig=min_eig, final=rho, sectors=2)


def plant_covariance_eigenvalue(monkeypatch, start, low):
    """Move the lowest covariance eigenvalue of the oracle's raw moments to
    low, at every emitted instant from the start-th (0 the first) on,
    counted across calls."""
    real, seen = oracle.LindbladGenerator.raw_moments, []

    def planted(self, rho):
        mean, cov = real(self, rho)
        seen.append(None)
        if len(seen) > start:
            w, v = np.linalg.eigh(cov)
            w[0] = low
            cov = (v * w) @ v.T
            cov = 0.5 * (cov + cov.T)
        return mean, cov

    monkeypatch.setattr(oracle.LindbladGenerator, "raw_moments", planted)


def rk4_evolve(m0, g, t):
    """moments.evolve_grid from a start m0 to the one instant t, by fixed-step
    RK4 with h <= 2 pi / (1000 omega)."""
    a, d2 = g.A, 2.0 * g.D
    h_max = 2.0 * math.pi / (1000.0 * g.trap.trap_freq)
    steps = max(1, math.ceil(t / h_max)) if t > 0 else 0
    h = t / steps if steps else 0.0
    mean = m0.mean[0].copy()
    cov = m0.cov[0].copy()

    def rhs(mn, cv):
        return a @ mn, a @ cv + cv @ a.T + d2

    for _ in range(steps):
        k1m, k1c = rhs(mean, cov)
        k2m, k2c = rhs(mean + 0.5 * h * k1m, cov + 0.5 * h * k1c)
        k3m, k3c = rhs(mean + 0.5 * h * k2m, cov + 0.5 * h * k2c)
        k4m, k4c = rhs(mean + h * k3m, cov + h * k3c)
        mean = mean + (h / 6.0) * (k1m + 2 * k2m + 2 * k3m + k4m)
        cov = cov + (h / 6.0) * (k1c + 2 * k2c + 2 * k3c + k4c)
    return moments.checked_grid(m0.n, mean[None], cov[None])


def stationary_cm(g):
    """Stationary rms spread of the total center of mass.

    Contracts the generator to (X_tot, P_tot) and solves the 2x2 Lyapunov
    equation A S + S A^T + 2 D = 0.
    """
    from scipy.linalg import solve_continuous_lyapunov

    if g.fb.shift_rate == 0.0:
        raise SingularLyapunov("no stationary center-of-mass state without damping")
    c, s = moments._collective_maps(g.n)
    a_c = c @ g.A @ s
    d_c = c @ g.D @ c.T
    sigma = solve_continuous_lyapunov(a_c, -2.0 * d_c)
    return math.sqrt(sigma[0, 0])


class KrausSector:
    """The loop's event as Kraus maps on one Fock sector, X and P diagonalised once.

    x_hat is the cm position and p_hat the total momentum on the sector.
    """

    def __init__(self, x_hat, p_hat):
        self.x_vals, self.x_vecs = np.linalg.eigh(x_hat)
        self.p_vals, self.p_vecs = np.linalg.eigh(p_hat)

    def measure(self, rho, x_m, sigma0):
        """rho -> E rho E / Tr, E = exp(-(X-x_m)^2 / (4 sigma0^2))."""
        vecs = self.x_vecs
        e = vecs @ np.diag(np.exp(-((self.x_vals - x_m) ** 2) / (4.0 * sigma0**2))) @ vecs.conj().T
        out = e @ rho @ e
        tr = np.trace(out).real
        if tr <= 0:
            raise MinResolution(f"measurement weight underflow at x_m={x_m!r}")
        return out / tr

    def kick(self, rho, x_m, zeta0, hbar):
        """Displace every position by -zeta0*x_m: U = exp(i zeta0 x_m P / hbar)."""
        vecs = self.p_vecs
        unitary = vecs @ np.diag(np.exp(1j * zeta0 * x_m * self.p_vals / hbar)) @ vecs.conj().T
        return unitary @ rho @ unitary.conj().T

    def sample(self, rho, sigma0, rng, size):
        """size outcomes from the Gaussian mixture over the X-spectrum of rho.

        Each draw picks an eigenvalue with rng.choice, then adds rng.normal noise.
        """
        vecs = self.x_vecs
        weights = np.clip(np.einsum("ji,jk,ki->i", vecs.conj(), rho, vecs).real, 0.0, None)
        weights /= weights.sum()
        picks = (rng.choice(len(weights), p=weights) for _ in range(size))
        return np.array([rng.normal(self.x_vals[pick], sigma0) for pick in picks])


def coherent_sigma_q_fock(alpha, trap, t, cutoff=12):
    """Independent route: Poisson-weighted sum over fixed-N condensate sectors.

    The N-atom component of a multimode coherent state is a condensate of N
    atoms in the orbital c = alpha/|alpha| with Poisson weight.  Both
    expectations live in the subspace spanned by c, q c and q^2 c, so the
    sector sums run in that rotated three-orbital basis; its matrix elements
    are exact and the sector dimension stays quadratic in the cutoff instead
    of blowing up combinatorially with the mode count.
    """
    if cutoff < 12:
        raise ConfigError(f"cutoff must be >= 12, got {cutoff!r}")
    alpha = np.asarray(alpha, dtype=complex)
    nbar = float(np.vdot(alpha, alpha).real)
    if nbar <= 0.0:
        raise ConfigError("coherent state needs a positive mean atom number")

    # two guard modes make q c and q^2 c exact before the rotation
    big = fock.OrbitalBasis(mode_count=alpha.shape[0] + 2, trap=trap)
    c = np.zeros(big.mode_count, dtype=complex)
    c[:-2] = alpha / math.sqrt(nbar)
    qm = fock.quadrature_matrix(big, t).matrix
    q2m = fock.quadrature_sq_matrix(big, t).matrix
    frame, _ = np.linalg.qr(np.stack([c, qm @ c, q2m @ c], axis=1))
    q3 = frame.conj().T @ qm @ frame
    q23 = frame.conj().T @ q2m @ frame
    op_q = fock.OneBodyOperator(0.5 * (q3 + q3.conj().T))
    op_q2 = fock.OneBodyOperator(0.5 * (q23 + q23.conj().T))
    orb = np.array([1.0, 0.0, 0.0], dtype=complex)

    one = 0.0
    two = 0.0
    log_w = -nbar
    for n_sector in range(1, cutoff + 1):
        log_w += math.log(nbar) - math.log(n_sector)
        weight = math.exp(log_w)
        st = fock.condensate_state(orb, n_sector)
        one += weight * fock.one_body_density(st).expectation(op_q2)
        two += weight * float(fock.few_body_expectation(st, [op_q])[0, 0].real)
    return one / nbar - two / nbar**2


class NegativeIntensity(ToolkitError):
    """Classical intensity profile must be nonnegative."""


def classical_schwarz_check(intensity, q_values, grid):
    """Schwarz test for a factorized classical pair distribution.

    With P(x, x') = I(x) I(x') / (int I)^2 the correlator side reduces to the
    squared mean, so (lhs, rhs) = (mean^2, second moment); any nonnegative
    intensity satisfies lhs <= rhs.
    """
    intensity = np.asarray(intensity, dtype=float)
    q_values = np.asarray(q_values, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if np.any(intensity < 0.0):
        raise NegativeIntensity(f"min intensity {intensity.min()!r} < 0")
    total = np.trapezoid(intensity, grid)
    if total <= 0.0:
        raise NegativeIntensity("intensity integrates to zero")
    mean = np.trapezoid(q_values * intensity, grid) / total
    second = np.trapezoid(q_values**2 * intensity, grid) / total
    lhs = mean**2
    rhs = second
    return lhs, rhs, lhs <= rhs + 1e-12 * max(1.0, abs(rhs))


def breathing_curve(state, basis, trap, fb, samples=129, include_transient=False):
    """The criteria subcommand's columns for this state."""
    times, s, g = driver._curve_inputs(trap, fb, samples, include_transient)
    columns, _ = driver._curve(criteria.quadrature_harmonics(state, basis), state, basis,
                               times, s, g)
    return columns
