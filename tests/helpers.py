"""Reference implementations the unit tests check the package against.

Most are first-quantized and independent of the package's occupation-number
algebra: states live in the full M^N product space, collective operators
are Kronecker sums, and expectations are dense matrix products.
Exponentially sized, so only for small N and M; used to pin frozen values.
`reference_integrate` is the oracle's propagation on the full density
matrix, the bits its parity-block route must reproduce.
"""

import itertools
import math

import numpy as np

from cloudfeedback import oracle
from cloudfeedback.moments import project_collective


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
    joint, record = [], []
    for h in steps:
        if h > 0:
            rho = _full_propagate(gen, rho, h, *oracle._taylor_plan(gen.norm, h))
        rho = 0.5 * (rho + rho.conj().T)
        top = float(np.sum(gen.top_number * np.diag(rho).real))
        eig_min = float(np.linalg.eigvalsh(rho).min())
        jm = gen.joint_moments(rho)
        mean_c, cov_c = project_collective(jm)
        joint.append(jm)
        record.append((mean_c[0], cov_c[0, 0], math.sqrt(jm.cov[0, 0]),
                       abs(np.trace(rho).real - 1.0), top, eig_min))
    mean_x, var_x, dx, trace_err, top_pop, min_eig = np.array(record).T
    return oracle.OracleTrajectory(
        times=np.asarray(times, dtype=float), joint=tuple(joint), mean_X=mean_x, var_X=var_x,
        dx=dx, trace_err=trace_err, top_pop=top_pop, min_eig=min_eig, final=rho, sectors=2)
