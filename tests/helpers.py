"""First-quantized tensor-product reference implementations.

Independent of the package's occupation-number algebra: states live in the
full M^N product space, collective operators are Kronecker sums, and
expectations are dense matrix products.  Exponentially sized, so only for
small N and M; used to pin frozen values in the unit tests.
"""

import itertools
import math

import numpy as np


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
