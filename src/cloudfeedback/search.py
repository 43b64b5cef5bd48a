"""Simplex search for initial states that push the breathing minimum down.

Two families.  fixed_N_pure walks normalized amplitude vectors on the
(N, M) sector; there the objective, the closed-form minimum over time of
sigma_q_sq, is a mean square spread about the center of mass and cannot go
negative, so the search exists to confirm that property empirically.
indefinite_N_coherent drops the fixed atom number: a multimode coherent
state with mean occupation |alpha_k|^2 per orbital and mean atom number
pinned to n, normalized by that mean, and the objective does reach
negative values.

States handed to the sector machinery carry one empty guard orbital on top,
which keeps two-operator products exact (the single leaked rung is captured
by the enlarged basis).

Both objectives are fixed quadratic forms in the real parameter vector
u = [Re v; Im v]: the three sample times of the harmonic reconstruction
give three forms (six for the coherent family, q and q^2 at each time),
stacked once per search, so one evaluation is one matrix-vector product.

The simplex walk is scipy's adaptive Nelder-Mead, reimplemented here
operation for operation (_nelder_mead), so the search needs no
scipy.optimize import and gives scipy's results to the bit.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import criteria, fock
from .errors import ConfigError, NonConvergence, check_budget, sig
from .scales import TrapConfig

_FAMILIES = ("fixed_N_pure", "indefinite_N_coherent")
_BARRIER = 1e6


@dataclass(frozen=True)
class SearchSpec:
    n: int
    m: int
    family: str
    restarts: int = 8
    max_iter: int = 20000
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConfigError(f"family must be one of {_FAMILIES}, got {self.family!r}")
        for name, low in (("n", 1), ("m", 2), ("restarts", 1), ("max_iter", 1)):
            value = getattr(self, name)
            if not (isinstance(value, int) and value >= low):
                raise ConfigError(f"{name} must be an integer >= {low}, got {sig(value)}")
        if not (isinstance(self.tol, (int, float)) and math.isfinite(self.tol)
                and self.tol > 0):
            raise ConfigError(f"tol must be finite and > 0, got {self.tol!r}")
        check_budget("iterations", self.restarts * self.max_iter, "restarts * max_iter")
        # C(n + m - 1, n) is slow to count, or past math.comb, when n and m are both large
        check_budget("modes", self.m, "m")
        p = self.parameter_count
        check_budget("params", p, f"family {self.family} on (n={sig(self.n)}, m={self.m})")
        check_budget("setup", self.restarts * (p + 2), "restarts * (parameters + 2)")

    @property
    def parameter_count(self) -> int:
        if self.family == "fixed_N_pure":
            return 2 * fock.sector_dimension(self.n, self.m)
        return 2 * self.m


def _split_complex(vec: np.ndarray) -> np.ndarray:
    half = len(vec) // 2
    return vec[:half] + 1j * vec[half:]


def _stack(matrices) -> np.ndarray:
    """Real blocks [[Re H, -Im H], [Im H, Re H]] of the H_k, stacked by rows.

    With u = [Re v; Im v], u . (block u) = Re(v+ H v), so _forms evaluates
    every form of the stack on u with one product.
    """
    return np.concatenate([np.block([[h.real, -h.imag], [h.imag, h.real]])
                           for h in matrices])


def _forms(stack: np.ndarray, u: np.ndarray) -> list[float]:
    """Re(v+ H_k v) / (v+ v) for every H_k of the stack; v must be nonzero.

    ndarray.dot, not @: on these few-by-few operands the matmul ufunc's
    dispatch costs more than the product.
    """
    norm_sq = float(u.dot(u))
    return [f / norm_sq for f in stack.dot(u).reshape(-1, len(u)).dot(u).tolist()]


def _fixed_state(params: np.ndarray, n: int, m: int) -> fock.FockState | None:
    """The normalized state over the guard-free rows of the (n, m + 1) sector."""
    amps = _split_complex(np.asarray(params, dtype=float))
    norm = float(np.linalg.norm(amps))
    if norm < 1e-12:
        return None
    occs = fock.occupations(n, m + 1)
    full = np.zeros(len(occs), dtype=complex)
    full[occs[:, -1] == 0] = amps / norm
    return fock.state_from_amplitudes(n, m + 1, full)


def _fixed_sampler(basis: fock.OrbitalBasis, n: int):
    """Callable u -> sigma_q_sq at the three sample times, on the N-atom sector.

    The top orbital of basis is a guard.  u = [Re v; Im v] for a nonzero
    amplitude vector v over the guard-free occupations, the rows of
    occupations(n, basis.mode_count) whose top orbital is empty.  Each
    H_k = T_{q^2(t_k)}/N - T_{q(t_k)} T_{q(t_k)}/N^2 is a dense sector matrix
    built once and restricted to those rows, which is exact under the guard,
    so a call is one product with the stacked forms.
    """
    keep = fock.occupations(n, basis.mode_count)[:, -1] == 0
    forms = []
    for q, q2 in criteria.quadrature_pairs(basis):
        t_q = fock.sector_operator(basis, n, q.matrix)
        h = fock.sector_operator(basis, n, q2.matrix) / n - (t_q @ t_q) / n**2
        forms.append(h[np.ix_(keep, keep)])
    return functools.partial(_forms, _stack(forms))


def fixed_sector_harmonics(basis: fock.OrbitalBasis, n: int):
    """Quadratic-form evaluator for min_t sigma_q_sq on the N-atom sector.

    Returns a callable u -> QuadratureHarmonics on the samples of
    _fixed_sampler(basis, n); the top orbital of basis is a guard.
    """
    samples = _fixed_sampler(basis, n)
    omega = basis.trap.trap_freq
    return lambda u: criteria.QuadratureHarmonics.from_samples(*samples(u), omega=omega)


def _coherent_spreads(stack: np.ndarray, u: np.ndarray, nbar: float) -> list[float]:
    """sigma_q_sq at each time of a [q(t_1..k); q^2(t_1..k)] stack.

    The state is alpha = sqrt(nbar) c with c = v/|v|, u = [Re v; Im v].
    <T_{q^2}> = a+ q2 a and <T_q T_q> = (a+ q a)^2 + a+ q2 a in closed form,
    so the defining combination, normalized by the mean atom number nbar,
    is (1 - 1/nbar) c+ q2 c - (c+ q c)^2.
    """
    g = _forms(stack, u)
    k = len(g) // 2
    return [(1.0 - 1.0 / nbar) * g2 - g1 * g1 for g1, g2 in zip(g[:k], g[k:])]


def _coherent_stack(pairs) -> np.ndarray:
    return _stack([q.matrix for q, _ in pairs] + [q2.matrix for _, q2 in pairs])


def _coherent_vector(alpha: np.ndarray, basis: fock.OrbitalBasis) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape != (basis.mode_count,):
        raise ConfigError(
            f"alpha has shape {alpha.shape}, basis has {basis.mode_count} orbitals"
        )
    u = np.concatenate([alpha.real, alpha.imag])
    if not u.dot(u) > 0.0:
        raise ConfigError("coherent state needs a positive mean atom number")
    return u


def coherent_sigma_q(alpha: np.ndarray, basis: fock.OrbitalBasis, t: float) -> float:
    """sigma_q_sq of the multimode coherent state with orbital amplitudes alpha."""
    pair = (fock.quadrature_matrix(basis, t), fock.quadrature_sq_matrix(basis, t))
    u = _coherent_vector(alpha, basis)
    return _coherent_spreads(_coherent_stack([pair]), u, float(u.dot(u)))[0]


def coherent_harmonics(alpha: np.ndarray,
                       basis: fock.OrbitalBasis) -> criteria.QuadratureHarmonics:
    """Same three-point second-harmonic reconstruction as the fixed-N path."""
    u = _coherent_vector(alpha, basis)
    stack = _coherent_stack(criteria.quadrature_pairs(basis))
    return criteria.QuadratureHarmonics.from_samples(
        *_coherent_spreads(stack, u, float(u.dot(u))), omega=basis.trap.trap_freq)


def _restart_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _nelder_mead(func, x0: np.ndarray, max_iter: int, fatol: float, xatol: float):
    """Adaptive Nelder-Mead from x0; returns (x, fun, nit, nfev, success).

    The float operations of scipy 1.17's _minimize_neldermead with
    adaptive=True, in its order (Nelder & Mead, Comput. J. 7:308, 1965;
    parameters of Gao & Han, Comput. Optim. Appl. 51:259, 2012): the same
    initial simplex, argsort/take ordering (as array methods), centroid,
    trial points and stopping test, so x, fun, nit, nfev and success equal
    scipy.optimize.minimize's to the bit.  Left out is scipy's
    per-iteration bookkeeping (result object, callback, argument copies),
    so func must not modify its argument.  success is False when max_iter
    runs out.
    """
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    dim = float(n)
    rho = 1
    chi = 1 + 2 / dim
    psi = 0.75 - 1 / (2 * dim)
    sigma = 1 - 1 / dim

    # vertex k + 1 moves entry k of x0 by 5%, or to 0.00025 from zero
    sim = np.tile(x0, (n + 1, 1))
    k = np.arange(n)
    sim[k + 1, k] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    fsim = np.array([func(v) for v in sim], dtype=float)
    nfev = n + 1
    # sorted twice, as scipy does: argsort need not keep ties in place
    ind = fsim.argsort()
    sim = sim.take(ind, 0)
    fsim = fsim.take(ind, 0)
    ind = fsim.argsort()
    fsim = fsim.take(ind, 0)
    sim = sim.take(ind, 0)

    iterations = 1
    while iterations < max_iter:
        # scipy's test; fsim is sorted, so max |fsim[0] - fsim[1:]| is
        # fsim[-1] - fsim[0], and its cheaper half goes first
        if (fsim[-1] - fsim[0] <= fatol
                and np.abs(sim[1:] - sim[0]).max() <= xatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        worst = sim[-1]
        xr = (1 + rho) * xbar - rho * worst
        fxr = func(xr)
        nfev += 1
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * worst
            fxe = func(xe)
            nfev += 1
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = (1 + psi * rho) * xbar - psi * rho * worst
                fxc = func(xc)
                keep = fxc <= fxr
            else:
                xc = (1 - psi) * xbar + psi * worst
                fxc = func(xc)
                keep = fxc < fsim[-1]
            nfev += 1
            if keep:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink every vertex toward the best
                sim[1:] = sim[0] + sigma * (sim[1:] - sim[0])
                fsim[1:] = [func(v) for v in sim[1:]]
                nfev += n
        iterations += 1
        ind = fsim.argsort()
        sim = sim.take(ind, 0)
        fsim = fsim.take(ind, 0)
    return sim[0], float(np.min(fsim)), iterations, nfev, iterations < max_iter


def _objective(spec: SearchSpec, trap: TrapConfig):
    """(objective, realize) of the family: min_t sigma_q_sq of a real
    parameter vector, and the state it stands for (fixed_N_pure needs n >= 2)."""
    if spec.family == "fixed_N_pure":
        samples = _fixed_sampler(fock.OrbitalBasis(mode_count=spec.m + 1, trap=trap),
                                 spec.n)

        def realize(vec):
            return _fixed_state(vec, spec.n, spec.m)
    else:
        # mean atom number pinned to spec.n: the search walks orbital shape
        # only, since the objective is unbounded below as the mean goes to 0
        basis = fock.OrbitalBasis(mode_count=spec.m, trap=trap)
        samples = functools.partial(_coherent_spreads,
                                    _coherent_stack(criteria.quadrature_pairs(basis)),
                                    nbar=float(spec.n))
        radius = math.sqrt(float(spec.n))

        def realize(vec):
            raw = _split_complex(np.asarray(vec, dtype=float))
            norm = float(np.linalg.norm(raw))
            if norm < 1e-12:
                return None
            return radius * raw / norm

    lowest = criteria.breathing_minimum

    # both samplers read only the direction of vec
    def objective(vec):
        if vec.dot(vec) < 1e-24:  # |vec| < 1e-12
            return _BARRIER
        return lowest(*samples(vec))

    return objective, realize


def search_state(spec: SearchSpec, trap: TrapConfig):
    """Restarted Nelder-Mead over the family; returns (state, value, report).

    The reported value is the best objective seen anywhere, start points
    included, so a failed descent can never make the report worse than pure
    random sampling.  For fixed_N_pure the returned FockState carries the
    guard orbital (m + 1 modes).  The report also counts the objective
    evaluations and times the build of the stacked forms and the restarts.
    Raises NonConvergence with the report attached when no restart
    converges.
    """
    if trap.atom_count != spec.n:
        raise ConfigError(f"trap has n={trap.atom_count} but spec has n={spec.n}")

    if spec.family == "fixed_N_pure" and spec.n == 1:
        report = {
            "family": spec.family,
            "rows": [{"restart": 0, "start_value": 0.0, "final_value": 0.0,
                      "iterations": 0, "converged": True}],
            "best_restart": 0,
            "best_value": 0.0,
            "evaluations": 0,
            "timings_s": {"build": 0.0, "search": 0.0},
            "note": "single atom: the objective is identically zero",
        }
        return fock.basis_state((1,) + (0,) * spec.m), 0.0, report

    began = time.perf_counter()
    objective, realize = _objective(spec, trap)

    def run_restart(k):
        x0 = _restart_rng(spec.seed, k).normal(size=spec.parameter_count)
        start = objective(x0)
        x, fun, nit, nfev, success = _nelder_mead(objective, x0, spec.max_iter,
                                                  spec.tol, 1e-8)
        row = {"restart": k, "start_value": start, "final_value": fun,
               "iterations": nit, "converged": success}
        best_vec, best_val = (x, fun) if fun <= start else (x0, start)
        return row, best_vec, best_val, nfev + 1

    built = time.perf_counter()
    results = [run_restart(k) for k in range(spec.restarts)]
    done = time.perf_counter()

    rows = [r[0] for r in results]
    best_idx = min(range(len(results)), key=lambda i: results[i][2])
    best_vec, best_val = results[best_idx][1], results[best_idx][2]
    report = {
        "family": spec.family,
        "rows": rows,
        "best_restart": best_idx,
        "best_value": best_val,
        "evaluations": sum(r[3] for r in results),
        "timings_s": {"build": built - began, "search": done - built},
    }
    if not any(r["converged"] for r in rows):
        raise NonConvergence(
            f"no restart converged in {spec.max_iter} iterations "
            f"(best value so far {best_val!r}); raise max_iter or loosen tol",
            report=report,
        )
    return realize(best_vec), best_val, report
