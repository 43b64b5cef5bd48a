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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import criteria, fock, oracle
from .errors import ConfigError, NonConvergence
from .scales import TrapConfig

_FAMILIES = ("fixed_N_pure", "indefinite_N_coherent")
_MAX_PARAMS = 64
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
        if not isinstance(self.n, int) or self.n < 1:
            raise ConfigError(f"n must be a positive integer, got {self.n!r}")
        if not isinstance(self.m, int) or self.m < 2:
            raise ConfigError(f"m must be an integer >= 2, got {self.m!r}")
        if not isinstance(self.restarts, int) or self.restarts < 1:
            raise ConfigError(f"restarts must be >= 1, got {self.restarts!r}")
        if not isinstance(self.max_iter, int) or self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter!r}")
        if not (isinstance(self.tol, (int, float)) and self.tol > 0):
            raise ConfigError(f"tol must be > 0, got {self.tol!r}")
        p = self.parameter_count
        if p > _MAX_PARAMS:
            raise ConfigError(
                f"family {self.family} on (n={self.n}, m={self.m}) needs {p} real "
                f"parameters, budget is {_MAX_PARAMS}"
            )

    @property
    def parameter_count(self) -> int:
        if self.family == "fixed_N_pure":
            return 2 * fock.sector_dimension(self.n, self.m)
        return 2 * self.m


def _split_complex(vec: np.ndarray) -> np.ndarray:
    half = len(vec) // 2
    return vec[:half] + 1j * vec[half:]


def _fixed_state(params: np.ndarray, n: int, m: int,
                 slots: list[int], full_dim: int) -> fock.FockState | None:
    amps = _split_complex(np.asarray(params, dtype=float))
    norm = float(np.linalg.norm(amps))
    if norm < 1e-12:
        return None
    full = np.zeros(full_dim, dtype=complex)
    full[slots] = amps / norm
    return fock.state_from_amplitudes(n, m + 1, full)


def fixed_sector_harmonics(basis: fock.OrbitalBasis, n: int):
    """Quadratic-form evaluator for min_t sigma_q_sq on the N-atom sector.

    Returns a callable vec -> QuadratureHarmonics taking a normalized sector
    amplitude vector whose top-orbital slots are empty; under that guard the
    dense sector matrices reproduce the operator products exactly.  Built for
    the inner loop of the search, where building a state per call is too slow.
    """
    pairs = []
    for q, q2 in criteria.quadrature_pairs(basis):
        t_q = oracle.sector_operator(basis, n, q.matrix)
        pairs.append((oracle.sector_operator(basis, n, q2.matrix), t_q @ t_q))

    def harmonics(vec: np.ndarray) -> criteria.QuadratureHarmonics:
        vals = []
        for q2, qq in pairs:
            one = float(np.vdot(vec, q2 @ vec).real)
            two = float(np.vdot(vec, qq @ vec).real)
            vals.append(one / n - two / n**2)
        return criteria.QuadratureHarmonics.from_samples(*vals, omega=basis.trap.trap_freq)

    return harmonics


def _coherent_sample(alpha: np.ndarray, basis: fock.OrbitalBasis,
                     q: np.ndarray, q2: np.ndarray) -> float:
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape != (basis.mode_count,):
        raise ConfigError(
            f"alpha has {alpha.shape[0]} entries, basis has {basis.mode_count} orbitals"
        )
    nbar = float(np.vdot(alpha, alpha).real)
    if nbar <= 0.0:
        raise ConfigError("coherent state needs a positive mean atom number")
    f1 = float(np.vdot(alpha, q @ alpha).real)
    f2 = float(np.vdot(alpha, q2 @ alpha).real)
    return f2 / nbar - (f1 * f1 + f2) / nbar**2


def coherent_sigma_q(alpha: np.ndarray, basis: fock.OrbitalBasis, t: float) -> float:
    """sigma_q_sq of the multimode coherent state with orbital amplitudes alpha.

    <T_{q^2}> = a+ q2 a and <T_q T_q> = (a+ q a)^2 + a+ q2 a in closed form;
    the defining combination is normalized by the mean atom number.
    """
    return _coherent_sample(alpha, basis, fock.quadrature_matrix(basis, t).matrix,
                            fock.quadrature_sq_matrix(basis, t).matrix)


def coherent_harmonics(alpha: np.ndarray,
                       basis: fock.OrbitalBasis) -> criteria.QuadratureHarmonics:
    """Same three-point second-harmonic reconstruction as the fixed-N path."""
    samples = [_coherent_sample(alpha, basis, q.matrix, q2.matrix)
               for q, q2 in criteria.quadrature_pairs(basis)]
    return criteria.QuadratureHarmonics.from_samples(*samples, omega=basis.trap.trap_freq)


def coherent_sigma_q_fock(alpha: np.ndarray, trap: TrapConfig, t: float,
                          cutoff: int = 12) -> float:
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
    op_q = fock.OneBodyOperator(0.5 * (q3 + q3.conj().T), hermitian=True)
    op_q2 = fock.OneBodyOperator(0.5 * (q23 + q23.conj().T), hermitian=True)
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


def _restart_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def search_state(spec: SearchSpec, trap: TrapConfig, fb=None):
    """Restarted Nelder-Mead over the family; returns (state, value, report).

    The reported value is the best objective seen anywhere, start points
    included, so a failed descent can never make the report worse than pure
    random sampling.  For fixed_N_pure the returned FockState carries the
    guard orbital (m + 1 modes).  Raises NonConvergence with the report
    attached when no restart converges.
    """
    if trap.atom_count != spec.n:
        raise ConfigError(f"trap has n={trap.atom_count} but spec has n={spec.n}")

    if spec.family == "fixed_N_pure":
        basis = fock.OrbitalBasis(mode_count=spec.m + 1, trap=trap)
        if spec.n == 1:
            ground = fock.basis_state((1,) + (0,) * spec.m)
            report = {
                "family": spec.family,
                "rows": [{"restart": 0, "start_value": 0.0, "final_value": 0.0,
                          "iterations": 0, "converged": True}],
                "best_restart": 0,
                "best_value": 0.0,
                "note": "single atom: the objective is identically zero",
            }
            return ground, 0.0, report
        occs_big = fock.occupations(spec.n, spec.m + 1)
        slots = [i for i, occ in enumerate(occs_big) if occ[spec.m] == 0]
        full_dim = len(occs_big)
        harmonics = fixed_sector_harmonics(basis, spec.n)

        def objective(vec):
            amps = _split_complex(np.asarray(vec, dtype=float))
            norm = float(np.linalg.norm(amps))
            if norm < 1e-12:
                return _BARRIER
            full = np.zeros(full_dim, dtype=complex)
            full[slots] = amps / norm
            return harmonics(full).minimum()

        def realize(vec):
            return _fixed_state(vec, spec.n, spec.m, slots, full_dim)
    else:
        # mean atom number pinned to spec.n: the search walks orbital shape
        # only, since the objective is unbounded below as the mean goes to 0
        basis = fock.OrbitalBasis(mode_count=spec.m, trap=trap)
        radius = math.sqrt(float(spec.n))

        def realize(vec):
            raw = _split_complex(np.asarray(vec, dtype=float))
            norm = float(np.linalg.norm(raw))
            if norm < 1e-12:
                return None
            return radius * raw / norm

        def objective(vec):
            alpha = realize(vec)
            if alpha is None:
                return _BARRIER
            return coherent_harmonics(alpha, basis).minimum()

    from scipy.optimize import minimize

    def run_restart(k):
        rng = _restart_rng(spec.seed, k)
        x0 = rng.normal(size=spec.parameter_count)
        start = objective(x0)
        res = minimize(
            objective, x0, method="Nelder-Mead",
            options={"maxiter": spec.max_iter, "fatol": spec.tol,
                     "xatol": 1e-8, "adaptive": True},
        )
        row = {"restart": k, "start_value": float(start),
               "final_value": float(res.fun), "iterations": int(res.nit),
               "converged": bool(res.success)}
        best_vec, best_val = (res.x, float(res.fun)) if res.fun <= start else (x0, float(start))
        return row, best_vec, best_val

    results = [run_restart(k) for k in range(spec.restarts)]

    rows = [r[0] for r in results]
    best_idx = min(range(len(results)), key=lambda i: results[i][2])
    best_vec, best_val = results[best_idx][1], results[best_idx][2]
    report = {
        "family": spec.family,
        "rows": rows,
        "best_restart": best_idx,
        "best_value": best_val,
    }
    if fb is not None:
        from .scales import derive_scales

        report["DXs"] = derive_scales(trap, fb).DXs
    if not any(r["converged"] for r in rows):
        raise NonConvergence(
            f"no restart converged in {spec.max_iter} iterations "
            f"(best value so far {best_val!r}); raise max_iter or loosen tol",
            report=report,
        )
    return realize(best_vec), best_val, report
