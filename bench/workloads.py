"""The benchmark's workloads: seeded CLI inputs and independent output checks.

Each workload is a list of operations, one `cloudfeedback` CLI call each.
`build(workload, seed, pass_index, size)` derives every input of one pass
from the benchmark seed and the pass number, so a given seed always yields
the same sequence of passes.  Every operation carries a check that compares
its artifact with a reference computed here in numpy, apart from the
package, at the tolerances the package's own tests use.

Why these workloads:

* exact-oracle: the dense Fock-space oracle (RK4 on the density matrix)
  against the Gaussian moment flow on the same time grid.  The oracle's
  integrator takes nearly the whole pass; loop and search are idle.
* feedback-loop: the measure-and-kick loop on both schedules.  The regular
  schedule shares one conditional covariance across trajectories, the
  poisson schedule keeps one per trajectory, so a kernel change that helps
  one and hurts the other shows.  Fock and the oracle are nearly idle.
* state-analysis: criteria on a large-N condensate, a generic-orbital
  condensate and a thermal ensemble, the two search families, scan and
  scales.  Fock, criteria and search do their work here.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("exact-oracle", "feedback-loop", "state-analysis")
SIZES = ("full", "tiny")


class CheckFailed(Exception):
    pass


@dataclass
class Result:
    """What one operation left behind: exit code, artifact path, stderr text."""

    code: int
    out: str
    stderr: str
    seconds: float


@dataclass
class Op:
    name: str
    task: str
    config: dict
    # results of the whole pass by op name -> raises CheckFailed
    check: Callable[[dict[str, Result]], None]


# ---------------------------------------------------------------------------
# reference formulas (hbar = m = omega = 1, as in every config below)


def sigma_for(n: int, zeta: float, eta: float) -> float:
    """Measurement resolution that puts a trap of n atoms at localization eta."""
    return math.sqrt(1.0 / (2.0 * n) / (zeta * eta))


def scales_ref(n: int, zeta: float, sigma: float) -> dict:
    dX0 = math.sqrt(1.0 / (2.0 * n))
    eta = dX0**2 / (zeta * sigma**2)
    return {"dX0": dX0, "dx0": dX0 * math.sqrt(n), "eta": eta,
            "DXs": dX0 * math.sqrt((eta + 1.0 / eta) / 2.0)}


def _ladder(m: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, m)), 1)


def quadratures(m: int, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Truncated q(t) and the ladder-form q^2(t) on m oscillator orbitals."""
    a = _ladder(m)
    rot = a * np.exp(-1j * t)
    q = (rot + rot.conj().T) / math.sqrt(2.0)
    q2 = 0.5 * (rot @ rot + (rot @ rot).conj().T + np.diag(2.0 * np.arange(m) + 1.0))
    return q, q2


def condensate_sigma_q(c: np.ndarray, n: int, t: float) -> float:
    """sigma_q_sq(t) from <T_A> = N c+Ac, <T_A T_B> = N c+ABc + N(N-1)(c+Ac)(c+Bc)."""
    q, q2 = quadratures(len(c), t)
    one = n * np.vdot(c, q2 @ c).real
    qc = np.vdot(c, q @ c).real
    two = n * np.vdot(c, q @ q @ c).real + n * (n - 1) * qc**2
    return one / n - two / n**2


def thermal_members(n: int, m: int, temperature: float, cutoff: float):
    """(weight, occupation) of the canonical ensemble kept under the cutoff."""
    kept = []
    for occ in itertools.product(range(n + 1), repeat=m):
        if sum(occ) != n:
            continue
        energy = sum(k * (j + 0.5) for j, k in enumerate(occ))
        if energy <= cutoff:
            kept.append((math.exp(-(energy - n / 2.0) / temperature), np.array(occ)))
    total = sum(w for w, _ in kept)
    return [(w / total, occ) for w, occ in kept]


def fock_sigma_q(members, n: int, t: float) -> float:
    """sigma_q_sq(t) of a mixture of occupation states.

    <n|T_A T_B|n> = (sum_i A_ii n_i)(sum_k B_kk n_k)
                    + sum_{i != j} A_ij B_ji n_i (n_j + 1).
    """
    m = len(members[0][1])
    q, q2 = quadratures(m, t)
    off = q * q.T
    np.fill_diagonal(off, 0.0)
    one = two = 0.0
    for w, occ in members:
        one += w * float(np.diag(q2).real @ occ)
        two += w * (float(np.diag(q).real @ occ) ** 2 + float((occ @ off @ (occ + 1)).real))
    return one / n - two / n**2


# ---------------------------------------------------------------------------
# artifact readers


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CheckFailed(f"{path} is empty")
    return rows[0], rows[1:]


def numeric_columns(path: str) -> dict[str, np.ndarray]:
    header, rows = read_csv(path)
    if not rows:
        raise CheckFailed(f"{path} has no data rows")
    data = np.array(rows, dtype=float)
    if not np.all(np.isfinite(data)):
        raise CheckFailed(f"{path} holds non-finite cells")
    return {name: data[:, i] for i, name in enumerate(header)}


def summary(result: Result) -> dict:
    """The run summary the CLI writes as the last stderr line."""
    lines = result.stderr.strip().splitlines()
    if not lines:
        raise CheckFailed("no stderr summary")
    return json.loads(lines[-1])


def expect_close(what: str, got, want, tol: float) -> None:
    """Every |got - want| <= tol * max(1, |want|)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape} != {want.shape}")
    err = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))) if got.size else 0.0
    if not err <= tol:
        raise CheckFailed(f"{what}: deviation {err:.3e} > {tol:.1e}")


# ---------------------------------------------------------------------------
# exact-oracle

_MOMENT_COLUMNS = (
    "mean_x", "mean_p", "mean_Xbar", "mean_Pbar",
    "cov_xx", "cov_xp", "cov_xXbar", "cov_xPbar",
    "cov_pp", "cov_pXbar", "cov_pPbar",
    "cov_XbarXbar", "cov_XbarPbar", "cov_PbarPbar",
)


def _oracle_pair(tag: str, n: int, m: int, periods: float, zeta: float, eta: float,
                 tol: float) -> list[Op]:
    t_max = 2.0 * math.pi * periods
    base = {"n": n, "zeta": zeta, "sigma": sigma_for(n, zeta, eta),
            "state": {"kind": "condensate", "m": m}}
    oracle_name, evolve_name = f"oracle-{tag}", f"evolve-{tag}"

    def check_oracle(results):
        cols = numeric_columns(results[oracle_name].out)
        if abs(cols["t"][-1] - t_max) > 1e-9 or cols["t"][0] != 0.0:
            raise CheckFailed(f"oracle grid spans [{cols['t'][0]}, {cols['t'][-1]}]")

    def check_evolve(results):
        exact = numeric_columns(results[oracle_name].out)
        flow = numeric_columns(results[evolve_name].out)
        # compare wherever the two grids share an instant
        i, j = np.nonzero(np.abs(exact["t"][:, None] - flow["t"][None, :]) < 1e-9)
        if len(i) < 2 or abs(exact["t"][i[-1]] - t_max) > 1e-9:
            raise CheckFailed(f"only {len(i)} shared instants, last not t_max")
        dev = max(float(np.max(np.abs(exact[c][i] - flow[c][j]))) for c in _MOMENT_COLUMNS)
        if not dev < tol:
            raise CheckFailed(f"oracle vs moments deviation {dev:.3e} >= {tol:.0e}")

    # the oracle reports every tenth step of 2 pi / 1000, so 100 rows a period
    samples = int(round(100 * periods)) + 1
    return [
        Op(oracle_name, "oracle", {**base, "task": {"t_max": t_max}}, check_oracle),
        Op(evolve_name, "evolve",
           {**base, "task": {"engine": "moments", "t_max": t_max, "samples": samples}},
           check_evolve),
    ]


def exact_oracle(rng: np.random.Generator, size: str) -> list[Op]:
    zeta = float(rng.uniform(0.18, 0.22))
    eta = float(rng.uniform(0.9, 1.1))
    if size == "tiny":
        return (_oracle_pair("n2", 2, 8, 0.1, zeta, eta, 1e-5)
                + _oracle_pair("n1", 1, 8, 0.1, zeta, eta, 1e-6))
    # tolerances of the oracle-vs-moments acceptance test
    return (_oracle_pair("n2", 2, 10, 0.5, zeta, eta, 1e-5)
            + _oracle_pair("n1", 1, 12, 1.0, zeta, eta, 1e-6))


# ---------------------------------------------------------------------------
# feedback-loop


def feedback_loop(rng: np.random.Generator, size: str) -> list[Op]:
    n, gamma, sigma0, zeta0, t_max = 2, 100.0, math.sqrt(50.0), 0.005, 24.0
    k_regular, k_poisson = (1024, 128) if size == "tiny" else (4096, 256)
    seeds = rng.integers(0, 2**31, size=2)
    target = scales_ref(n, zeta0 * gamma, sigma0 / math.sqrt(gamma))["DXs"] ** 2

    def config(schedule, k, seed):
        return {"n": n, "gamma": gamma, "sigma0": sigma0, "zeta0": zeta0,
                "seed": int(seed), "state": {"kind": "condensate", "m": 6},
                "task": {"t_max": t_max, "schedule": schedule, "trajectories": k,
                         "record_stride": 10}}

    def late_var(result):
        cols = numeric_columns(result.out)
        return cols, float(np.mean(cols["var_X"][cols["t"] > 2.0 * t_max / 3.0]))

    def check_regular(results):
        # stationary test bounds: 5% Monte Carlo, 4/gamma discrete-map bias
        _, var = late_var(results["loop-regular"])
        tol = 0.05 * (1.0 + 4.0 / gamma) + 4.0 / gamma
        if not abs(var - target) < tol * target:
            raise CheckFailed(f"late var_X {var:.6g} vs DXs^2 {target:.6g}")

    def check_poisson(results):
        cols, var = late_var(results["loop-poisson"])
        _, regular = late_var(results["loop-regular"])
        if not abs(var - regular) / target < 3.0 / gamma + 0.06:
            raise CheckFailed(f"poisson late var_X {var:.6g} vs regular {regular:.6g}")
        expect = cols["t"][-1] * gamma
        if not abs(cols["n_events"][-1] - expect) < 0.05 * expect:
            raise CheckFailed(f"poisson events {cols['n_events'][-1]:.1f} vs {expect:.1f}")

    return [
        Op("loop-regular", "loop", config("regular", k_regular, seeds[0]), check_regular),
        Op("loop-poisson", "loop", config("poisson", k_poisson, seeds[1]), check_poisson),
    ]


# ---------------------------------------------------------------------------
# state-analysis


def _check_criteria(name: str, n: int, zeta: float, sigma: float, sigma_q):
    ref = scales_ref(n, zeta, sigma)

    def check(results):
        cols = numeric_columns(results[name].out)
        want = np.array([sigma_q(t) for t in cols["t"]])
        expect_close(f"{name} sigma_q_sq", cols["sigma_q_sq"], want, 1e-10)
        expect_close(f"{name} dxa", cols["dxa"], np.sqrt(ref["DXs"] ** 2 + want), 1e-10)
        expect_close(f"{name} dx0", cols["dx0"], np.full_like(want, ref["dx0"]), 1e-10)
        expect_close(f"{name} DXs", cols["DXs"], np.full_like(want, ref["DXs"]), 1e-10)
        if cols["t"][0] != 0.0 or abs(cols["t"][-1] - math.pi) > 1e-10:
            raise CheckFailed(f"{name} grid spans [{cols['t'][0]}, {cols['t'][-1]}]")
        summary(results[name])

    return check


def _condensate_dx0(c: np.ndarray) -> float:
    q, q2 = quadratures(len(c), 0.0)
    return math.sqrt(np.vdot(c, q2 @ c).real - np.vdot(c, q @ c).real ** 2)


def _criteria_condensate(name, n, orbital, zeta, eta):
    sigma = sigma_for(n, zeta, eta)
    m = len(orbital)
    state = {"kind": "condensate", "m": m}
    if not (orbital[0] == 1.0 and not np.any(orbital[1:])):
        state["orbital"] = [[float(v.real), float(v.imag)] for v in orbital]
    base_check = _check_criteria(name, n, zeta, sigma,
                                 lambda t: condensate_sigma_q(orbital, n, t))

    def check(results):
        base_check(results)
        dx = numeric_columns(results[name].out)["dx"][0]
        expect_close(f"{name} dx(0)", dx, _condensate_dx0(orbital), 1e-10)

    return Op(name, "criteria",
              {"n": n, "zeta": zeta, "sigma": sigma, "state": state,
               "task": {"include_transient": True}}, check)


def _search(name, n, m, family, restarts, seed, accept):
    def check(results):
        _, rows = read_csv(results[name].out)
        if len(rows) != restarts:
            raise CheckFailed(f"{name}: {len(rows)} restart rows, want {restarts}")
        best = summary(results[name])["best_value"]
        if not accept(best):
            raise CheckFailed(f"{name}: best value {best!r}")

    return Op(name, "search",
              {"n": n, "seed": int(seed),
               "task": {"family": family, "m": m, "restarts": restarts}}, check)


def _scan(n, zeta, sigma, eta_min, eta_max, steps):
    root = math.sqrt(n * n - 1.0)
    lo, hi = n - root, n + root

    def check(results):
        header, rows = read_csv(results["scan"].out)
        if header != ["eta", "dX0", "dx0", "DXs", "regime"] or len(rows) != steps:
            raise CheckFailed(f"scan header {header} with {len(rows)} rows")
        eta = np.geomspace(eta_min, eta_max, steps)
        got = np.array([r[:4] for r in rows], dtype=float)
        dX0 = math.sqrt(1.0 / (2.0 * n))
        expect_close("scan eta", got[:, 0], eta, 1e-10)
        expect_close("scan dX0", got[:, 1], np.full(steps, dX0), 1e-10)
        expect_close("scan dx0", got[:, 2], np.full(steps, dX0 * math.sqrt(n)), 1e-10)
        expect_close("scan DXs", got[:, 3], dX0 * np.sqrt((eta + 1.0 / eta) / 2.0), 1e-10)
        want = ["qs_threshold_above" if lo < e < hi else "schwarz_threshold_above"
                for e in eta]
        if [r[4] for r in rows] != want:
            raise CheckFailed("scan regimes differ from the eta interval")

    return Op("scan", "scan",
              {"n": n, "zeta": zeta, "sigma": sigma,
               "task": {"eta_min": eta_min, "eta_max": eta_max, "steps": steps}}, check)


def _scales(n, zeta, sigma):
    def check(results):
        with open(results["scales"].out, encoding="utf-8") as fh:
            doc = json.load(fh)
        ref = scales_ref(n, zeta, sigma)
        for key, want in ref.items():
            expect_close(f"scales {key}", doc[key], want, 1e-12)

    return Op("scales", "scales", {"n": n, "zeta": zeta, "sigma": sigma}, check)


def _criteria_thermal(name, n, m, temperature, cutoff, zeta, eta):
    sigma = sigma_for(n, zeta, eta)
    members = thermal_members(n, m, temperature, cutoff)
    return Op(name, "criteria",
              {"n": n, "zeta": zeta, "sigma": sigma,
               "state": {"kind": "thermal", "m": m, "temperature": temperature,
                         "cutoff": cutoff},
               "task": {"include_transient": True}},
              _check_criteria(name, n, zeta, sigma,
                              lambda t: fock_sigma_q(members, n, t)))


def _generic_orbital(rng, m):
    # complex orbital with an empty top mode, so products stay inside the basis
    c = rng.normal(size=m) + 1j * rng.normal(size=m)
    c[-1] = 0.0
    return c / np.linalg.norm(c)


def state_analysis(rng: np.random.Generator, size: str) -> list[Op]:
    zeta = float(rng.uniform(0.4, 0.6))
    eta = float(rng.uniform(0.5, 2.0))
    tiny = size == "tiny"
    # the ground condensate enumerates C(n + m - 1, n) = 118,755 occupations
    big_n, big_m = (4, 4) if tiny else (24, 6)
    gen_n, gen_m = (3, 4) if tiny else (7, 8)
    ground = np.zeros(big_m, dtype=complex)
    ground[0] = 1.0
    # the cutoff stays below one atom in the top orbital, (m - 1) + n / 2
    th_n, th_m, th_t = (2, 4, 0.3) if tiny else (3, 6, float(rng.uniform(0.35, 0.5)))
    th_cutoff = th_m - 1 + th_n / 2.0 - 0.1
    # (n, m, restarts); Nelder-Mead iterations vary with the seeded start
    # points (about 30% a restart), so sizes stay where that spread is small
    fixed = (2, 2, 1) if tiny else (2, 3, 2)
    coherent = (1, 2, 1) if tiny else (2, 4, 2)
    seeds = rng.integers(0, 2**31, size=2)
    scan_n = int(rng.integers(2, 41))
    scan_sigma = sigma_for(scan_n, zeta, eta)
    return [
        _criteria_condensate("criteria-ground", big_n, ground, zeta, eta),
        _criteria_condensate("criteria-orbital", gen_n, _generic_orbital(rng, gen_m),
                             zeta, eta),
        _criteria_thermal("criteria-thermal", th_n, th_m, th_t, th_cutoff, zeta, eta),
        # fixed-N states never go below zero; search tests allow -1e-8
        _search("search-fixed", fixed[0], fixed[1], "fixed_N_pure", fixed[2], seeds[0],
                lambda best: best >= -1e-8),
        _search("search-coherent", coherent[0], coherent[1], "indefinite_N_coherent",
                coherent[2], seeds[1], lambda best: best < 0.0),
        _scan(scan_n, zeta, scan_sigma, 1e-2, 1e2, 25),
        _scales(scan_n, zeta, scan_sigma),
    ]


_OPS_BY_WORKLOAD = {
    "exact-oracle": exact_oracle,
    "feedback-loop": feedback_loop,
    "state-analysis": state_analysis,
}


def build(workload: str, seed: int, pass_index: int, size: str = "full") -> list[Op]:
    """The operations of one pass, all inputs drawn from (seed, pass_index)."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), pass_index])
    return _OPS_BY_WORKLOAD[workload](rng, size)
