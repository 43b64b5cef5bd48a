"""Command line and file plumbing: one JSON config in, CSV/JSON artifacts out.

Parse, compute, emit.  `RunConfig` parses every key of the config (its
top-level keys, which the CLI flags --n, --zeta, ... mirror and override,
and its task section) into a typed value, from one key table and one task
registry.  The subcommand computes its artifact (named CSV columns, or the
scales document) and forms its run record's fields, and a searched state's
document, from typed library results: no other module forms JSON.
`cli_main` alone writes the artifact, a search's `state_out`, then one
stderr JSON line.  Physical defaults are hbar = m = omega = 1.  CSV cells
carry 12 significant digits under a fixed header, so a seeded rerun
reproduces its artifact byte for byte.

Exit codes: 0 on success, 2 for configuration problems (the command line
included), 3 when the numerics refuse (positivity loss, truncation leak,
failed search, a non-finite cell).
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
import time
import warnings
from typing import Callable, NamedTuple

import numpy as np

from . import criteria, fock, loop, moments, oracle, search
from .errors import ConfigError, NonFiniteCell, ToolkitError, check_budget, sig
from .scales import (DerivedScales, FeedbackConfig, TrapConfig, classify_regime,
                     continuous_limit_params, derive_scales, same_feedback)

_STATE_KEYS = {
    "condensate": {"kind", "m", "displacement", "squeeze", "orbital"},
    "occupation": {"kind", "occupation"},
    "superposition": {"kind", "m", "terms"},
    "thermal": {"kind", "m", "temperature", "cutoff"},
}

_MOMENT_HEADER = [
    "t", "mean_x", "mean_p", "mean_Xbar", "mean_Pbar",
    "cov_xx", "cov_xp", "cov_xXbar", "cov_xPbar",
    "cov_pp", "cov_pXbar", "cov_pPbar",
    "cov_XbarXbar", "cov_XbarPbar", "cov_PbarPbar", "dx",
]


# ---------------------------------------------------------------------------
# configuration: the key parsers, (value, key) -> typed value or ConfigError,
# and the key table; RunConfig parses every key before any subcommand runs


def _load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    # ValueError: not JSON, not UTF-8, or an integer of over 4300 digits
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return _as_object(doc, "config root")


def _as_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if isinstance(value, float):
        if not value.is_integer():
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        value = int(value)
    return int(value)


def _int_in(low: int, budget: str | None = None):
    """The parser of an integer >= low, and within the named budget if given."""
    def parse(value, key: str) -> int:
        number = _as_int(value, key)
        if number < low:
            raise ConfigError(f"{key} must be >= {low}, got {sig(number)}")
        if budget is not None:
            check_budget(budget, number, key)
        return number
    return parse


_as_rows = _int_in(2, "grid")  # the row count of a CSV grid


def _as_float(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # a JSON integer past the float range
        raise ConfigError(f"{key} must be in the float range, got {sig(value)}") from None


def _as_t_max(value, key: str) -> float:
    t_max = _as_float(value, key)
    if not (math.isfinite(t_max) and t_max > 0):
        raise ConfigError(f"{key} must be finite and > 0, got {t_max!r}")
    return t_max


def _of_type(kind: type, what: str):
    """The parser of a value of one JSON type, called `what` when refused."""
    def parse(value, key: str):
        if not isinstance(value, kind):
            raise ConfigError(f"{key} must be {what}, got {type(value).__name__}")
        return value
    return parse


_as_bool, _as_str = _of_type(bool, "true or false"), _of_type(str, "a string")
_as_path, _as_object = _of_type(str, "a path string"), _of_type(dict, "an object")


def _as_engine(value, key: str) -> str:
    if _as_str(value, key) != "moments":
        raise ConfigError(f"evolve runs the moment flow (engine moments), got engine "
                          f"{value!r}; the exact oracle is the oracle subcommand")
    return value


def _or_none(parse):
    """The parser of a key that a JSON null leaves absent."""
    return lambda value, key: None if value is None else parse(value, key)


def _as_occupation(occ, m: int | None, trap: TrapConfig) -> list:
    """A list of nonnegative integers holding the trap's atoms (m of them if given)."""
    if (not isinstance(occ, list) or not occ or (m is not None and len(occ) != m)
            or not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0
                       for v in occ)):
        shown = f"[{', '.join(map(sig, occ))}]" if isinstance(occ, list) else sig(occ)
        raise ConfigError(f"occupation must list nonnegative integers ({m or 'any'} of them), "
                          f"got {shown}")
    if sum(occ) != trap.atom_count:
        raise ConfigError(f"occupation holds {sig(sum(occ))} atoms but the trap has "
                          f"{sig(trap.atom_count)}")
    return occ


def _as_complex(pair, key: str) -> complex:
    if not isinstance(pair, list) or len(pair) != 2:
        raise ConfigError(f"{key} must be an [re, im] pair, got {pair!r}")
    value = complex(_as_float(pair[0], key), _as_float(pair[1], key))
    if not cmath.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {pair!r}")
    return value


class _Key(NamedTuple):
    default: object  # read when the key is absent; a function of the trap if it depends on it
    parse: Callable  # (value, key) -> typed value
    flag: type | None = None  # type of the --key flag; None: no flag
    help: str = ""


# every top-level key; the flags, their overrides and the unknown-key check
# all come from here
_KEYS = {
    "n": _Key(1, _as_int, int, "atom count"),
    "mass": _Key(1.0, _as_float, float, "atom mass"),
    "omega": _Key(1.0, _as_float, float, "trap frequency"),
    "hbar": _Key(1.0, _as_float, float, "reduced Planck constant"),
    "zeta": _Key(None, _or_none(_as_float), float, "feedback shift rate"),
    "sigma": _Key(None, _or_none(_as_float), float, "integrated measurement resolution"),
    "gamma": _Key(None, _or_none(_as_float), float, "loop event rate"),
    "sigma0": _Key(None, _or_none(_as_float), float, "single-shot resolution"),
    "zeta0": _Key(None, _or_none(_as_float), float, "single-shot kick gain"),
    "seed": _Key(0, _int_in(0), int, "rng seed"),
    "out": _Key(None, _or_none(_as_path), str, "output artifact path (default stdout)"),
    "state": _Key(None, _or_none(_as_object)),
    "task": _Key({}, _as_object),
}

# what a task may need besides its keys, as a refusal names it
_NEEDS = {"feedback": "feedback parameters (zeta and sigma, or the discrete triple)",
          "discrete": "the discrete triple gamma, sigma0, zeta0",
          "t_max": "task parameter t_max"}


def _parsed(keys: dict, section: dict, what: str, trap: TrapConfig | None = None) -> dict:
    """Each key of a table parsed from the section, or from its default."""
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    values = {}
    for key, spec in keys.items():
        value = section.get(key, spec.default)
        values[key] = spec.parse(value(trap) if callable(value) else value, key)
    return values


class RunConfig:
    """Validated run description: trap, optional feedback forms, state, and in
    params every key of the task, parsed, with its default where it is absent."""

    def __init__(self, task: str, doc: dict, overrides: dict):
        spec = _TASKS.get(task)
        if spec is None:
            raise ConfigError(f"unknown task {task!r}")
        top = _parsed(_KEYS, {**doc, **{k: v for k, v in overrides.items() if v is not None}},
                      "config")

        self.task = task
        self.trap = TrapConfig(atom_count=top["n"], mass=top["mass"],
                               trap_freq=top["omega"], hbar=top["hbar"])

        pair, triple = (top["zeta"], top["sigma"]), (top["gamma"], top["sigma0"], top["zeta0"])
        for group, names in ((pair, "zeta and sigma"), (triple, "gamma, sigma0 and zeta0")):
            if None in group and set(group) != {None}:
                raise ConfigError(f"{names} must be given together")
        self.feedback = None if None in pair else FeedbackConfig(*pair)
        self.discrete = None if None in triple else triple
        if self.discrete:
            sigma, zeta = continuous_limit_params(*self.discrete)
            limit = FeedbackConfig(shift_rate=zeta, meas_resolution=sigma)
            if self.feedback is None:
                self.feedback = limit
            elif not same_feedback(self.feedback, limit):
                raise ConfigError("discrete triple inconsistent with (zeta, sigma): "
                                  f"expected ({zeta!r}, {sigma!r})")

        self.state_doc, self.seed, self.out = top["state"], top["seed"], top["out"]
        name = top["task"].get("name")
        if name is not None and name != task:
            raise ConfigError(f"config task name {name!r} does not match subcommand {task!r}")
        self.params = _parsed(spec.keys, {k: v for k, v in top["task"].items() if k != "name"},
                              f"{task} task", self.trap)


def _state_basis(doc: dict | None, trap: TrapConfig) -> tuple[dict, fock.OrbitalBasis]:
    """(state section, its orbital basis): kind and keys checked, no Fock work."""
    if doc is None:
        doc = {"kind": "condensate", "m": 6}
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _STATE_KEYS:
        raise ConfigError(f"state kind must be one of {sorted(_STATE_KEYS)}, got {sig(kind)}")
    unknown = set(doc) - _STATE_KEYS[kind]
    if unknown:
        raise ConfigError(f"unknown state keys for kind {kind!r}: {sorted(unknown)}")
    if kind == "occupation":
        m = len(_as_occupation(doc.get("occupation"), None, trap))
    else:
        m = _as_int(doc.get("m", 6), "state.m")
    return doc, fock.OrbitalBasis(mode_count=m, trap=trap)


def build_state(doc: dict | None, trap: TrapConfig):
    """State section -> (state, basis).  Default: ground condensate, 6 modes."""
    doc, basis = _state_basis(doc, trap)
    kind, m = doc["kind"], basis.mode_count
    if kind == "occupation":
        return fock.basis_state(doc["occupation"]), basis

    if kind == "condensate":
        chosen = [k for k in ("displacement", "squeeze", "orbital") if k in doc]
        if len(chosen) > 1:
            raise ConfigError(f"condensate takes at most one of {chosen}")
        if "displacement" in doc:
            orb = fock.displaced_orbital(basis, _as_float(doc["displacement"], "displacement"))
        elif "squeeze" in doc:
            orb = fock.squeezed_orbital(basis, _as_float(doc["squeeze"], "squeeze"))
        elif "orbital" in doc:
            pairs = doc["orbital"]
            if not isinstance(pairs, list) or len(pairs) != m:
                raise ConfigError(f"orbital must list {m} [re, im] pairs")
            orb = np.array([_as_complex(p, "orbital entry") for p in pairs])
            norm = np.linalg.norm(orb)
            if not norm >= 1e-12:
                raise ConfigError("orbital vector has zero norm")
            orb = orb / norm
        else:
            orb = np.zeros(m, dtype=complex)
            orb[0] = 1.0
        return fock.condensate_state(orb, trap.atom_count), basis

    if kind == "superposition":
        terms = doc.get("terms")
        if not isinstance(terms, list) or not terms:
            raise ConfigError("superposition needs a nonempty terms list")
        amp, given = {}, 0.0
        for term in terms:
            term = _as_object(term, "superposition term")
            unknown = set(term) - {"occupation", "amp"}
            if unknown:
                raise ConfigError(f"unknown superposition term keys: {sorted(unknown)}")
            occ = tuple(_as_occupation(term.get("occupation"), m, trap))
            a = _as_complex(term.get("amp"), "term amp")
            amp[occ] = amp.get(occ, 0.0) + a
            given = max(given, abs(a.real), abs(a.imag))
        # |amp|^2 overflows from 1.3e154 on: larger amplitudes are first scaled
        # by an exact power of two, and in-range ones keep their bits
        big = max(max(abs(v.real), abs(v.imag)) for v in amp.values())
        if not math.isfinite(big):
            raise ConfigError("superposition amplitudes add up past the float range")
        scale = 2.0 ** -math.frexp(big)[1] if big > 2.0**500 else 1.0
        vals = [v * scale for v in amp.values()]
        total = math.sqrt(sum(abs(v) ** 2 for v in vals))
        # cancelled: the summed norm is lost against the largest amplitude given
        if not total > 1e-12 * scale * given:
            raise ConfigError("superposition terms cancel to zero")
        return fock.FockState(n=trap.atom_count, m=m, occ=list(amp),
                              amp=[v / total for v in vals]), basis

    temperature = doc.get("temperature")
    if temperature is None:
        raise ConfigError("thermal state needs a temperature")
    cutoff = doc.get("cutoff")
    if cutoff is None:
        raise ConfigError("thermal state needs an energy cutoff")
    return fock.thermal_ensemble(basis, _as_float(temperature, "temperature"),
                                 trap.atom_count,
                                 energy_cutoff=_as_float(cutoff, "cutoff")), basis


# ---------------------------------------------------------------------------
# emission


def _write(target: str | None, chunks) -> None:
    if target is None:
        sys.stdout.writelines(chunks)
    else:
        with open(target, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)


def write_csv(target: str | None, columns: dict) -> None:
    """Named columns of equal length, written 4096 rows at a time once all are checked.

    Floats print as %.11e (12 significant digits), integers in full,
    booleans as true/false and strings as given; a non-finite float is
    refused.
    """
    formats, cols = [], []
    for col in map(np.asarray, columns.values()):
        if col.dtype.kind == "f" and not np.isfinite(col).all():
            bad = float(col[~np.isfinite(col)][0])
            raise NonFiniteCell(f"refusing to write the non-finite cell {bad!r}")
        if col.dtype.kind == "b":
            col = np.where(col, "true", "false")
        formats.append({"f": "%.11e", "i": "%d", "u": "%d"}.get(col.dtype.kind, "%s"))
        cols.append(col)
    # 4096 rows of 16 float columns hold about 4 MiB of Python cells at once
    line, rows = ",".join(formats) + "\n", min(map(len, cols), default=0)
    _write(target, itertools.chain([",".join(columns) + "\n"], (
        "".join(line % row for row in zip(*(col[lo:lo + 4096].tolist() for col in cols)))
        for lo in range(0, rows, 4096))))


def write_json(target: str | None, doc: dict) -> None:
    _write(target, [json.dumps(doc, indent=2) + "\n"])


# ---------------------------------------------------------------------------
# operations


def scan_eta(trap: TrapConfig, zeta: float, eta_min: float, eta_max: float,
             steps: int) -> list[dict]:
    """Regime table over a geometric eta grid at fixed trap and shift rate."""
    steps = _as_rows(steps, "steps")
    if not (eta_min > 0 and eta_max > eta_min and math.isfinite(eta_max)):
        raise ConfigError(f"need 0 < eta_min < eta_max, got ({eta_min!r}, {eta_max!r})")
    if not zeta * eta_min > 0:  # the smallest zeta * eta, which must not underflow to 0
        raise ConfigError(f"scan needs zeta > 0 and zeta * eta_min > 0, got zeta {zeta!r}")
    dx0_sq = trap.hbar / (2.0 * trap.atom_count * trap.mass * trap.trap_freq)

    def point(eta: float) -> dict:
        fb = FeedbackConfig(shift_rate=zeta,
                            meas_resolution=math.sqrt(dx0_sq / (zeta * eta)))
        s = derive_scales(trap, fb)
        regime = classify_regime(trap.atom_count, s.eta)
        return {"eta": s.eta, "dX0": s.dX0, "dx0": s.dx0, "DXs": s.DXs,
                "regime": regime.kind.value}

    return [point(float(eta)) for eta in np.geomspace(eta_min, eta_max, steps)]


def _curve_inputs(trap: TrapConfig, fb: FeedbackConfig, samples,
                  include_transient: bool) -> tuple:
    """(times, scales, moment generators or None) of a curve; needs no state."""
    times = np.linspace(0.0, math.pi / trap.trap_freq, samples)
    g = moments.build_generators(trap, fb) if include_transient else None
    return times, derive_scales(trap, fb), g


def _health(state: fock.FockState, flow: moments.MomentGrid | None) -> dict:
    """The weight the state's cutoff left out, and the PSD clips of a moment
    grid, none without one."""
    clips, low = (0, 0.0) if flow is None else (flow.psd_clips, flow.psd_clip_min)
    return {"truncation_loss": state.truncation_loss, "psd_clips": clips, "psd_clip_min": low}


def _curve(h: criteria.QuadratureHarmonics, state, basis, times: np.ndarray,
           s: DerivedScales, g: moments.DriftDiffusion | None) -> tuple[dict, dict]:
    """(columns, health) of a breathing curve; dx is the moment flow's."""
    ts = times.tolist()
    columns = {"t": ts, "sigma_q_sq": [h.value(t) for t in ts],
               "dxa": [criteria.asymptotic_cloud_size(s, h, t) for t in ts],
               "dx0": [s.dx0] * len(ts), "DXs": [s.DXs] * len(ts)}
    flow = None
    if g is not None:
        flow = moments.evolve_grid(moments.init_moments(state, basis), g, times)
        columns["dx"] = moments.cloud_size(flow).tolist()
    return columns, _health(state, flow)


def _moment_columns(times, grid: moments.MomentGrid) -> dict:
    """The _MOMENT_HEADER columns of a moment grid; a single atom's
    collective ones are zero."""
    mean, cov = grid.mean, grid.cov
    dim = mean.shape[1]
    if dim < 4:
        mean = np.pad(mean, ((0, 0), (0, 4 - dim)))
        cov = np.pad(cov, ((0, 0), (0, 4 - dim), (0, 4 - dim)))
    i, j = np.triu_indices(4)
    return dict(zip(_MOMENT_HEADER, [times, *mean.T, *cov[:, i, j].T,
                                     moments.cloud_size(grid)]))


# ---------------------------------------------------------------------------
# subcommands: each computes from cfg.params and returns (artifact, record
# fields, searched state document or None); it writes nothing


def _cmd_scales(cfg: RunConfig) -> tuple:
    s = derive_scales(cfg.trap, cfg.feedback)
    return {k: float(f"{v:.15g}") for k, v in dataclasses.asdict(s).items()}, {}, None


def _cmd_criteria(cfg: RunConfig) -> tuple:
    p = cfg.params
    times, s, g = _curve_inputs(cfg.trap, cfg.feedback, p["samples"], p["include_transient"])
    state, basis = build_state(cfg.state_doc, cfg.trap)
    h = criteria.quadrature_harmonics(state, basis)
    report = criteria.evaluate_criteria(s, h)
    columns, health = _curve(h, state, basis, times, s, g)
    health.update(rows=len(state.occ), leak_headroom=fock.leak_headroom(state))
    return columns, {"min_dxa": report.min_dxa, "t_star": report.t_star,
                     "qs": report.qs_violated, "schwarz": report.schwarz_violated,
                     "dx0": report.dx0, "DXs": report.DXs,
                     "min_sigma_q_sq": report.min_sigma_q_sq,
                     "notes": list(report.notes), "health": health}, None


def _cmd_evolve(cfg: RunConfig) -> tuple:
    g = moments.build_generators(cfg.trap, cfg.feedback)
    state, basis = build_state(cfg.state_doc, cfg.trap)
    m0 = moments.init_moments(state, basis)
    times = np.linspace(0.0, cfg.params["t_max"], cfg.params["samples"])
    flow = moments.evolve_grid(m0, g, times)
    return _moment_columns(times, flow), {"health": _health(state, flow)}, None


def _cmd_oracle(cfg: RunConfig) -> tuple:
    p = cfg.params
    # every stride-th instant of the step clock and its last, t_max
    clock = oracle.step_times(cfg.trap, p["t_max"], p["dt"])
    times = np.append(clock[:-1:p["stride"]], clock[-1])
    start = time.perf_counter()
    # the generator refuses an oversized sector before the state is enumerated
    m = _state_basis(cfg.state_doc, cfg.trap)[1].mode_count
    gen = oracle.build_generator(cfg.trap, cfg.feedback, m)
    state, _ = build_state(cfg.state_doc, cfg.trap)
    rho0 = oracle.DensityMatrix.from_state(state)
    built = time.perf_counter()
    traj = oracle.integrate(rho0, gen, times)
    done = time.perf_counter()
    return {**_moment_columns(traj.times, traj.moments),
            "trace_err": traj.trace_err, "top_pop": traj.top_pop}, {
        "instants": len(traj.times),
        "sector_dim": len(gen.h_diag),
        "timings_s": {"build": built - start, "propagate": done - built},
        "health": {"max_trace_err": float(traj.trace_err.max()),
                   "max_top_pop": float(traj.top_pop.max()),
                   "min_eigenvalue": float(traj.min_eig.min()),
                   "sectors": traj.sectors, **_health(state, traj.moments)},
    }, None


def _cmd_loop(cfg: RunConfig) -> tuple:
    p = cfg.params
    lcfg = loop.LoopConfig(*cfg.discrete, schedule=p["schedule"], rng_seed=cfg.seed,
                           trajectories=p["trajectories"])
    loop.plan_run(lcfg, cfg.trap, p["t_max"], p["record_stride"])
    state, basis = build_state(cfg.state_doc, cfg.trap)
    init = moments.init_moments(state, basis)
    traj = loop.run_ensemble(init, lcfg, cfg.trap, p["t_max"], record_stride=p["record_stride"])
    # n_events holds the ensemble's mean count; the column prints its whole part
    return {"t": traj.times, "mean_X": traj.mean_X, "var_X": traj.var_X,
            "mean_P": traj.mean_P, "var_P": traj.var_P,
            "n_events": traj.n_events.astype(int)}, {
        "gamma": lcfg.gamma, "sigma0": lcfg.sigma0, "zeta0": lcfg.zeta0, "K": lcfg.trajectories,
        "spectral_radius": traj.spectral_radius, "traj_events": traj.traj_events,
        "health": {"draws": traj.draws, "draws_unread": traj.draws_unread,
                   "truncation_loss": state.truncation_loss}}, None


def _cmd_scan(cfg: RunConfig) -> tuple:
    p = cfg.params
    zeta = cfg.feedback.shift_rate if cfg.feedback is not None else 1.0
    rows = scan_eta(cfg.trap, zeta, p["eta_min"], p["eta_max"], p["steps"])
    return {key: [row[key] for row in rows] for key in rows[0]}, {}, None


def _cmd_search(cfg: RunConfig) -> tuple:
    p = cfg.params
    spec = search.SearchSpec(n=cfg.trap.atom_count, m=p["m"], family=p["family"],
                             restarts=p["restarts"], max_iter=p["max_iter"], tol=p["tol"],
                             seed=cfg.seed)
    state, value, report = search.search_state(spec, cfg.trap)
    doc = None
    if p["state_out"] is not None:
        # a fixed-N state as the superposition section that build_state reads
        doc = ({"kind": "superposition", "m": state.m,
                "terms": [{"occupation": occ, "amp": [a.real, a.imag]}
                          for occ, a in zip(state.occ.tolist(), state.amp.tolist())]}
               if isinstance(state, fock.FockState) else
               {"family": spec.family,
                "alpha": [[float(a.real), float(a.imag)] for a in state],
                "mean_n": float(np.vdot(state, state).real)})
    rows = report["rows"]
    return {key: [row[key] for row in rows] for key in rows[0]}, {
        "family": spec.family,
        "best_value": report["best_value"],
        "best_restart": report["best_restart"],
        "evaluations": report["evaluations"],
        "timings_s": report["timings_s"],
        "health": {"converged": sum(r["converged"] for r in rows)},
    }, doc


class _Task(NamedTuple):
    run: Callable  # RunConfig -> (artifact, record fields, state document or None)
    needs: tuple  # keys of _NEEDS the run cannot do without
    keys: dict  # task key -> _Key


_T_MAX = _Key(lambda trap: 6.0 * math.pi / trap.trap_freq, _as_t_max)  # six trap periods
# every subcommand, with what it needs and each of its task keys
_TASKS = {
    "scales": _Task(_cmd_scales, ("feedback",), {}),
    "criteria": _Task(_cmd_criteria, ("feedback",), {
        "samples": _Key(129, _as_rows), "include_transient": _Key(False, _as_bool)}),
    "evolve": _Task(_cmd_evolve, ("feedback",), {
        "engine": _Key("moments", _as_engine), "t_max": _T_MAX,
        "samples": _Key(301, _as_rows)}),
    "oracle": _Task(_cmd_oracle, ("feedback",), {
        "t_max": _T_MAX, "dt": _Key(None, _or_none(_as_float)),
        "stride": _Key(10, _int_in(1))}),
    "loop": _Task(_cmd_loop, ("discrete", "t_max"), {
        "t_max": _Key(None, _or_none(_as_t_max)), "schedule": _Key("regular", _as_str),
        "trajectories": _Key(1000, _as_int), "record_stride": _Key(1, _as_int)}),
    "scan": _Task(_cmd_scan, (), {
        "eta_min": _Key(1e-2, _as_float), "eta_max": _Key(1e2, _as_float),
        "steps": _Key(25, _as_rows)}),
    "search": _Task(_cmd_search, (), {
        "m": _Key(3, _as_int), "family": _Key("fixed_N_pure", _as_str),
        "restarts": _Key(8, _as_int), "max_iter": _Key(20000, _as_int),
        "tol": _Key(1e-9, _as_float), "state_out": _Key(None, _or_none(_as_path))}),
}


# ---------------------------------------------------------------------------
# command line


class _Parser(argparse.ArgumentParser):
    """A command-line error is a ConfigError, reported on its JSON line."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache  # parse_args leaves the parser unchanged; build it once
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration")
    for key, spec in _KEYS.items():
        if spec.flag is not None:
            common.add_argument(f"--{key}", type=spec.flag, help=spec.help)

    parser = _Parser(
        prog="cloudfeedback",
        description="Cloud-size dynamics of a trapped ideal Bose gas "
                    "under center-of-mass feedback.",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for task in _TASKS:
        sub.add_parser(task, parents=[common])
    return parser


def _drop_stdout() -> int:
    # downstream consumer closed the pipe (head, less); not our error
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 141


def cli_main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        doc = _load_document(args.config) if args.config else {}
        cfg = RunConfig(args.task, doc, {key: getattr(args, key)
                                         for key, spec in _KEYS.items() if spec.flag})
        task = _TASKS[args.task]
        given = {"feedback": cfg.feedback, "discrete": cfg.discrete, **cfg.params}
        for need in task.needs:
            if given[need] is None:
                raise ConfigError(f"task {args.task!r} needs {_NEEDS[need]}")
        start = time.perf_counter()
        # warnings go into the record, under the caller's filters: one an
        # "error" filter turns into an exception still raises
        with warnings.catch_warnings(record=True) as caught:
            artifact, record, state = task.run(cfg)
        computed = time.perf_counter()
        if caught:
            record["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
        (write_json if args.task == "scales" else write_csv)(cfg.out, artifact)
        if state is not None:  # the searched state, once the artifact is out
            write_json(cfg.params["state_out"], state)
        # the phases a task times itself sit beside its compute and write
        timings = {"compute": computed - start, "write": time.perf_counter() - computed,
                   **record.pop("timings_s", {})}
        from . import __version__

        sys.stderr.write(json.dumps({"task": args.task, "version": __version__,
                                     "seed": cfg.seed, "timings_s": timings, **record}) + "\n")
        return 0
    except BrokenPipeError:
        return _drop_stdout()
    except (ToolkitError, OSError) as exc:
        # the error line in place of the record: exit 2 for a refused
        # configuration or an unreadable file, 3 for refused numerics
        doc = {"error": type(exc).__name__, "detail": str(exc)}
        if getattr(exc, "report", None) is not None:
            doc["report"] = exc.report
        sys.stderr.write(json.dumps(doc) + "\n")
        return 2 if isinstance(exc, (ConfigError, OSError)) else 3


def main() -> None:
    code = cli_main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = _drop_stdout()
    sys.exit(code)
