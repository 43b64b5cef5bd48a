"""Command line and file plumbing: one JSON config in, CSV/JSON artifacts out.

The config is a single document whose top-level keys the CLI flags mirror
one to one (--n, --zeta, --gamma, ...); flags win over the file.  Physical
defaults are hbar = m = omega = 1.  Each subcommand computes and returns
its artifact (named CSV columns, or the scales document) and the fields of
its run record; `cli_main` alone writes them: the artifact, then one stderr
JSON line with the task, version, seed and timings.  Numeric CSV cells are
printed with 12 significant digits under a fixed header, so a seeded rerun
of any subcommand reproduces its artifact byte for byte.

Exit codes: 0 on success, 2 for configuration problems, 3 when the numerics
refuse (positivity loss, truncation leak, failed search, a non-finite cell).
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import criteria, fock, loop, moments, oracle, search
from .errors import ConfigError, NonFiniteCell, ToolkitError
from .scales import (DerivedScales, FeedbackConfig, TrapConfig, classify_regime,
                     continuous_limit_params, derive_scales, same_feedback)

TASKS = ("scales", "criteria", "evolve", "oracle", "loop", "scan", "search")

_TOP_KEYS = frozenset({
    "n", "mass", "omega", "hbar", "zeta", "sigma", "gamma", "sigma0", "zeta0",
    "seed", "out", "state", "task",
})

_STATE_KEYS = {
    "condensate": {"kind", "m", "displacement", "squeeze", "orbital"},
    "occupation": {"kind", "occupation"},
    "superposition": {"kind", "m", "terms"},
    "thermal": {"kind", "m", "temperature", "cutoff"},
}

_TASK_PARAMS = {
    "scales": frozenset(),
    "criteria": frozenset({"samples", "include_transient"}),
    "evolve": frozenset({"engine", "t_max", "samples"}),
    "oracle": frozenset({"t_max", "dt", "stride"}),
    "loop": frozenset({"t_max", "schedule", "trajectories", "record_stride"}),
    "scan": frozenset({"eta_min", "eta_max", "steps"}),
    "search": frozenset({"m", "family", "restarts", "max_iter", "tol",
                         "state_out"}),
}

# most rows a criteria, evolve or scan grid may ask for, checked before the
# grid is built: an evolve row costs one matrix exponential
_GRID_ROWS = 100_000

_MOMENT_HEADER = [
    "t", "mean_x", "mean_p", "mean_Xbar", "mean_Pbar",
    "cov_xx", "cov_xp", "cov_xXbar", "cov_xPbar",
    "cov_pp", "cov_pXbar", "cov_pPbar",
    "cov_XbarXbar", "cov_XbarPbar", "cov_PbarPbar", "dx",
]


# ---------------------------------------------------------------------------
# configuration assembly


def _load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(doc).__name__}")
    return doc


def _as_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if isinstance(value, float):
        if not value.is_integer():
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        value = int(value)
    return int(value)


def _as_rows(value, key: str) -> int:
    """The row count of a CSV grid: an integer in [2, _GRID_ROWS]."""
    rows = _as_int(value, key)
    if not 2 <= rows <= _GRID_ROWS:
        raise ConfigError(f"{key} must be in [2, {_GRID_ROWS}], got {rows!r}")
    return rows


def _as_float(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _as_occupation(occ, m: int | None, trap: TrapConfig) -> list:
    """A list of nonnegative integers holding the trap's atoms (m of them if given)."""
    if (not isinstance(occ, list) or not occ or (m is not None and len(occ) != m)
            or not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0
                       for v in occ)):
        raise ConfigError(f"occupation must list nonnegative integers ({m or 'any'} of them), "
                          f"got {occ!r}")
    if sum(occ) != trap.atom_count:
        raise ConfigError(f"occupation holds {sum(occ)} atoms but the trap has {trap.atom_count}")
    return occ


def _as_complex(pair, key: str) -> complex:
    if not isinstance(pair, list) or len(pair) != 2:
        raise ConfigError(f"{key} must be an [re, im] pair, got {pair!r}")
    value = complex(_as_float(pair[0], key), _as_float(pair[1], key))
    if not cmath.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {pair!r}")
    return value


class RunConfig:
    """Validated run description: trap, optional feedback forms, state, task."""

    def __init__(self, task: str, doc: dict, overrides: dict):
        if task not in TASKS:
            raise ConfigError(f"unknown task {task!r}")
        unknown = set(doc) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged = dict(doc)
        merged.update({k: v for k, v in overrides.items() if v is not None})

        self.task = task
        self.trap = TrapConfig(
            atom_count=_as_int(merged.get("n", 1), "n"),
            mass=_as_float(merged.get("mass", 1.0), "mass"),
            trap_freq=_as_float(merged.get("omega", 1.0), "omega"),
            hbar=_as_float(merged.get("hbar", 1.0), "hbar"),
        )

        zeta = merged.get("zeta")
        sigma = merged.get("sigma")
        gamma = merged.get("gamma")
        sigma0 = merged.get("sigma0")
        zeta0 = merged.get("zeta0")
        discrete = [v for v in (gamma, sigma0, zeta0) if v is not None]
        if discrete and len(discrete) < 3:
            raise ConfigError("gamma, sigma0 and zeta0 must be given together")
        self.discrete = None
        if discrete:
            self.discrete = (_as_float(gamma, "gamma"), _as_float(sigma0, "sigma0"),
                             _as_float(zeta0, "zeta0"))

        if (zeta is None) != (sigma is None):
            raise ConfigError("zeta and sigma must be given together")
        self.feedback = None
        if zeta is not None:
            self.feedback = FeedbackConfig(shift_rate=_as_float(zeta, "zeta"),
                                           meas_resolution=_as_float(sigma, "sigma"))
        if self.discrete:
            sigma, zeta = continuous_limit_params(*self.discrete)
            limit = FeedbackConfig(shift_rate=zeta, meas_resolution=sigma)
            if self.feedback is None:
                self.feedback = limit
            elif not same_feedback(self.feedback, limit):
                raise ConfigError("discrete triple inconsistent with (zeta, sigma): "
                                  f"expected ({zeta!r}, {sigma!r})")

        state = merged.get("state")
        if state is not None and not isinstance(state, dict):
            raise ConfigError(f"state must be an object, got {type(state).__name__}")
        self.state_doc = state

        tdoc = merged.get("task", {})
        if not isinstance(tdoc, dict):
            raise ConfigError(f"task section must be an object, got {type(tdoc).__name__}")
        name = tdoc.get("name")
        if name is not None and name != task:
            raise ConfigError(f"config task name {name!r} does not match subcommand {task!r}")
        self.params = {k: v for k, v in tdoc.items() if k != "name"}
        stray = set(self.params) - _TASK_PARAMS[task]
        if stray:
            raise ConfigError(f"unknown {task} task keys: {sorted(stray)}")

        self.seed = _as_int(merged.get("seed", 0), "seed")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")
        out = merged.get("out")
        if out is not None and not isinstance(out, str):
            raise ConfigError(f"out must be a path string, got {out!r}")
        self.out = out

    def require_feedback(self) -> FeedbackConfig:
        if self.feedback is None:
            raise ConfigError(
                f"task {self.task!r} needs feedback parameters "
                "(zeta and sigma, or the discrete triple)"
            )
        return self.feedback

    def param(self, key: str, default=None):
        return self.params.get(key, default)


def _state_basis(doc: dict | None, trap: TrapConfig) -> tuple[dict, fock.OrbitalBasis]:
    """(state section, its orbital basis): kind and keys checked, no Fock work."""
    if doc is None:
        doc = {"kind": "condensate", "m": 6}
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _STATE_KEYS:
        raise ConfigError(f"state kind must be one of {sorted(_STATE_KEYS)}, got {kind!r}")
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
            if not isinstance(term, dict):
                raise ConfigError(f"superposition term must be an object, got {term!r}")
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


def _write(target: str | None, text: str) -> None:
    if target is None:
        sys.stdout.write(text)
    else:
        with open(target, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def write_csv(target: str | None, columns: dict) -> None:
    """Named columns of equal length, all formatted before anything is written.

    Floats print as %.11e (12 significant digits), integers in full,
    booleans as true/false and strings as given; a non-finite float is
    refused.
    """
    formats, cells = [], []
    for col in map(np.asarray, columns.values()):
        if col.dtype.kind == "f" and not np.isfinite(col).all():
            bad = float(col[~np.isfinite(col)][0])
            raise NonFiniteCell(f"refusing to write the non-finite cell {bad!r}")
        if col.dtype.kind == "b":
            col = np.where(col, "true", "false")
        formats.append({"f": "%.11e", "i": "%d", "u": "%d"}.get(col.dtype.kind, "%s"))
        cells.append(col.tolist())
    line = ",".join(formats)
    _write(target, "\n".join([",".join(columns), *(line % row for row in zip(*cells))]) + "\n")


def write_json(target: str | None, doc: dict) -> None:
    _write(target, json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# operations


def scan_eta(trap: TrapConfig, zeta: float, eta_min: float, eta_max: float,
             steps: int) -> list[dict]:
    """Regime table over a geometric eta grid at fixed trap and shift rate."""
    steps = _as_rows(steps, "steps")
    if not (eta_min > 0 and eta_max > eta_min and math.isfinite(eta_max)):
        raise ConfigError(f"need 0 < eta_min < eta_max, got ({eta_min!r}, {eta_max!r})")
    if not zeta > 0:
        raise ConfigError(f"scan needs zeta > 0, got {zeta!r}")
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
    times = np.linspace(0.0, math.pi / trap.trap_freq, _as_rows(samples, "samples"))
    g = moments.build_generators(trap, fb) if include_transient else None
    return times, derive_scales(trap, fb), g


def _curve(h: criteria.QuadratureHarmonics, state, basis, times: np.ndarray,
           s: DerivedScales, g: moments.DriftDiffusion | None) -> dict:
    ts = times.tolist()
    columns = {"t": ts, "sigma_q_sq": [h.value(t) for t in ts],
               "dxa": [criteria.asymptotic_cloud_size(s, h, t) for t in ts],
               "dx0": [s.dx0] * len(ts), "DXs": [s.DXs] * len(ts)}
    if g is not None:
        m0 = moments.init_moments(state, basis)
        columns["dx"] = [moments.cloud_size(moments.evolve(m0, g, t)) for t in ts]
    return columns


def _moment_columns(times, joint) -> dict:
    """The _MOMENT_HEADER columns; a single atom's collective ones are zero."""
    mean, cov = np.zeros((len(joint), 4)), np.zeros((len(joint), 4, 4))
    for k, m in enumerate(joint):
        dim = m.mean.shape[0]
        mean[k, :dim], cov[k, :dim, :dim] = m.mean, m.cov
    i, j = np.triu_indices(4)
    var = cov[:, 0, 0]
    return dict(zip(_MOMENT_HEADER, [times, *mean.T, *cov[:, i, j].T,
                                     np.sqrt(np.where(var < 0.0, 0.0, var))]))


# ---------------------------------------------------------------------------
# subcommands: each returns (artifact, record fields) and writes nothing


def _cmd_scales(cfg: RunConfig) -> tuple[dict, dict]:
    s = derive_scales(cfg.trap, cfg.require_feedback())
    return {k: float(f"{v:.15g}") for k, v in s.to_dict().items()}, {}


def _cmd_criteria(cfg: RunConfig) -> tuple[dict, dict]:
    fb = cfg.require_feedback()
    include_transient = cfg.param("include_transient", False)
    if not isinstance(include_transient, bool):
        raise ConfigError(f"include_transient must be true or false, got {include_transient!r}")
    times, s, g = _curve_inputs(cfg.trap, fb, cfg.param("samples", 129), include_transient)
    state, basis = build_state(cfg.state_doc, cfg.trap)
    h = criteria.quadrature_harmonics(state, basis)
    report = criteria.evaluate_criteria(s, h)
    return _curve(h, state, basis, times, s, g), {
        **report.to_dict(), "min_sigma_q_sq": report.min_sigma_q_sq, "notes": list(report.notes)}


def _cmd_evolve(cfg: RunConfig) -> tuple[dict, dict]:
    engine = cfg.param("engine", "moments")
    if engine != "moments":
        raise ConfigError(f"evolve runs the moment flow (engine moments), got engine "
                          f"{engine!r}; the exact oracle is the oracle subcommand")
    fb = cfg.require_feedback()
    t_max = _as_float(cfg.param("t_max", 6.0 * math.pi / cfg.trap.trap_freq), "t_max")
    samples = _as_rows(cfg.param("samples", 301), "samples")
    if not (math.isfinite(t_max) and t_max > 0):
        raise ConfigError(f"t_max must be finite and > 0, got {t_max!r}")
    g = moments.build_generators(cfg.trap, fb)
    state, basis = build_state(cfg.state_doc, cfg.trap)
    m0 = moments.init_moments(state, basis)
    times = np.linspace(0.0, t_max, samples)
    return _moment_columns(times, [moments.evolve(m0, g, t) for t in times.tolist()]), {}


def _cmd_oracle(cfg: RunConfig) -> tuple[dict, dict]:
    fb = cfg.require_feedback()
    t_max = _as_float(cfg.param("t_max", 6.0 * math.pi / cfg.trap.trap_freq), "t_max")
    if not t_max > 0:
        raise ConfigError(f"t_max must be > 0, got {t_max!r}")
    dt = cfg.param("dt")
    stride = _as_int(cfg.param("stride", 10), "stride")
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride!r}")
    # every stride-th instant of the step clock, and nothing in between
    times = oracle.step_times(cfg.trap, t_max,
                              None if dt is None else _as_float(dt, "dt"))[::stride]
    start = time.perf_counter()
    # the generator refuses an oversized sector before the state is enumerated
    gen = oracle.build_generator(cfg.trap, fb, _state_basis(cfg.state_doc, cfg.trap)[1])
    rho0 = oracle.DensityMatrix.from_state(*build_state(cfg.state_doc, cfg.trap))
    built = time.perf_counter()
    traj = oracle.integrate(rho0, gen, times)
    done = time.perf_counter()
    return {**_moment_columns(traj.times, traj.joint),
            "trace_err": traj.trace_err, "top_pop": traj.top_pop}, {
        "instants": len(traj.times),
        "sector_dim": len(gen.h_diag),
        "timings_s": {"build": built - start, "propagate": done - built},
        "health": {"max_trace_err": float(traj.trace_err.max()),
                   "max_top_pop": float(traj.top_pop.max()),
                   "min_eigenvalue": float(traj.min_eig.min()),
                   "sectors": traj.sectors},
    }


def _cmd_loop(cfg: RunConfig) -> tuple[dict, dict]:
    if cfg.discrete is None:
        raise ConfigError("loop needs the discrete triple gamma, sigma0, zeta0")
    gamma, sigma0, zeta0 = cfg.discrete
    t_max = cfg.param("t_max")
    if t_max is None:
        raise ConfigError("loop needs task parameter t_max")
    t_max = _as_float(t_max, "t_max")
    record_stride = _as_int(cfg.param("record_stride", 1), "record_stride")
    lcfg = loop.LoopConfig(
        gamma=gamma, sigma0=sigma0, zeta0=zeta0,
        schedule=cfg.param("schedule", "regular"),
        rng_seed=cfg.seed,
        trajectories=_as_int(cfg.param("trajectories", 1000), "trajectories"),
    )
    loop.plan_run(lcfg, cfg.trap, t_max, record_stride)
    state, basis = build_state(cfg.state_doc, cfg.trap)
    init = moments.init_moments(state, basis)
    traj = loop.run_ensemble(init, lcfg, cfg.trap, t_max, record_stride=record_stride)
    # n_events holds the ensemble's mean count; the column prints its whole part
    return {"t": traj.times, "mean_X": traj.mean_X, "var_X": traj.var_X,
            "mean_P": traj.mean_P, "var_P": traj.var_P,
            "n_events": traj.n_events.astype(int)}, traj.summary()


def _cmd_scan(cfg: RunConfig) -> tuple[dict, dict]:
    zeta = cfg.feedback.shift_rate if cfg.feedback is not None else 1.0
    rows = scan_eta(
        cfg.trap,
        zeta,
        _as_float(cfg.param("eta_min", 1e-2), "eta_min"),
        _as_float(cfg.param("eta_max", 1e2), "eta_max"),
        cfg.param("steps", 25),
    )
    return {key: [row[key] for row in rows] for key in rows[0]}, {}


def _cmd_search(cfg: RunConfig) -> tuple[dict, dict]:
    state_out = cfg.param("state_out")
    if state_out is not None and not isinstance(state_out, str):
        raise ConfigError(f"state_out must be a path string, got {state_out!r}")
    spec = search.SearchSpec(
        n=cfg.trap.atom_count,
        m=_as_int(cfg.param("m", 3), "m"),
        family=cfg.param("family", "fixed_N_pure"),
        restarts=_as_int(cfg.param("restarts", 8), "restarts"),
        max_iter=_as_int(cfg.param("max_iter", 20000), "max_iter"),
        tol=_as_float(cfg.param("tol", 1e-9), "tol"),
        seed=cfg.seed,
    )
    state, value, report = search.search_state(spec, cfg.trap)
    if state_out is not None:
        if isinstance(state, fock.FockState):
            doc = fock.state_to_dict(state)
        else:
            doc = {"family": spec.family,
                   "alpha": [[float(a.real), float(a.imag)] for a in state],
                   "mean_n": float(np.vdot(state, state).real)}
        write_json(state_out, doc)
    rows = report["rows"]
    return {key: [row[key] for row in rows] for key in rows[0]}, {
        "family": spec.family,
        "best_value": report["best_value"],
        "best_restart": report["best_restart"],
        "evaluations": report["evaluations"],
        "timings_s": report["timings_s"],
        "health": {"converged": sum(r["converged"] for r in rows)},
    }


_DISPATCH = {
    "scales": _cmd_scales,
    "criteria": _cmd_criteria,
    "evolve": _cmd_evolve,
    "oracle": _cmd_oracle,
    "loop": _cmd_loop,
    "scan": _cmd_scan,
    "search": _cmd_search,
}


# ---------------------------------------------------------------------------
# command line


@functools.cache  # parse_args leaves the parser unchanged; build it once
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration")
    common.add_argument("--out", help="output artifact path (default stdout)")
    common.add_argument("--seed", type=int, help="rng seed")
    common.add_argument("--n", type=int, help="atom count")
    common.add_argument("--mass", type=float, help="atom mass")
    common.add_argument("--omega", type=float, help="trap frequency")
    common.add_argument("--hbar", type=float, help="reduced Planck constant")
    common.add_argument("--zeta", type=float, help="feedback shift rate")
    common.add_argument("--sigma", type=float, help="integrated measurement resolution")
    common.add_argument("--gamma", type=float, help="loop event rate")
    common.add_argument("--sigma0", type=float, help="single-shot resolution")
    common.add_argument("--zeta0", type=float, help="single-shot kick gain")

    parser = argparse.ArgumentParser(
        prog="cloudfeedback",
        description="Cloud-size dynamics of a trapped ideal Bose gas "
                    "under center-of-mass feedback.",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        sub.add_parser(task, parents=[common])
    return parser


def _drop_stdout() -> int:
    # downstream consumer closed the pipe (head, less); not our error
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 141


def cli_main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in (
        "n", "mass", "omega", "hbar", "zeta", "sigma", "gamma", "sigma0",
        "zeta0", "seed", "out")}
    try:
        doc = _load_document(args.config) if args.config else {}
        cfg = RunConfig(args.task, doc, overrides)
        start = time.perf_counter()
        # warnings go into the record, under the caller's filters: one an
        # "error" filter turns into an exception still raises
        with warnings.catch_warnings(record=True) as caught:
            artifact, record = _DISPATCH[args.task](cfg)
        timings = {"compute": time.perf_counter() - start}
        if caught:
            record["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
        (write_json if args.task == "scales" else write_csv)(cfg.out, artifact)
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
