"""Command line and file plumbing: one JSON config in, CSV/JSON artifacts out.

The config is a single document whose top-level keys the CLI flags mirror
one to one (--n, --zeta, --gamma, ...); flags win over the file.  Physical
defaults are hbar = m = omega = 1.  Numeric CSV cells are printed with 12
significant digits and a fixed header, so a seeded rerun of any subcommand
reproduces its artifact byte for byte; run summaries go to stderr as JSON
and never contaminate the data stream.

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


def build_state(doc: dict | None, trap: TrapConfig):
    """State section -> (state, basis).  Default: ground condensate, 6 modes."""
    if doc is None:
        doc = {"kind": "condensate", "m": 6}
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _STATE_KEYS:
        raise ConfigError(f"state kind must be one of {sorted(_STATE_KEYS)}, got {kind!r}")
    unknown = set(doc) - _STATE_KEYS[kind]
    if unknown:
        raise ConfigError(f"unknown state keys for kind {kind!r}: {sorted(unknown)}")

    if kind == "occupation":
        occ = _as_occupation(doc.get("occupation"), None, trap)
        basis = fock.OrbitalBasis(mode_count=len(occ), trap=trap)
        return fock.basis_state(occ), basis

    m = _as_int(doc.get("m", 6), "state.m")
    basis = fock.OrbitalBasis(mode_count=m, trap=trap)

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
        amp = {}
        for term in terms:
            if not isinstance(term, dict):
                raise ConfigError(f"superposition term must be an object, got {term!r}")
            occ = tuple(_as_occupation(term.get("occupation"), m, trap))
            amp[occ] = amp.get(occ, 0.0) + _as_complex(term.get("amp"), "term amp")
        total = math.sqrt(sum(abs(v) ** 2 for v in amp.values()))
        if not total >= 1e-12:
            raise ConfigError("superposition terms cancel to zero")
        return fock.FockState(n=trap.atom_count, m=m, occ=list(amp),
                              amp=[v / total for v in amp.values()]), basis

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


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if not math.isfinite(value):
        raise NonFiniteCell(f"refusing to write the non-finite cell {value!r}")
    return f"{value:.11e}"


def write_csv(target: str | None, header: list[str], rows) -> None:
    """Header and rows, all formatted before anything is written."""
    lines = [",".join(header)]
    lines.extend(",".join(_cell(c) for c in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if target is None:
        sys.stdout.write(text)
    else:
        with open(target, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def write_json(target: str | None, doc: dict) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if target is None:
        sys.stdout.write(text)
    else:
        with open(target, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _sig15(value: float) -> float:
    return float(f"{value:.15g}")


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


def breathing_curve(state, basis, trap: TrapConfig, fb: FeedbackConfig,
                    samples: int = 129, include_transient: bool = False):
    """Half-period cloud-size curve -> (header, rows).

    Columns: t, sigma_q_sq, dxa and the two constant thresholds; with the
    transient included, a final dx column holds the full moments evolution
    from t = 0 on the same grid.
    """
    times, s, g = _curve_inputs(trap, fb, samples, include_transient)
    return _curve(criteria.quadrature_harmonics(state, basis), state, basis, times, s, g)


def _curve_inputs(trap: TrapConfig, fb: FeedbackConfig, samples,
                  include_transient: bool) -> tuple:
    """(times, scales, moment generators or None) of a curve; needs no state."""
    times = np.linspace(0.0, math.pi / trap.trap_freq, _as_rows(samples, "samples"))
    g = moments.build_generators(trap, fb) if include_transient else None
    return times, derive_scales(trap, fb), g


def _curve(h: criteria.QuadratureHarmonics, state, basis, times: np.ndarray,
           s: DerivedScales, g: moments.DriftDiffusion | None):
    header = ["t", "sigma_q_sq", "dxa", "dx0", "DXs"]
    transient = None
    if g is not None:
        header.append("dx")
        m0 = moments.init_moments(state, basis)
        transient = [moments.cloud_size(moments.evolve(m0, g, float(t)))
                     for t in times]

    rows = []
    for i, t in enumerate(times.tolist()):
        row = (t, h.value(t), criteria.asymptotic_cloud_size(s, h, t), s.dx0, s.DXs)
        rows.append(row if transient is None else row + (transient[i],))
    return header, rows


# ---------------------------------------------------------------------------
# subcommands


def _cmd_scales(cfg: RunConfig) -> int:
    s = derive_scales(cfg.trap, cfg.require_feedback())
    write_json(cfg.out, {k: _sig15(v) for k, v in s.to_dict().items()})
    return 0


def _cmd_criteria(cfg: RunConfig) -> int:
    fb = cfg.require_feedback()
    include_transient = cfg.param("include_transient", False)
    if not isinstance(include_transient, bool):
        raise ConfigError(f"include_transient must be true or false, got {include_transient!r}")
    times, s, g = _curve_inputs(cfg.trap, fb, cfg.param("samples", 129), include_transient)
    state, basis = build_state(cfg.state_doc, cfg.trap)
    h = criteria.quadrature_harmonics(state, basis)
    header, rows = _curve(h, state, basis, times, s, g)
    write_csv(cfg.out, header, rows)
    report = criteria.evaluate_criteria(s, h)
    doc = report.to_dict()
    doc["min_sigma_q_sq"] = report.min_sigma_q_sq
    doc["notes"] = list(report.notes)
    sys.stderr.write(json.dumps(doc) + "\n")
    return 0


def _moment_row(t: float, m: moments.JointMoments) -> tuple:
    mean = np.zeros(4)
    cov = np.zeros((4, 4))
    dim = m.mean.shape[0]
    mean[:dim] = m.mean
    cov[:dim, :dim] = m.cov
    triangle = [cov[i, j] for i in range(4) for j in range(i, 4)]
    return (t, *mean, *triangle, math.sqrt(max(cov[0, 0], 0.0)))


def _cmd_evolve(cfg: RunConfig) -> int:
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
    rows = [_moment_row(float(t), moments.evolve(m0, g, float(t)))
            for t in np.linspace(0.0, t_max, samples)]
    write_csv(cfg.out, _MOMENT_HEADER, rows)
    return 0


def _cmd_oracle(cfg: RunConfig) -> int:
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
    state, basis = build_state(cfg.state_doc, cfg.trap)
    start = time.perf_counter()
    gen = oracle.build_generator(cfg.trap, fb, basis)
    rho0 = oracle.DensityMatrix.from_state(state, basis)
    built = time.perf_counter()
    traj = oracle.integrate(rho0, gen, times)
    done = time.perf_counter()
    rows = [_moment_row(float(t), jm) + (float(err), float(top))
            for t, jm, err, top in zip(traj.times, traj.joint, traj.trace_err, traj.top_pop)]
    write_csv(cfg.out, _MOMENT_HEADER + ["trace_err", "top_pop"], rows)
    sys.stderr.write(json.dumps({
        "task": "oracle",
        "instants": len(traj.times),
        "sector_dim": len(gen.h_diag),
        "timings_s": {"build": built - start, "propagate": done - built},
        "health": {"max_trace_err": float(traj.trace_err.max()),
                   "max_top_pop": float(traj.top_pop.max()),
                   "min_eigenvalue": float(traj.min_eig.min())},
    }) + "\n")
    return 0


def _cmd_loop(cfg: RunConfig) -> int:
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
    rows = [
        (float(traj.times[i]), float(traj.mean_X[i]), float(traj.var_X[i]),
         float(traj.mean_P[i]), float(traj.var_P[i]), int(traj.n_events[i]))
        for i in range(len(traj.times))
    ]
    write_csv(cfg.out, ["t", "mean_X", "var_X", "mean_P", "var_P", "n_events"], rows)
    sys.stderr.write(json.dumps(traj.summary()) + "\n")
    return 0


def _cmd_scan(cfg: RunConfig) -> int:
    zeta = cfg.feedback.shift_rate if cfg.feedback is not None else 1.0
    rows = scan_eta(
        cfg.trap,
        zeta,
        _as_float(cfg.param("eta_min", 1e-2), "eta_min"),
        _as_float(cfg.param("eta_max", 1e2), "eta_max"),
        cfg.param("steps", 25),
    )
    write_csv(cfg.out, ["eta", "dX0", "dx0", "DXs", "regime"],
              [(r["eta"], r["dX0"], r["dx0"], r["DXs"], r["regime"]) for r in rows])
    return 0


def _cmd_search(cfg: RunConfig) -> int:
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
    write_csv(cfg.out,
              ["restart", "start_value", "final_value", "iterations", "converged"],
              [(r["restart"], r["start_value"], r["final_value"], r["iterations"],
                r["converged"]) for r in report["rows"]])
    if state_out is not None:
        if isinstance(state, fock.FockState):
            doc = fock.state_to_dict(state)
        else:
            doc = {"family": spec.family,
                   "alpha": [[float(a.real), float(a.imag)] for a in state],
                   "mean_n": float(np.vdot(state, state).real)}
        write_json(state_out, doc)
    sys.stderr.write(json.dumps({
        "task": "search",
        "family": spec.family,
        "best_value": report["best_value"],
        "best_restart": report["best_restart"],
        "evaluations": report["evaluations"],
        "timings_s": report["timings_s"],
        "health": {"converged": sum(r["converged"] for r in report["rows"])},
    }) + "\n")
    return 0


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


def _emit_error(exc: Exception) -> None:
    doc = {"error": type(exc).__name__, "detail": str(exc)}
    report = getattr(exc, "report", None)
    if report is not None:
        doc["report"] = report
    sys.stderr.write(json.dumps(doc) + "\n")


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
        return _DISPATCH[args.task](cfg)
    except ConfigError as exc:
        _emit_error(exc)
        return 2
    except ToolkitError as exc:
        _emit_error(exc)
        return 3
    except BrokenPipeError:
        return _drop_stdout()
    except OSError as exc:
        _emit_error(exc)
        return 2


def main() -> None:
    code = cli_main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = _drop_stdout()
    sys.exit(code)
