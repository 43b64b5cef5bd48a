"""Seeded fuzz of the command line.

Configs are drawn from the driver's own tables: each draw takes a small run
of one subcommand and sets one to three of its top-level keys (`_KEYS`),
task keys (`_TASKS`), state keys (`_STATE_KEYS`, by kind) or keys of a
superposition term, a stray one among them, to a small value, an edge
value, a value of the wrong type or nothing, and may add a command-line
flag with a malformed value.  Every run must exit
0, 2 or 3, write exactly one JSON line to stderr, whose error detail is
short, and only finite numbers to stdout, and finish within a fixed bound.  The runs see Python's default
warning filters, as the console script does: cli_main records a warning
into the run record, where the suite's filters would raise it.
"""

import io
import json
import math
import random
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest

from cloudfeedback import driver

# the edges of the float range, an integer past it, signs, non-finite
# numbers, a JSON null and values of the wrong type
EDGES = [0, 1, -1, 1e-300, 5e-324, 1e300, 10**400, math.inf, -math.inf, math.nan, None,
         "x", [1], {"k": 1}, True]
# small values that many keys take
SMALL = [2, 3, 0.25, 0.5, 2.5, False, "poisson", "indefinite_N_coherent"]
# flag values as a shell passes them
FLAG_EDGES = ["0", "-1", "1e-300", "5e-324", "1e300", "inf", "-inf", "nan", "abc", ""]
# keys that name files: a drawn string is written under the test's directory
PATHS = ("out", "state_out")
STATES = [
    {"kind": "condensate", "m": 4, "squeeze": 0.2},
    {"kind": "condensate", "m": 3, "displacement": 0.3},
    {"kind": "occupation", "occupation": [1, 1]},
    {"kind": "superposition", "m": 3,
     "terms": [{"occupation": [2, 0, 0], "amp": [1, 0]}, {"occupation": [0, 2, 0], "amp": [0, 1]}]},
    {"kind": "thermal", "m": 4, "temperature": 0.5, "cutoff": 4.0},
]
# the keys of a superposition term, and a misspelt one
TERM_KEYS = ("occupation", "amp", "ampl")
# the subcommands that build the state section
READS_STATE = ("criteria", "evolve", "oracle", "loop")
# one small run of each subcommand, well inside every budget
BASE = {
    "scales": {"n": 2, "zeta": 0.5, "sigma": 0.7},
    "criteria": {"n": 2, "zeta": 0.5, "sigma": 0.7, "task": {"samples": 5}},
    "evolve": {"n": 2, "zeta": 0.5, "sigma": 0.7, "task": {"t_max": 0.5, "samples": 3}},
    "oracle": {"n": 1, "zeta": 0.5, "sigma": 0.7, "state": {"kind": "condensate", "m": 4},
               "task": {"t_max": 0.05, "stride": 5}},
    "loop": {"n": 1, "gamma": 100.0, "sigma0": 5.0, "zeta0": 0.002,
             "task": {"t_max": 0.1, "trajectories": 4}},
    "scan": {"n": 2, "zeta": 1.0, "sigma": 0.5, "task": {"steps": 5}},
    "search": {"n": 2, "task": {"m": 2, "restarts": 1, "max_iter": 500}},
}
# configs that ended in a traceback: a subnormal dt (ceil(inf) in
# step_times), N = 1e300 (N^2 in classify_regime), omega = 1e300 at
# m omega^2 = 1e300 (omega^2 in the moment drift), DXs = 3.6e299 (DXs^2 in
# the criteria), zeta * eta_min = 0 (a division by it in the scan) and a
# record stride past the float range (record_stride / gamma in the loop)
CORPUS = [
    ("oracle", {"n": 1, "zeta": 0.5, "sigma": 0.7, "task": {"t_max": 0.01, "dt": 5e-324}}, []),
    ("scan", {"n": 1e300, "zeta": 1, "sigma": 0.5}, []),
    ("evolve", {"n": 2, "zeta": 0.5, "sigma": 0.7, "mass": 1e-300, "task": {"samples": 3}},
     ["--omega", "1e300"]),
    ("criteria", {"n": 2, "zeta": 0.5, "sigma": 0.7, "mass": 1e-300}, []),
    ("scan", {"n": 2, "zeta": 5e-324, "sigma": 2}, []),
    ("loop", {**BASE["loop"], "task": {"t_max": 0.1, "record_stride": 10**400}}, []),
    ("loop", {**BASE["loop"], "task": {"t_max": 0.1, "record_stride": 10**400,
                                       "schedule": "poisson"}}, []),
]
SEED, DRAWS, BOUND_S, DETAIL_CHARS = 20261019, 1500, 5.0, 300


def state_section(doc: dict, kind: str) -> dict:
    """The object a state draw sets a key of: the config's state if it is of
    this kind, else a small state of it put in its place; for "term" the
    first term of a superposition."""
    def fresh(kind):
        return json.loads(json.dumps(next(s for s in STATES if s["kind"] == kind)))

    want = "superposition" if kind == "term" else kind
    state = doc.get("state")
    if not (isinstance(state, dict) and state.get("kind") == want):
        state = doc["state"] = fresh(want)
    if kind != "term":
        return state
    terms = state.get("terms")
    if not (isinstance(terms, list) and terms and isinstance(terms[0], dict)):
        terms = state["terms"] = fresh("superposition")["terms"]
    return terms[0]


def draw(rng: random.Random, task: str, workdir: str) -> tuple:
    """(task, config, extra argv) of one drawn run."""
    doc = json.loads(json.dumps(BASE[task]))
    section = doc.setdefault("task", {})
    keys = [(doc, key) for key in driver._KEYS if key != "task"]
    keys += [(section, key) for key in driver._TASKS[task].keys]
    if task in READS_STATE:
        keys += [(kind, key) for kind in sorted(driver._STATE_KEYS)
                 for key in sorted(driver._STATE_KEYS[kind])]
        keys += [("term", key) for key in TERM_KEYS]
    for _ in range(rng.randint(1, 3)):
        target, key = rng.choice(keys)
        if isinstance(target, str):
            target = state_section(doc, target)
        roll = rng.random()
        if roll < 0.15:
            target.pop(key, None)
            continue
        value = rng.choice(SMALL if rng.random() < 0.5 else EDGES)
        if key == "state":
            value = json.loads(json.dumps(rng.choice(STATES + [value])))
        if key in PATHS and isinstance(value, str):
            value = f"{workdir}/{key}.out"
        target[key] = value
    argv = []
    if rng.random() < 0.2:
        flag = rng.choice([key for key, spec in driver._KEYS.items()
                           if spec.flag is not None and key not in PATHS])
        argv = [f"--{flag}", rng.choice(FLAG_EDGES)]
    return task, doc, argv


def cases(workdir: str) -> list:
    rng = random.Random(SEED)
    return CORPUS + [draw(rng, rng.choice(sorted(BASE)), workdir) for _ in range(DRAWS)]


def misspelt(doc: dict) -> bool:
    """Whether the config's superposition holds a term with the misspelt key."""
    state = doc.get("state")
    if not (isinstance(state, dict) and state.get("kind") == "superposition"):
        return False
    terms = state.get("terms")
    return isinstance(terms, list) and any(isinstance(t, dict) and "ampl" in t for t in terms)


def check_run(code: int, out: str, err: str) -> None:
    assert code in (0, 2, 3)
    (line,) = err.splitlines()
    doc = json.loads(line)
    # a refusal echoes its counts to six digits, never in full
    assert len(doc.get("detail", "")) <= DETAIL_CHARS
    if code != 0:
        assert out == ""
    elif out.startswith("{"):
        assert all(math.isfinite(v) for v in json.loads(out).values())
    else:
        for row in out.splitlines()[1:]:
            for cell in row.split(","):
                if cell[:1].isdigit() or cell[:1] in "-.":
                    assert math.isfinite(float(cell)), row


def test_cli_fuzz(tmp_path):
    cfg = tmp_path / "run.json"
    for task, doc, argv in cases(str(tmp_path)):
        cfg.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
            warnings.resetwarnings()
            code = driver.cli_main([task, "--config", str(cfg), *argv])
        took = time.perf_counter() - start
        try:
            check_run(code, out.getvalue(), err.getvalue())
            # a misspelt term key never runs as if it were absent
            assert code != 0 or task not in READS_STATE or not misspelt(doc)
            assert took < BOUND_S
        except AssertionError:
            pytest.fail(f"{task} {json.dumps(doc)} {argv}: exit {code} in {took:.2f} s, "
                        f"stderr {err.getvalue()[:300]!r}")
