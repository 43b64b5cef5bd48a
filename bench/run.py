"""Benchmark of the cloudfeedback CLI: three workloads, end-to-end and per-layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of exact-oracle, feedback-loop, state-analysis (see
`workloads.py` for what each runs and why).  Run from the repository root;
the package is imported from `src/`.

A run starts WORKERS fresh Python processes one after another, each on an
equal slice of the S seconds, and before each one a process that only sets
up.  Each one's set-up is timed (interpreter start until `import
cloudfeedback` is done and the workload's inputs are written); then a
worker runs passes of the workload until its slice ends: one client calling
`cloudfeedback.driver.cli_main` on each operation back to back.  Spreading
set-up over the run keeps a few slow seconds of a shared machine from
deciding setup_s.  Every artifact is checked against a reference.

BLAS runs on one thread: on two shared vCPUs a second BLAS thread made
the oracle's small complex products slower and their time hang on what
else the host ran.  With --trace 0 the run reports the end-to-end metrics,
measured with tracing off, as medians over passes and processes.  The
speed a shared host gives a process drifts by half over tens of minutes,
so wall_s and setup_s are given at a reference speed: each median is
multiplied by CALIBRATION_REF_S over the mean `worker.calibrate()` of the
run, a fixed computation timed between passes.  The host switches between
a fast and a slow phase every second or so; a pass spans both, a
calibration mostly one, so their mean (the highest and lowest eighth left
out) follows the pass better than their median.  The raw medians and every
calibration time are in the record.  With --trace 1 each pass is repeated
with every public function of the package wrapped in a span, and the run
reports per-layer self times and counts.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  The line before it is the full record: every sample (each
operation's time too, per process), the failures, sha256 digests of the
first pass's artifacts and the machine.
Inputs, artifacts and span files of the last run of each workload stay in
`.bench_out/<workload>/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# processes per run; each contributes one set-up time and at least one pass
WORKERS = 5
# a run must end within this many seconds, set-up included
DEADLINE_S = 170.0
# `worker.calibrate()` seconds on a quiet 2-vCPU Xeon VM (Python 3.11,
# numpy 2 with OpenBLAS); wall_s and setup_s are scaled to this speed
CALIBRATION_REF_S = 0.2
# every process of a run does its linear algebra on one thread
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "import.self_s": "s", "import.scipy_modules": "count",
    "driver.self_s": "s", "driver.write.self_s": "s", "driver.bytes_out": "bytes",
    "scales.self_s": "s", "scales.calls": "count",
    "fock.self_s": "s", "fock.condensate_state.self_s": "s",
    "fock.few_body_expectation.self_s": "s", "fock.few_body_expectation.calls": "count",
    "fock.terms": "count",
    "moments.self_s": "s", "moments.evolve.calls": "count",
    "oracle.self_s": "s", "oracle.build_generator.self_s": "s",
    "oracle.sector_operator.calls": "count", "oracle.integrate.self_s": "s",
    "oracle.steps": "count", "oracle.steps_per_s": "1/s",
    "criteria.self_s": "s", "criteria.quadrature_harmonics.calls": "count",
    "loop.self_s": "s", "loop.traj_events": "count",
    "loop.regular.traj_events_per_s": "1/s", "loop.poisson.traj_events_per_s": "1/s",
    "search.self_s": "s", "search.restart_s": "s", "search.iterations": "count",
    "search.converged_frac": "ratio",
    "trace.overhead_s": "s", "trace.residual_s": "s",
}


class BenchError(Exception):
    pass


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="tiny runs every operation at toy sizes (smoke test)")
    args = p.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 120:
        p.error("need --seed >= 0 and 0 < --seconds <= 120")
    return args


def _worker(args, index, until, deadline, setup_only=False):
    """Run one worker; returns (seconds until it printed `ready`, its record).

    A set-up-only worker has no record; it returns None for it.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--size", args.size,
           "--work", os.path.join(ROOT, ".bench_out", args.workload, f"w{index}"),
           "--index", str(index), "--until", repr(until)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=SRC, **ONE_THREAD)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {index} passed the {DEADLINE_S:.0f} s deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {index} exited {proc.returncode}")
    if setup_only:
        return setup, None
    if not out.strip():
        raise BenchError(f"worker {index} printed no record")
    return setup, json.loads(out.strip().splitlines()[-1])


def measure(args):
    start = time.monotonic()
    deadline = start + DEADLINE_S
    shutil.rmtree(os.path.join(ROOT, ".bench_out", args.workload), ignore_errors=True)
    setups, records = [], []
    for index in range(WORKERS):
        until = start + args.seconds * (index + 1) / WORKERS
        setups.append(_worker(args, index, until, deadline, setup_only=True)[0])
        setup, record = _worker(args, index, until, deadline)
        setups.append(setup)
        records.append(record)
    for record in records:
        if os.path.realpath(record["package"]) != os.path.realpath(
                os.path.join(SRC, "cloudfeedback")):
            raise BenchError(f"imported the package from {record['package']}, not {SRC}")
    first = records[0]
    failures = [f for r in records for f in r["failures"]]
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": sum(r["attempted"] for r in records),
        "failed": len(failures),
        "failures": failures,
        "setup_s": setups,
        "wall_s": [t for r in records for t in r["wall_s"]],
        "cal_s": [t for r in records for t in r["cal_s"]],
        "traced_wall_s": [t for r in records for t in r["traced_wall_s"]],
        "peak_rss_mb": [r["peak_rss_kib"] / 1024.0 for r in records],
        "import_s": [r["import_s"] for r in records],
        "scipy_modules": first["scipy_modules"],
        "layers": [layer for r in records for layer in r["layers"]],
        "op_s": [r["op_s"] for r in records],
        "digests": first["digests"],
        "machine": first["machine"],
    }


def _stats(values):
    """Median and maximum with the sample count; too few samples for a tail."""
    return {"median": statistics.median(values), "max": max(values), "n": len(values)}


def report(record):
    record["failed_frac"] = record["failed"] / record["attempted"]
    record["summary"] = {key: _stats(record[key]) for key in (
        "wall_s", "setup_s", "traced_wall_s", "peak_rss_mb", "import_s", "cal_s")
        if record[key]}
    # machine speed of this run relative to the reference speed
    cal = sorted(record["cal_s"])
    trim = len(cal) // 8
    record["speed_scale"] = CALIBRATION_REF_S / statistics.mean(cal[trim:len(cal) - trim])
    if record["trace"]:
        layers = record.pop("layers")
        values = {key: statistics.median(d[key] for d in layers) for key in layers[0]}
        values["import.self_s"] = statistics.median(record["import_s"])
        values["import.scipy_modules"] = record["scipy_modules"]
        record["layers"] = values
        units = PER_LAYER
    else:
        del record["layers"]
        values = {key: statistics.median(record[key]) for key in END_TO_END}
        for key in ("wall_s", "setup_s"):
            values[key] *= record["speed_scale"]
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        if not math.isfinite(metric["value"]):
            raise BenchError(f"metric {name} is not finite")
    print(json.dumps(record))
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "cloudfeedback", "__init__.py")):
        print(f"bench: no package source under {SRC}", file=sys.stderr)
        return 2
    try:
        report(measure(args))
    except (BenchError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
