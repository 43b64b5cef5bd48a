"""One benchmark process: import the package, build inputs, run passes.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1
                            --size full|tiny --work DIR --index I --until T
                            [--setup-only]

Prints `ready` once `import cloudfeedback` is done and the first pass's
inputs are written, so the caller can time set-up from process start; with
--setup-only it exits there.  Then it runs passes of the workload's
operations through `cloudfeedback.driver.cli_main`, back to back in this
process, until the monotonic clock reads T (at least one pass), checks
every artifact after each pass, and prints one JSON line with the pass
times, the checks and, with --trace 1, the per-layer figures of the traced
passes.  Before the first pass and after each one it times `calibrate()`,
a fixed computation that uses no code of the package, so the caller can
tell how fast the machine ran.  Worker I draws the inputs of its passes
from the seed and I, so no two workers repeat one.

`run.py` starts this file; run that instead.
"""

import argparse
import json
import sys
import time

_IMPORT_START = time.perf_counter()
import cloudfeedback  # noqa: E402  (the import is part of what set-up measures)
_IMPORT_S = time.perf_counter() - _IMPORT_START

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full")
    p.add_argument("--work", required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--until", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def calibrate():
    """Seconds for a fixed mix of interpreter, small-array and BLAS work.

    The same work every time and no package code, so its time follows only
    the speed the shared machine gives this process.
    """
    rng = numpy.random.default_rng(0)
    small = 0.1 * rng.standard_normal((12, 12))
    dense = (rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))) / 48
    vec = rng.standard_normal(4096)
    start = time.perf_counter()
    acc = 0
    for i in range(160_000):
        acc += i * i % 7
    x = small.copy()
    for _ in range(12_000):
        x = x @ small + small
    y = dense.copy()
    for _ in range(480):
        y = dense @ y @ dense.conj().T
    for _ in range(1200):
        numpy.sqrt(vec * vec + 1.0).sum()
    return time.perf_counter() - start


def write_inputs(ops, work_dir):
    """Config files for one pass; returns (argv, artifact path) per op."""
    calls = []
    for op in ops:
        path = os.path.join(work_dir, f"{op.name}.json")
        out = os.path.join(work_dir, f"{op.name}.out")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(op.config, out=out), fh)
        calls.append(([op.task, "--config", path], out))
    return calls


def run_pass(ops, calls):
    """Run the operations back to back; returns (seconds, results by op name)."""
    results = {}
    start = time.perf_counter()
    for op, (argv, out) in zip(ops, calls):
        err = io.StringIO()
        op_start = time.perf_counter()
        with contextlib.redirect_stderr(err):
            try:
                code = cloudfeedback.driver.cli_main(argv)
            except Exception:  # a crash is a failed operation, not a stopped run
                traceback.print_exc(file=err)
                code = -1
        results[op.name] = workloads.Result(code, out, err.getvalue(),
                                            time.perf_counter() - op_start)
    return time.perf_counter() - start, results


def check_pass(ops, results):
    """Op name -> failure message, for every op that failed."""
    failures = {}
    for op in ops:
        res = results[op.name]
        if res.code != 0:
            failures[op.name] = f"exit {res.code}: {res.stderr.strip()[-300:]}"
            continue
        try:
            op.check(results)
        except Exception as exc:  # unreadable output fails the check too
            failures[op.name] = f"{type(exc).__name__}: {exc}"
    return failures


def digests(results):
    out = {}
    for name, res in results.items():
        if os.path.exists(res.out):
            with open(res.out, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            func = getattr(handle, sym, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def machine():
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


def main(argv=None):
    args = _parse(argv)
    scipy_modules = sum(1 for key in sys.modules if key.startswith("scipy."))
    os.makedirs(args.work, exist_ok=True)
    # pass inputs never repeat across the workers of a run
    first = args.index * 1000
    ops = workloads.build(args.workload, args.seed, first, args.size)
    calls = write_inputs(ops, args.work)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    cal_s = [calibrate()]
    tracer = Tracer("cloudfeedback") if args.trace else None
    wall, traced_wall, layers, failures, op_s = [], [], [], [], {}
    attempted, peak_rss_kib, first_digests = 0, None, None
    index = first
    while index == first or time.monotonic() < args.until:
        if index != first:
            ops = workloads.build(args.workload, args.seed, index, args.size)
            calls = write_inputs(ops, args.work)
        seconds, results = run_pass(ops, calls)
        wall.append(seconds)
        for name, res in results.items():
            op_s.setdefault(name, []).append(res.seconds)
        attempted += len(ops)
        failed = check_pass(ops, results)
        if first_digests is None:
            # one pass runs every operation once, as separate CLI calls would;
            # later passes reuse the heap, so the high-water mark is taken here
            first_digests = digests(results)
            peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            # the same inputs again, traced, for per-layer figures and overhead
            since, counts = tracer.mark()
            tracer.install()
            try:
                seconds, results = run_pass(ops, calls)
            finally:
                tracer.uninstall()
            traced_wall.append(seconds)
            layers.append(layer_metrics(tracer, since, counts, seconds, wall[-1]))
            attempted += len(ops)
            failed.update({f"{k} (traced)": v for k, v in check_pass(ops, results).items()})
        failures.extend(f"pass {index} {name}: {msg}" for name, msg in failed.items())
        cal_s.append(calibrate())
        index += 1

    if tracer is not None:
        tracer.write(os.path.join(args.work, "spans.json"))
    print(json.dumps({
        "wall_s": wall,
        "cal_s": cal_s,
        "op_s": op_s,
        "traced_wall_s": traced_wall,
        "layers": layers,
        "attempted": attempted,
        "failures": failures,
        "peak_rss_kib": peak_rss_kib,
        "import_s": _IMPORT_S,
        "scipy_modules": scipy_modules,
        "package": os.path.dirname(cloudfeedback.__file__),
        "digests": first_digests,
        "machine": machine(),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
