"""Smoke test of the benchmark itself, every workload once at toy sizes.

    python3 -m pytest bench/test_smoke.py

Each run must exit 0, pass its output checks and print every metric that
BENCHMARK.json names, with its unit.  Without the package source next to
it, the benchmark must fail instead of printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(cwd, workload, trace):
    cmd = SPEC["command"][1:] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--trace", str(trace), "--size", "tiny"]
    return subprocess.run([sys.executable, *cmd], cwd=cwd, capture_output=True,
                          text=True, timeout=180)


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_prints_every_metric_with_its_unit(workload, trace, group):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[group]}
    if trace:
        # layer self times cover the traced pass up to the loop between operations
        record = json.loads(proc.stdout.strip().splitlines()[-2])
        residual = result["metrics"]["trace.residual_s"]["value"]
        assert 0.0 <= residual < 0.1 * record["layers"]["trace.wall_s"]
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
