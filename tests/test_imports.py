"""The public names, and which scipy modules (and numpy.random) a bare import and each
subcommand load.

Every probe runs in a fresh interpreter, since the test process itself has
scipy loaded (the warning filters in pyproject.toml name scipy classes).
"""

import ast
import importlib
import itertools
import json
import os
import re
import subprocess
import sys

import pytest

import cloudfeedback
from cloudfeedback import driver, errors

_PROBE = """
import contextlib, io, json, sys
import cloudfeedback
code = None
argv, prefix = json.loads(sys.argv[1]), json.loads(sys.argv[2])
if argv:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cloudfeedback.cli_main(argv)
print(json.dumps({"code": code, "loaded": sorted(
    k for k in sys.modules if k.split(".")[:len(prefix)] == prefix)}))
"""


def probe(argv, tmp_path, prefix=("scipy",)):
    """(exit code or None, sorted modules under prefix loaded) of one cold run."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cloudfeedback.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv),
                           json.dumps(list(prefix))],
                          capture_output=True, text=True, cwd=tmp_path, env=env,
                          timeout=120, check=True)
    doc = json.loads(proc.stdout.splitlines()[-1])
    return doc["code"], doc["loaded"]


def test_public_names_resolve_once():
    # a stale entry would fail only on `from cloudfeedback import *`
    names = cloudfeedback.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(cloudfeedback, name)] == []


def test_package_import_loads_no_scipy(tmp_path):
    assert probe([], tmp_path) == (None, [])


def test_package_import_loads_no_numpy_random(tmp_path):
    # numpy.random takes milliseconds to import; the loop loads it when it runs
    assert probe([], tmp_path, prefix=("numpy", "random")) == (None, [])
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"task": {"t_max": 0.5, "trajectories": 8}}))
    loop = ["loop", "--n", "1", "--gamma", "100", "--sigma0", "5", "--zeta0", "0.002",
            "--config", str(cfg)]
    code, loaded = probe(loop, tmp_path, prefix=("numpy", "random"))
    assert code == 0 and "numpy.random.bit_generator" in loaded


@pytest.mark.parametrize("argv, task", [
    (["scales", "--n", "2", "--zeta", "1", "--sigma", "0.5"], {}),
    (["scan", "--n", "2", "--zeta", "1", "--sigma", "0.5"], {}),
    (["loop", "--n", "1", "--gamma", "100", "--sigma0", "5", "--zeta0", "0.002"],
     {"t_max": 0.5, "trajectories": 8}),
    (["loop", "--n", "1", "--gamma", "100", "--sigma0", "5", "--zeta0", "0.002"],
     {"t_max": 0.5, "trajectories": 8, "schedule": "poisson"}),
    (["search", "--n", "2", "--seed", "5"],
     {"family": "fixed_N_pure", "m": 3, "restarts": 1, "max_iter": 2000}),
    (["criteria", "--n", "2", "--zeta", "0.5", "--sigma", "0.7"], {"samples": 3}),
], ids=["scales", "scan", "loop", "loop-poisson", "search", "criteria"])
def test_numpy_only_subcommands_load_no_scipy(tmp_path, argv, task):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"task": task}))
    assert probe(argv + ["--config", str(cfg)], tmp_path) == (0, [])


@pytest.mark.parametrize("task, params", [
    ("criteria", {"samples": 3, "include_transient": True}),
    ("evolve", {"samples": 3, "t_max": 1.0}),
])
def test_moment_flow_loads_scipy_linalg_alone(tmp_path, task, params):
    # the moment flow's matrix exponential, and nothing of the oracle's
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 2, "zeta": 0.5, "sigma": 0.7, "task": params}))
    code, loaded = probe([task, "--config", str(cfg)], tmp_path)
    assert code == 0
    assert "scipy.linalg" in loaded
    assert not [k for k in loaded if k.split(".")[:2] == ["scipy", "sparse"]]


_PACKAGE = os.path.dirname(os.path.abspath(cloudfeedback.__file__))


def _imported_modules(tree):
    # a relative import names a module of the package, which has no subpackages
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["cloudfeedback" if node.level else None,
                                            node.module]))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def _parse_source(name):
    path = os.path.join(_PACKAGE, name)
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def test_no_source_module_imports_scipy_optimize():
    sources = [name for name in sorted(os.listdir(_PACKAGE)) if name.endswith(".py")]
    assert len(sources) > 1
    for name in sources:
        assert not [module for module in _imported_modules(_parse_source(name))
                    if module.split(".")[:2] == ["scipy", "optimize"]], name


def test_search_does_not_import_the_oracle():
    # its sector matrices come from fock alone
    modules = list(_imported_modules(_parse_source("search.py")))
    assert "cloudfeedback.fock" in modules  # the walk sees the relative imports
    assert not [module for module in modules
                if module.split(".")[:2] == ["cloudfeedback", "oracle"]]


def test_oracle_loads_no_scipy_optimize(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "n": 1, "zeta": 0.5, "sigma": 0.7,
        "state": {"kind": "condensate", "m": 12},
        "task": {"t_max": 0.5}}))
    code, loaded = probe(["oracle", "--config", str(cfg)], tmp_path)
    assert code == 0
    assert "scipy.sparse" in loaded  # the probe sees what the oracle loads
    assert not [k for k in loaded if k.split(".")[:2] == ["scipy", "optimize"]]
    # nothing that could plan the propagator from a random estimate
    assert not [k for k in loaded if k.split(".")[:3] == ["scipy", "sparse", "linalg"]]


def test_subcommands_leave_all_emission_to_cli_main():
    # each _cmd_* computes from the parsed cfg.params and returns (artifact,
    # record, state document); cli_main alone writes them, and RunConfig
    # alone parses and refuses keys
    tree = _parse_source("driver.py")
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
    assert len(commands) == 7
    assert not defined & {"_cell", "_moment_row"}
    for command in commands:
        for node in ast.walk(command):
            assert not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id == "sys" and node.attr in ("stdout", "stderr")), \
                command.name
            assert not isinstance(node, ast.Raise), command.name
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                assert name not in ("write_csv", "write_json", "_write", "open", "param"), \
                    command.name
                assert not (name or "").startswith("_as_"), command.name


# public functions and methods that no module of the package calls, each kept
# for its reason; code that only tests reach lives in tests/helpers.py
_UNCALLED = {
    "sigma_q_sq": "the paper's collective quadrature spread at one time",
    "schwarz_identity_check": "the paper's identity sigma_q_sq = Dq^2 - DQ_cm^2",
    "pair_distribution": "the paper's atom-atom pair distribution",
    "density_profile": "the paper's one-body density, the pair distribution's marginal",
    "coherent_sigma_q": "the coherent family's sigma_q_sq at one time",
    "coherent_harmonics": "the coherent family's breathing signal",
    "fixed_sector_harmonics": "the fixed-N family's breathing signal",
    "stationary_discrete": "the loop's fixed point, for a loop record's residual",
    "compare_with_moments": "the oracle against the moment flow, for an oracle record's residual",
    "main": "the console script pyproject.toml names",
}


def test_every_public_function_is_called_in_the_package_or_kept_on_purpose():
    sources = [name for name in sorted(os.listdir(_PACKAGE)) if name.endswith(".py")]
    defined, used = set(), set()
    for name in sources:
        tree = _parse_source(name)
        for node in tree.body:
            body = [node]
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                body = node.body
            defined.update(sub.name for sub in body if isinstance(sub, ast.FunctionDef)
                           and not sub.name.startswith("_"))
        if name != "__init__.py":  # its imports and __all__ call nothing
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    assert "evolve_grid" in defined and "evolve_grid" in used
    assert defined - used == set(_UNCALLED)


_README = os.path.join(os.path.dirname(os.path.dirname(_PACKAGE)), "README.md")


def test_readme_module_names_resolve_in_the_package():
    # every backticked `module.name` of a package module, `errors.py` being a file
    modules = {name[:-3] for name in os.listdir(_PACKAGE) if name.endswith(".py")}
    with open(_README, encoding="utf-8") as handle:
        spans = re.findall(r"`([A-Za-z_][\w.]*)`", handle.read())
    refs = [span.removeprefix("cloudfeedback.").split(".") for span in spans]
    refs = [ref for ref in refs if len(ref) > 1 and ref[0] in modules and ref[-1] != "py"]
    assert ["moments", "evolve_grid"] in refs

    def resolves(module, *names):
        obj = importlib.import_module(f"cloudfeedback.{module}")
        for name in names:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True

    assert [".".join(ref) for ref in refs if not resolves(*ref)] == []


def _readme_table(header):
    """The cells of each row of the README table under the given header line."""
    with open(_README, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    rows = itertools.takewhile(lambda line: line.startswith("|"),
                               lines[lines.index(header) + 2:])  # past the rule
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]


def _names(cell):
    # backticked identifiers; a quoted default such as `"moments"` is none
    return re.findall(r"`([A-Za-z_]\w*)`", cell)


def test_readme_key_tables_match_the_driver():
    keys = _readme_table("| key | default | flag |")
    assert [name for row in keys for name in _names(row[0])] == list(driver._KEYS)
    tasks = _readme_table("| task | task keys | needs |")
    assert [(_names(row[0]), _names(row[1])) for row in tasks] == [
        ([task], list(spec.keys)) for task, spec in driver._TASKS.items()]


def _cap(cell):
    """A README cap: digits grouped by commas, or 2^k less an optional count."""
    power = re.fullmatch(r"2\^(\d+)(?: \u2212 (\d+))?", cell)
    if power:
        return 2 ** int(power[1]) - int(power[2] or 0)
    return int(cell.replace(",", ""))


def test_readme_budget_table_matches_the_budgets():
    rows = _readme_table("| name | cap | unit | error | what it bounds |")
    assert [(_names(name), _cap(cap), unit, _names(error), reason)
            for name, cap, unit, error, reason in rows] == [
        ([name], b.cap, b.unit, [b.error.__name__], b.reason)
        for name, b in errors.BUDGETS.items()]
