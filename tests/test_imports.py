"""The public names, and which package modules, scipy modules (and numpy.random) a bare
import and each subcommand load.

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
    k for k in sys.modules if k.split(".")[:len(prefix)] == prefix), "package": sorted(
    k.split(".")[1] for k in sys.modules if k.startswith("cloudfeedback."))}))
"""


_PACKAGE = os.path.dirname(os.path.abspath(cloudfeedback.__file__))


def _fresh(tmp_path, script, *args):
    """The last stdout line of a script run in a fresh interpreter, as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.dirname(_PACKAGE),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, cwd=tmp_path, env=env, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def probe(argv, tmp_path, prefix=("scipy",)):
    """(exit code or None, sorted modules under prefix loaded, sorted package
    modules loaded) of one cold run."""
    doc = _fresh(tmp_path, _PROBE, json.dumps(argv), json.dumps(list(prefix)))
    return doc["code"], doc["loaded"], doc["package"]


# each subcommand's package modules and scipy subpackages, as README's table
# lists them; the probes below check every row
_BASE = ["driver", "errors", "scales"]
_LOADED = {
    "scales": (_BASE, []),
    "scan": (_BASE, []),
    "evolve": (_BASE + ["fock", "moments"], []),
    "criteria": (_BASE + ["fock", "moments", "criteria"], []),
    "loop": (_BASE + ["fock", "moments", "loop"], []),
    "oracle": (_BASE + ["fock", "moments", "oracle"], ["scipy.sparse"]),
    "search": (_BASE + ["fock", "criteria", "search"], []),
}


def _subpackages(loaded):
    # the public scipy subpackages among the loaded modules
    return sorted({".".join(k.split(".")[:2]) for k in loaded
                   if k.count(".") and not k.split(".")[1].startswith("_")} - {"scipy.version"})


def test_public_names_resolve_once():
    # a stale entry would fail only on `from cloudfeedback import *`
    names = cloudfeedback.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(cloudfeedback, name)] == []


def test_public_names_bind_in_a_fresh_interpreter(tmp_path):
    # the lazy names: dir lists them and the modules before any is loaded,
    # and a star import binds each one
    script = ("import json, cloudfeedback\n"
              "listed = dir(cloudfeedback)\n"
              "from cloudfeedback import *\n"
              "print(json.dumps([listed, [n for n in cloudfeedback.__all__\n"
              "                           if n not in globals()]]))")
    listed, unbound = _fresh(tmp_path, script)
    assert unbound == []
    modules = {name[:-3] for name in os.listdir(_PACKAGE) if name.endswith(".py")}
    assert set(cloudfeedback.__all__) | modules - {"__init__"} <= set(listed)


def test_unknown_public_name_is_an_attribute_error():
    assert not hasattr(cloudfeedback, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        cloudfeedback.no_such_name  # noqa: B018


def test_package_import_loads_no_package_module_and_no_numpy(tmp_path):
    assert probe([], tmp_path, prefix=("numpy",)) == (None, [], [])


def test_package_import_loads_no_scipy(tmp_path):
    assert probe([], tmp_path) == (None, [], [])


def test_package_import_loads_no_numpy_random(tmp_path):
    # numpy.random takes milliseconds to import; the loop loads it when it runs
    assert probe([], tmp_path, prefix=("numpy", "random")) == (None, [], [])
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"task": {"t_max": 0.5, "trajectories": 8}}))
    loop = ["loop", "--n", "1", "--gamma", "100", "--sigma0", "5", "--zeta0", "0.002",
            "--config", str(cfg)]
    code, loaded, _ = probe(loop, tmp_path, prefix=("numpy", "random"))
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
    # the moment flow's matrix exponential is the package's own
    (["criteria", "--n", "2", "--zeta", "0.5", "--sigma", "0.7"],
     {"samples": 3, "include_transient": True}),
    (["evolve", "--n", "2", "--zeta", "0.5", "--sigma", "0.7"], {"samples": 3, "t_max": 1.0}),
], ids=["scales", "scan", "loop", "loop-poisson", "search", "criteria", "criteria-transient",
        "evolve"])
def test_numpy_only_subcommands_load_no_scipy(tmp_path, argv, task):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"task": task}))
    modules, scipy = _LOADED[argv[0]]
    assert scipy == []
    assert probe(argv + ["--config", str(cfg)], tmp_path) == (0, [], sorted(modules))


def test_each_task_loads_what_it_runs_before_its_compute():
    # with the probes, nothing a run imports is left to its compute timer
    assert {task: sorted(_BASE + list(spec.modules)) for task, spec in driver._TASKS.items()} \
        == {task: sorted(modules) for task, (modules, _) in _LOADED.items()}


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


def test_no_source_module_imports_scipy_linalg():
    # the moment flow's exponential and the loop's Lyapunov solve are numpy's
    sources = [name for name in sorted(os.listdir(_PACKAGE)) if name.endswith(".py")]
    assert "scipy.sparse" in _imported_modules(_parse_source("oracle.py"))
    for name in sources:
        assert not [module for module in _imported_modules(_parse_source(name))
                    if module.split(".")[:2] == ["scipy", "linalg"]], name


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
    code, loaded, package = probe(["oracle", "--config", str(cfg)], tmp_path)
    assert code == 0
    assert "scipy.sparse" in loaded  # the probe sees what the oracle loads
    assert (sorted(package), _subpackages(loaded)) == tuple(map(sorted, _LOADED["oracle"]))
    assert not [k for k in loaded if k.split(".")[:2] in (["scipy", "optimize"],
                                                           ["scipy", "linalg"])]
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
        if name != "__init__.py":  # its name table and __all__ call nothing
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


def test_readme_module_table_matches_the_probes():
    # a row's "+" adds its modules to the first row's
    rows = _readme_table("| subcommand | package modules loaded | scipy modules loaded |")
    table, base = {}, _names(rows[0][1])
    for tasks, modules, scipy in rows:
        names = (base if modules.startswith("+") else []) + _names(modules)
        table.update({task: (names, re.findall(r"`([\w.]+)`", scipy))
                      for task in _names(tasks)})
    assert table == _LOADED
