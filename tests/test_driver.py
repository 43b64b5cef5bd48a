"""Config assembly, scan and curve artifacts, CLI formats and exit codes."""

import dataclasses
import hashlib
import io
import json
import math
import re
import shlex
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import cloudfeedback
import helpers
from cloudfeedback import criteria, driver, errors, fock, loop, moments
from cloudfeedback.errors import ConfigError, NonFiniteCell
from cloudfeedback.scales import (FeedbackConfig, TrapConfig, classify_regime,
                                  continuous_limit_params, derive_scales)

CELL = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,3}$")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = driver.cli_main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# RunConfig


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        driver.RunConfig("scales", {"zeta": 1.0, "sigma": 0.5, "bogus": 2}, {})


def test_config_task_name_mismatch():
    with pytest.raises(ConfigError):
        driver.RunConfig("scan", {"task": {"name": "loop"}}, {})


def test_config_rejects_stray_task_keys():
    # state options misplaced into the task section must not be dropped
    with pytest.raises(ConfigError, match="squeeze"):
        driver.RunConfig("criteria", {"zeta": 0.2, "sigma": 0.5,
                                      "task": {"name": "criteria",
                                               "squeeze": 0.3}}, {})
    with pytest.raises(ConfigError, match="stride"):
        driver.RunConfig("scan", {"zeta": 0.2, "sigma": 0.5,
                                  "task": {"name": "scan", "stride": 4}}, {})
    # every run is single-threaded; a leftover worker count is a typo, not a hint
    for task in ("loop", "scan", "search"):
        with pytest.raises(ConfigError, match="workers"):
            driver.RunConfig(task, {"task": {"name": task, "workers": 2}}, {})
    # evolve is the moment flow alone: the oracle's clock keys are stray there
    with pytest.raises(ConfigError, match="stride"):
        driver.RunConfig("evolve", {"zeta": 0.2, "sigma": 0.5,
                                    "task": {"name": "evolve", "engine": "oracle",
                                             "stride": 4}}, {})


def test_config_flag_overrides_file():
    cfg = driver.RunConfig("scan", {"n": 2, "zeta": 1.0, "sigma": 0.5},
                           {"n": 3, "sigma": 0.25})
    assert cfg.trap.atom_count == 3
    assert cfg.feedback.meas_resolution == 0.25
    assert cfg.feedback.shift_rate == 1.0


def test_config_parses_every_task_key_with_its_default():
    cfg = driver.RunConfig("evolve", {"n": 2, "omega": 2.0, "zeta": 0.5, "sigma": 0.7}, {})
    assert cfg.params == {"engine": "moments", "t_max": 3 * math.pi, "samples": 301}
    assert (cfg.seed, cfg.out, cfg.state_doc) == (0, None, None)
    cfg = driver.RunConfig("search", {"task": {"m": 4.0, "state_out": None}}, {})
    assert cfg.params == {"m": 4, "family": "fixed_N_pure", "restarts": 8, "max_iter": 20000,
                          "tol": 1e-9, "state_out": None}
    assert type(cfg.params["m"]) is int


def test_config_null_is_absent_for_exactly_the_optional_keys():
    def takes_null(task, doc):
        try:
            driver.RunConfig(task, doc, {})
        except ConfigError:
            return False
        return True

    top = {key for key in driver._KEYS if takes_null("scan", {"n": 2, key: None})}
    assert top == {"zeta", "sigma", "gamma", "sigma0", "zeta0", "out", "state"}
    task_keys = {(task, key) for task, spec in driver._TASKS.items() for key in spec.keys
                 if takes_null(task, {"n": 2, "task": {key: None}})}
    # a null loop t_max is missing, which cli_main refuses as it does an absent one
    assert task_keys == {("oracle", "dt"), ("search", "state_out"), ("loop", "t_max")}
    code, _, err = run_cli(["loop", "--n", "1", "--gamma", "100", "--sigma0", "5",
                            "--zeta0", "0.002"])
    assert code == 2 and "t_max" in json.loads(err)["detail"]


def test_config_partial_parameter_pairs_rejected():
    with pytest.raises(ConfigError):
        driver.RunConfig("scales", {"zeta": 1.0}, {})
    with pytest.raises(ConfigError):
        driver.RunConfig("loop", {"gamma": 100.0, "sigma0": 5.0}, {})
    with pytest.raises(ConfigError):
        driver.RunConfig("scales", {"n": 1, "seed": -4}, {})


def test_config_inconsistent_forms_rejected():
    # continuous pair implied by the triple is (zeta0*gamma, sigma0/sqrt(gamma))
    doc = {"zeta": 0.2, "sigma": 0.5, "gamma": 100.0, "sigma0": 5.0,
           "zeta0": 0.002}
    cfg = driver.RunConfig("loop", doc, {})
    assert cfg.discrete == (100.0, 5.0, 0.002)
    for bad in (dict(doc, zeta=0.3), dict(doc, sigma=math.inf)):
        with pytest.raises(ConfigError):
            driver.RunConfig("loop", bad, {})
    # the triple alone gives the continuous pair of the one discrete map
    alone = driver.RunConfig("loop", {"gamma": 100.0, "sigma0": 5.0, "zeta0": 0.002}, {})
    assert alone.feedback == FeedbackConfig(*reversed(continuous_limit_params(100.0, 5.0, 0.002)))


# ---------------------------------------------------------------------------
# state section


def test_build_state_default_is_ground_condensate():
    trap = TrapConfig(atom_count=3)
    state, basis = driver.build_state(None, trap)
    assert basis.mode_count == 6
    assert state.occ.tolist() == [[3, 0, 0, 0, 0, 0]]
    assert state.amp.tolist() == [pytest.approx(1.0)]


def test_build_state_occupation_checks_atom_total():
    trap = TrapConfig(atom_count=2)
    state, basis = driver.build_state(
        {"kind": "occupation", "occupation": [1, 0, 1]}, trap)
    assert basis.mode_count == 3
    assert state.occ.tolist() == [[1, 0, 1]]
    with pytest.raises(ConfigError):
        driver.build_state({"kind": "occupation", "occupation": [1, 1, 1]}, trap)
    with pytest.raises(ConfigError):
        driver.build_state({"kind": "occupation", "occupation": [2, -1, 1]}, trap)


def test_build_state_rejects_conflicting_condensate_options():
    trap = TrapConfig(atom_count=2)
    with pytest.raises(ConfigError):
        driver.build_state(
            {"kind": "condensate", "m": 4, "displacement": 1.0, "squeeze": 0.2},
            trap)
    with pytest.raises(ConfigError):
        driver.build_state({"kind": "condensate", "m": 4,
                            "orbital": [[1, 0], [0, 0]]}, trap)
    with pytest.raises(ConfigError):
        driver.build_state({"kind": "nonsense"}, trap)
    # a kind past the float range is echoed as a power of ten, not in full
    with pytest.raises(ConfigError, match=re.escape("got 10^400")):
        driver.build_state({"kind": 10**400}, trap)
    # malformed orbital entries: a short pair, a pair of strings, a bare number
    for entry in ([1], ["a", "b"], 1):
        with pytest.raises(ConfigError):
            driver.build_state({"kind": "condensate", "m": 2,
                                "orbital": [[1, 0], entry]}, trap)


def test_build_state_superposition_normalizes():
    trap = TrapConfig(atom_count=2)
    doc = {"kind": "superposition", "m": 3,
           "terms": [{"occupation": [2, 0, 0], "amp": [1.0, 0.0]},
                     {"occupation": [0, 2, 0], "amp": [0.0, 1.0]}]}
    state, basis = driver.build_state(doc, trap)
    total = float(np.sum(np.abs(state.amp) ** 2))
    assert total == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ConfigError):
        bad = {"kind": "superposition", "m": 3,
               "terms": [{"occupation": [1, 0, 0], "amp": [1.0, 0.0]}]}
        driver.build_state(bad, trap)
    # a misspelt key inside a term is refused by name, not read as absent
    with pytest.raises(ConfigError, match=re.escape("unknown superposition term keys: ['ampl']")):
        driver.build_state({"kind": "superposition", "m": 3, "terms": [
            {"occupation": [2, 0, 0], "amp": [1, 0], "ampl": [0, 1]}]}, trap)
    # a term that is not an object, and an amplitude that is not numeric
    for term in (5, {"occupation": [2, 0, 0], "amp": ["x", 0]}):
        with pytest.raises(ConfigError):
            driver.build_state({"kind": "superposition", "m": 3, "terms": [term]}, trap)
    # two finite amplitudes of one occupation that add up to an infinite one
    with pytest.raises(ConfigError, match="float range"):
        driver.build_state({"kind": "superposition", "m": 3, "terms": [
            {"occupation": [2, 0, 0], "amp": [1.5e308, 0]}] * 2}, trap)


def test_build_state_thermal_requires_temperature_and_cutoff():
    trap = TrapConfig(atom_count=2)
    with pytest.raises(ConfigError):
        driver.build_state({"kind": "thermal", "m": 4, "temperature": 0.5}, trap)
    ens, basis = driver.build_state(
        {"kind": "thermal", "m": 4, "temperature": 0.5, "cutoff": 6.0}, trap)
    assert ens.n == 2


# ---------------------------------------------------------------------------
# scan_eta


def test_scan_rows_match_classifier_and_grid():
    trap = TrapConfig(atom_count=2)
    rows = driver.scan_eta(trap, zeta=1.0, eta_min=1e-2, eta_max=1e2, steps=25)
    assert len(rows) == 25
    etas = np.array([r["eta"] for r in rows])
    np.testing.assert_allclose(etas, np.geomspace(1e-2, 1e2, 25), rtol=1e-9)
    for r in rows:
        assert r["regime"] == classify_regime(2, r["eta"]).kind.value
        assert r["dX0"] == pytest.approx(0.5)
        assert r["dx0"] == pytest.approx(math.sqrt(0.5))
        fb = FeedbackConfig(shift_rate=1.0,
                            meas_resolution=math.sqrt(0.25 / r["eta"]))
        assert r["DXs"] == pytest.approx(derive_scales(trap, fb).DXs, rel=1e-9)


def test_scan_threshold_order_flips_between_eta_1_and_4():
    trap = TrapConfig(atom_count=2)
    rows = driver.scan_eta(trap, zeta=1.0, eta_min=1.0, eta_max=4.0, steps=2)
    low, high = rows
    assert low["eta"] == pytest.approx(1.0)
    assert low["DXs"] == pytest.approx(0.5, abs=1e-12)
    assert low["DXs"] <= low["dx0"]
    assert high["eta"] == pytest.approx(4.0)
    assert high["DXs"] == pytest.approx(0.7288689868556626, rel=1e-12)
    assert high["DXs"] > high["dx0"] == pytest.approx(0.7071067811865476)


def test_scan_single_atom_boundary_at_unit_eta():
    trap = TrapConfig(atom_count=1)
    rows = driver.scan_eta(trap, zeta=1.0, eta_min=0.5, eta_max=2.0, steps=3)
    kinds = [r["regime"] for r in rows]
    # one atom: DXs >= dx0 everywhere, touching only at eta = 1
    assert kinds == ["schwarz_threshold_above", "boundary",
                     "schwarz_threshold_above"]


def test_scan_large_n_interval_covers_scanned_decades():
    n = 10 ** 6
    trap = TrapConfig(atom_count=n)
    rows = driver.scan_eta(trap, zeta=1.0, eta_min=1e-5, eta_max=1e5, steps=11)
    # interval N +- sqrt(N^2-1) ~ (1/2N, 2N) swallows ten decades
    inside = [r for r in rows if r["regime"] == "qs_threshold_above"]
    assert len(inside) == len(rows)
    edge = classify_regime(n, 2.0 * n + 1.0)
    assert edge.kind.value == "schwarz_threshold_above"
    assert rows[0]["eta"] > 1.0 / (2.0 * n)


def test_scan_validates_inputs():
    trap = TrapConfig(atom_count=2)
    with pytest.raises(ConfigError):
        driver.scan_eta(trap, zeta=1.0, eta_min=1.0, eta_max=4.0, steps=1)
    with pytest.raises(ConfigError):
        driver.scan_eta(trap, zeta=1.0, eta_min=4.0, eta_max=1.0, steps=5)
    with pytest.raises(ConfigError):
        driver.scan_eta(trap, zeta=0.0, eta_min=1.0, eta_max=4.0, steps=5)


@pytest.mark.parametrize("n", [2, 10**6, 10**8])
def test_scan_regime_agrees_with_the_thresholds_it_reports(n):
    # eta_low as N - sqrt(N^2 - 1) cancelled to 0.0 at N = 1e8, which put
    # rows with DXs > dx0 inside the interval
    rows = driver.scan_eta(TrapConfig(atom_count=n), zeta=1.0, eta_min=1e-3 / n,
                           eta_max=1e3 * n, steps=201)
    assert {r["regime"] for r in rows} == {"qs_threshold_above", "schwarz_threshold_above"}
    for r in rows:
        assert (r["regime"] == "qs_threshold_above") == (r["DXs"] <= r["dx0"]), r


# ---------------------------------------------------------------------------
# breathing_curve


def _curve_setup(n, m, squeeze=None):
    trap = TrapConfig(atom_count=n)
    basis = fock.OrbitalBasis(mode_count=m, trap=trap)
    if squeeze is None:
        orb = np.zeros(m, dtype=complex)
        orb[0] = 1.0
    else:
        orb = fock.squeezed_orbital(basis, squeeze)
    state = fock.condensate_state(orb, n)
    fb = FeedbackConfig(shift_rate=0.5, meas_resolution=0.7)
    return state, basis, trap, fb


def test_breathing_curve_single_atom_flat_at_stationary_size():
    state, basis, trap, fb = _curve_setup(1, 4)
    columns = helpers.breathing_curve(state, basis, trap, fb, samples=33)
    assert list(columns) == ["t", "sigma_q_sq", "dxa", "dx0", "DXs"]
    s = derive_scales(trap, fb)
    dxa = np.array(columns["dxa"])
    np.testing.assert_allclose(dxa, s.DXs, rtol=1e-12)
    assert columns["t"][0] == 0.0
    assert columns["t"][-1] == pytest.approx(math.pi / trap.trap_freq)


def test_breathing_curve_squeezed_condensate_oscillates_at_2omega():
    state, basis, trap, fb = _curve_setup(2, 8, squeeze=0.4)
    columns = helpers.breathing_curve(state, basis, trap, fb, samples=401)
    sig = np.array(columns["sigma_q_sq"])
    t = np.array(columns["t"])
    i_min, i_max = np.argmin(sig), np.argmax(sig)
    quarter = math.pi / (2.0 * trap.trap_freq)
    assert abs(abs(t[i_max] - t[i_min]) - quarter) < quarter / 50
    # closed-form minimum over the emitted grid
    h = criteria.quadrature_harmonics(state, basis)
    assert sig.min() == pytest.approx(h.minimum(), abs=1e-6)
    s = derive_scales(trap, fb)
    expected_min_dxa = math.sqrt(s.DXs ** 2 + (1 - 1 / 2) * h.minimum() * 2)
    dxa = np.array(columns["dxa"])
    # dxa is monotone in sigma_q_sq, so the minima line up
    assert np.argmin(dxa) == i_min


def test_breathing_curve_transient_column_starts_at_initial_size():
    state, basis, trap, fb = _curve_setup(2, 8, squeeze=0.3)
    columns = helpers.breathing_curve(state, basis, trap, fb, samples=17,
                                      include_transient=True)
    assert list(columns)[-1] == "dx"
    m0 = moments.init_moments(state, basis)
    assert columns["dx"][0] == pytest.approx(moments.cloud_size(m0)[0], rel=1e-12)
    g = moments.build_generators(trap, fb)
    t_mid = columns["t"][8]
    assert columns["dx"][8] == pytest.approx(
        moments.cloud_size(moments.evolve_grid(m0, g, [t_mid]))[0], rel=1e-12)


# ---------------------------------------------------------------------------
# CLI: formats and exit paths


def test_cli_broken_pipe_is_quiet():
    # evolve emits ~90 kB, more than a pipe buffer, so head's early exit
    # must reach the producer; the producer must not spray a traceback
    inner = ("import sys; sys.argv = ['cloudfeedback', 'evolve', '--n', '1',"
             " '--zeta', '0.2', '--sigma', '0.7'];"
             " from cloudfeedback.driver import main; main()")
    cmd = f"{shlex.quote(sys.executable)} -c {shlex.quote(inner)} | head -2"
    proc = subprocess.run(cmd, shell=True, capture_output=True, text=True,
                          timeout=60)
    assert proc.stdout.startswith("t,mean_x")
    assert "BrokenPipeError" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def test_cli_warning_joins_the_one_line_record(tmp_path):
    # gamma below 20 omega warns; the warning goes into the record, so that
    # stderr still holds the one JSON line
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"task": {"t_max": 1, "trajectories": 4}}))
    argv = ["loop", "--n", "1", "--gamma", "10", "--sigma0", "5", "--zeta0", "0.002",
            "--config", str(cfg)]
    inner = (f"import sys; sys.argv = ['cloudfeedback', *{argv!r}];"
             " from cloudfeedback.driver import main; main()")
    proc = subprocess.run([sys.executable, "-c", inner], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["warnings"] == [
        "TimescaleViolation: gamma 10.0 below 20 omega: loop is not fast relative to the trap"]


def test_cli_records_warnings_under_the_callers_filters(monkeypatch):
    def warns(cfg):
        warnings.warn("overflow in a stand-in kernel", RuntimeWarning)
        return {"a": 1.0}, {}, None

    monkeypatch.setitem(driver._TASKS, "scales", driver._TASKS["scales"]._replace(run=warns))
    argv = ["scales", "--n", "2", "--zeta", "1", "--sigma", "0.5"]
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        code, _, err = run_cli(argv)
    assert code == 0
    assert json.loads(err)["warnings"] == ["RuntimeWarning: overflow in a stand-in kernel"]
    # an "error" filter still raises, and an "ignore" filter leaves no key
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="stand-in"):
            run_cli(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code, _, err = run_cli(argv)
    assert code == 0 and "warnings" not in json.loads(err)


def test_cli_scales_spot_value():
    code, out, err = run_cli(["scales", "--n", "2", "--zeta", "1",
                              "--sigma", "0.5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["eta"] == pytest.approx(1.0, abs=1e-12)
    assert doc["DXs"] == pytest.approx(0.5, abs=1e-12)
    assert doc["dX0"] == pytest.approx(0.5, abs=1e-12)
    assert doc["dx0"] == pytest.approx(math.sqrt(0.5), rel=1e-12)
    # eta = dX0^2 / (zeta sigma^2): at sigma = 1/sqrt(2) it halves instead
    code, out, _ = run_cli(["scales", "--n", "2", "--zeta", "1",
                            "--sigma", "0.70710678"])
    assert code == 0
    assert json.loads(out)["eta"] == pytest.approx(0.5, rel=1e-6)


def test_cli_calls_in_a_row_share_no_values(tmp_path):
    assert driver._build_parser() is driver._build_parser()
    scan_out = tmp_path / "scan.csv"
    code, out, _ = run_cli(["scan", "--n", "3", "--zeta", "0.7", "--sigma", "0.31",
                            "--mass", "2", "--hbar", "3", "--seed", "9",
                            "--out", str(scan_out)])
    assert code == 0 and out == "" and scan_out.exists()
    # no --out, --mass or --hbar: stdout and the default unit scales
    code, out, _ = run_cli(["scales", "--n", "2", "--zeta", "1", "--sigma", "0.5"])
    assert code == 0
    fb = FeedbackConfig(shift_rate=1.0, meas_resolution=0.5)
    want = dataclasses.asdict(derive_scales(TrapConfig(atom_count=2), fb))
    assert json.loads(out) == {k: float(f"{v:.15g}") for k, v in want.items()}
    args = driver._build_parser().parse_args(["loop"])
    assert args.task == "loop"
    assert all(getattr(args, key) is None for key in (
        "config", "out", "seed", "n", "mass", "omega", "hbar", "zeta", "sigma",
        "gamma", "sigma0", "zeta0"))


def test_cli_scales_json_has_fifteen_significant_digits(tmp_path):
    out_path = tmp_path / "scales.json"
    code, _, _ = run_cli(["scales", "--n", "3", "--zeta", "0.7",
                          "--sigma", "0.31", "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert set(doc) == {"dX0", "dx0", "eta", "DXs"}
    trap = TrapConfig(atom_count=3)
    fb = FeedbackConfig(shift_rate=0.7, meas_resolution=0.31)
    for key, exact in dataclasses.asdict(derive_scales(trap, fb)).items():
        assert doc[key] == float(f"{exact:.15g}")


def test_cli_missing_config_file_exits_2():
    code, out, err = run_cli(["scales", "--config", "/no/such/file.json"])
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "ConfigError"
    assert "file" in doc["detail"]


def test_cli_invalid_json_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["scales", "--config", str(bad)])
    assert code == 2
    assert json.loads(err)["error"] == "ConfigError"
    # well-formed JSON, malformed state documents
    states = [{"kind": "superposition", "m": 2, "terms": [5]},
              {"kind": "superposition", "m": 2,
               "terms": [{"occupation": [1, 0], "amp": ["x", 0]}]},
              {"kind": "superposition", "m": 2,
               "terms": [{"occupation": [1, 0], "amp": [1, 0], "ampl": [0, 1]}]}]
    states += [{"kind": "condensate", "m": 2, "orbital": [[1, 0], entry]}
               for entry in ([1], ["a", "b"], 1)]
    for state in states:
        bad.write_text(json.dumps({"n": 1, "zeta": 0.5, "sigma": 0.7, "state": state}))
        code, _, err = run_cli(["criteria", "--config", str(bad)])
        assert code == 2, state
        assert json.loads(err)["error"] == "ConfigError"


def test_cli_oracle_refuses_superoperator_over_budget(tmp_path):
    # four atoms over eleven orbitals: a 1001-state sector, refused before
    # any operator is built
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "n": 4, "zeta": 0.5, "sigma": 0.7,
        "state": {"kind": "condensate", "m": 11}}))
    t0 = time.perf_counter()
    code, out, err = run_cli(["oracle", "--config", str(cfg)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "DimensionTooLarge"
    assert "the (n=4, m=11) sector: 1001 states, over the budget of 1000" in doc["detail"]


def test_cli_oracle_reaches_four_atoms(tmp_path):
    out_path = tmp_path / "oracle.csv"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "n": 4, "zeta": 0.5, "sigma": 0.7,
        "state": {"kind": "condensate", "m": 8},
        "task": {"name": "oracle", "t_max": 0.1}}))
    code, _, err = run_cli(["oracle", "--config", str(cfg), "--out", str(out_path)])
    assert code == 0
    doc = json.loads(err)
    assert doc["sector_dim"] == 330
    # steps 0 and 10 of the 16-step clock, and its last, t_max
    assert doc["instants"] == len(out_path.read_text().splitlines()) - 1 == 3


def test_cli_oracle_budgets_its_step_clock(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "n": 1, "zeta": 0.5, "sigma": 0.7,
        "state": {"kind": "condensate", "m": 6},
        "task": {"name": "oracle", "t_max": 1e9}}))
    t0 = time.perf_counter()
    code, out, err = run_cli(["oracle", "--config", str(cfg)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "ConfigError"
    assert "budget" in doc["detail"]


def test_cli_oracle_refuses_an_overflowing_taylor_plan_quietly():
    # mass 1e-300 puts norm * h / theta past the float range; the suite's
    # filters, set here too, turn a numpy overflow warning into an error
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(["oracle", "--n", "1", "--zeta", "0.5", "--sigma", "0.7",
                                  "--mass", "1e-300"])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    doc = json.loads(err)
    assert doc["error"] == "ConfigError"
    assert "generator products" in doc["detail"]


def test_cli_sector_refusal_prints_n_to_six_digits(tmp_path):
    # N = 1e300 has 301 digits, and its sector C(N + 5, 5) is past the float range
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 1e300, "zeta": 0.5, "sigma": 0.7}))
    code, out, err = run_cli(["criteria", "--config", str(cfg)])
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "ConfigError"
    assert "(n=1e+300, m=6) sector" in doc["detail"] and len(doc["detail"]) < 100
    # every other refusal that echoes a count prints it the same way, to six
    # significant digits and past the float range as a power of ten
    feedback, discrete = {"zeta": 0.5, "sigma": 0.7}, {"gamma": 100.0, "sigma0": 5.0,
                                                       "zeta0": 0.002}
    for task, doc, text in [
        ("criteria", {"n": 10**400, **feedback}, "trap (N=10^400, "),
        ("loop", {"n": 1, **discrete, "seed": 10**400, "task": {"t_max": 0.1}},
         "rng_seed must fit in 64 bits, got 10^400"),
        ("loop", {"n": 1, **discrete, "task": {"t_max": 0.1, "trajectories": 10**400}},
         "trajectories: 10^400 trajectories, over the budget of 65536"),
        ("criteria", {"n": 2, **feedback, "task": {"samples": 10**400}},
         "samples: 10^400 rows, over the budget of 100000"),
        ("oracle", {"n": 1, **feedback, "task": {"stride": -10**400}},
         "stride must be >= 1, got -10^400"),
        ("criteria", {"n": 2, **feedback, "state": {"kind": "condensate", "m": 10**400}},
         "mode_count: 10^400 orbitals, over the budget of 1000"),
        ("criteria", {"n": 2, **feedback,
                      "state": {"kind": "occupation", "occupation": [-10**400, "x", 2]}},
         "got [-10^400, 'x', 2]"),
        ("search", {"n": 2, "task": {"restarts": 10**400}},
         "restarts * max_iter: 10^404.301 Nelder-Mead iterations"),
        ("search", {"n": 2, "task": {"m": 10**400}}, "m: 10^400 orbitals, over the budget"),
        ("search", {"n": 1e300, "task": {"m": 3}},
         "(n=1e+300, m=3): 10^600 real parameters, over the budget of 64"),
    ]:
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli([task, "--config", str(cfg)])
        assert code == 2 and out == ""
        detail = json.loads(err)["detail"]
        assert text in detail and not re.search(r"\d{7}", detail), detail


@pytest.mark.parametrize("task, key", [("criteria", "samples"), ("evolve", "samples"),
                                       ("scan", "steps")])
def test_cli_grid_over_row_budget_exits_2_at_once(tmp_path, task, key):
    cfg = tmp_path / "run.json"
    for rows in (10**9, errors.BUDGETS["grid"].cap + 1):
        cfg.write_text(json.dumps({"n": 2, "zeta": 0.5, "sigma": 0.7,
                                   "task": {"name": task, key: rows}}))
        t0 = time.perf_counter()
        code, out, err = run_cli([task, "--config", str(cfg)])
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "ConfigError"
        assert key in doc["detail"]


@pytest.mark.parametrize("task, word", [
    ({"dt": 0.001}, "dt"),
    ({"stride": 4}, "stride"),
    ({"method": "rk4"}, "method"),
    ({"engine": "oracle"}, "oracle subcommand"),
], ids=["dt", "stride", "method", "engine-oracle"])
def test_cli_evolve_refuses_keys_its_engine_does_not_read(tmp_path, task, word):
    cfg = tmp_path / "run.json"
    out = tmp_path / "evolve.csv"
    base = {"n": 1, "zeta": 0.5, "sigma": 0.7, "state": {"kind": "condensate", "m": 8}}
    cfg.write_text(json.dumps({**base, "task": {"t_max": 0.1, **task}}))
    code, _, err = run_cli(["evolve", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    doc = json.loads(err)
    assert doc["error"] == "ConfigError"
    assert word in doc["detail"]
    assert not out.exists()
    # the moment flow takes the keys it does read
    cfg.write_text(json.dumps({**base, "task": {"engine": "moments", "t_max": 0.1,
                                                "samples": 3}}))
    code, _, _ = run_cli(["evolve", "--config", str(cfg), "--out", str(out)])
    assert code == 0 and out.exists()


def test_cli_evolve_csv_format_and_padding(tmp_path):
    out_path = tmp_path / "traj.csv"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "n": 1, "zeta": 0.5, "sigma": 0.7,
        "task": {"name": "evolve", "t_max": 2.0, "samples": 9}}))
    code, _, _ = run_cli(["evolve", "--config", str(cfg),
                          "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == ",".join(driver._MOMENT_HEADER)
    assert len(lines) == 10
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 16
        for cell in cells:
            assert CELL.match(cell), cell
    # single atom: the collective columns are zero padding
    first = lines[1].split(",")
    header = lines[0].split(",")
    for col in ("mean_Xbar", "mean_Pbar", "cov_XbarXbar", "cov_PbarPbar",
                "cov_xXbar", "cov_pPbar"):
        assert float(first[header.index(col)]) == 0.0
    assert float(first[header.index("cov_xx")]) == pytest.approx(0.5)
    assert float(first[header.index("dx")]) == pytest.approx(math.sqrt(0.5))


def test_cli_oracle_csv_appends_diagnostics(tmp_path):
    out_path = tmp_path / "oracle.csv"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "n": 1, "zeta": 0.5, "sigma": 0.7,
        "state": {"kind": "condensate", "m": 12},
        "task": {"name": "oracle", "t_max": 1.0, "stride": 25}}))
    code, _, _ = run_cli(["oracle", "--config", str(cfg),
                          "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].split(",") == driver._MOMENT_HEADER + ["trace_err", "top_pop"]
    trace_err = [abs(float(line.split(",")[-2])) for line in lines[1:]]
    assert max(trace_err) < 1e-10


def test_cli_oracle_reports_run_record_at_three_atoms(tmp_path):
    out_path = tmp_path / "oracle.csv"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "n": 3, "zeta": 0.5, "sigma": 0.7,
        "state": {"kind": "condensate", "m": 6},
        "task": {"name": "oracle", "t_max": 1.0, "stride": 25}}))
    code, out, err = run_cli(["oracle", "--config", str(cfg),
                              "--out", str(out_path)])
    assert code == 0 and out == ""
    lines = out_path.read_text().splitlines()
    # every 25th step of 2 pi / 1000 up to step 150, then t_max = 1.0, step 160
    times = [float(line.split(",")[0]) for line in lines[1:]]
    assert times == pytest.approx([k * 25 * 2 * math.pi / 1000 for k in range(7)] + [1.0],
                                  rel=1e-11)
    doc = json.loads(err)
    assert doc["task"] == "oracle"
    assert doc["instants"] == len(lines) - 1 == 8
    assert doc["sector_dim"] == 56
    assert set(doc["timings_s"]) == {"load", "compute", "write", "build", "propagate"}
    health = doc["health"]
    assert 0.0 <= health["max_trace_err"] < 1e-10
    assert 0.0 < health["max_top_pop"] < 1e-6
    assert -1e-6 <= health["min_eigenvalue"] < 1e-10
    # the ground condensate has no odd entries: its even block alone ran
    assert health["sectors"] == 1


def test_cli_oracle_reports_the_full_rho_for_a_displaced_condensate(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "n": 3, "zeta": 0.5, "sigma": 0.7,
        "state": {"kind": "condensate", "m": 6, "displacement": 0.2},
        "task": {"name": "oracle", "t_max": 0.5, "stride": 25}}))
    code, _, err = run_cli(["oracle", "--config", str(cfg)])
    assert code == 0
    assert json.loads(err)["health"]["sectors"] == 2


def _one_shot_csv(columns):
    # every row formatted, then joined into one text
    cells = [np.where(c, "true", "false").tolist() if c.dtype.kind == "b" else c.tolist()
             for c in map(np.asarray, columns.values())]
    line = ",".join("%.11e" if isinstance(c[0], float) else "%d" if isinstance(c[0], int)
                    else "%s" for c in cells)
    return "\n".join([",".join(columns), *(line % row for row in zip(*cells))]) + "\n"


def test_write_csv_streams_the_bytes_of_one_shot_formatting(tmp_path):
    # two blocks of 4096 rows and a cut one
    rows = 2 * 4096 + 3
    rng = np.random.default_rng(3)
    columns = {"t": np.linspace(0.0, 1.0, rows), "x": rng.standard_normal(rows) * 1e-300,
               "n": np.arange(rows) - 5, "u": np.arange(rows, dtype=np.uint8),
               "flag": np.arange(rows) % 3 == 0, "kind": [f"k{i}" for i in range(rows)]}
    target = tmp_path / "out.csv"
    driver.write_csv(str(target), columns)
    assert target.read_bytes() == _one_shot_csv(columns).encode()
    out = io.StringIO()
    with redirect_stdout(out):
        driver.write_csv(None, columns)
    assert out.getvalue() == _one_shot_csv(columns)
    # a header alone without rows
    driver.write_csv(str(target), {"a": [], "b": []})
    assert target.read_text() == "a,b\n"
    # the check of the last column comes before the first byte
    target.write_text("kept")
    with pytest.raises(NonFiniteCell):
        driver.write_csv(str(target), {"a": np.zeros(10), "b": np.append(np.zeros(9), np.nan)})
    assert target.read_text() == "kept"


def test_write_csv_holds_a_block_of_rows_at_a_time(tmp_path):
    import tracemalloc

    rows = 100_000
    columns = {f"c{k}": np.linspace(k, k + 1.0, rows) for k in range(16)}
    target = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        driver.write_csv(str(target), columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one-shot formatting peaked at 110.6 MiB here
    assert peak < 16 * 2**20
    with open(target, encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == rows + 1


def test_write_csv_refuses_non_finite_cells(tmp_path, monkeypatch):
    target = tmp_path / "bad.csv"
    for bad in (math.nan, math.inf, np.float64(-np.inf)):
        with pytest.raises(NonFiniteCell):
            driver.write_csv(str(target), {"a": [1.0, bad], "b": [2, 3]})
        assert not target.exists()
    # through the command line: exit 3 with the JSON error line
    monkeypatch.setattr(driver, "scan_eta", lambda *args: [
        {"eta": 1.0, "dX0": math.nan, "dx0": 1.0, "DXs": 1.0, "regime": "x"}])
    code, out, err = run_cli(["scan", "--n", "2"])
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "NonFiniteCell"


@pytest.mark.parametrize("zeta, t_max", [(0.5, 1e6), (0.0, 1e300)])
def test_cli_evolve_refuses_an_overflowing_exponential(tmp_path, zeta, t_max):
    # the matrix exponential overflows to a NaN covariance, refused before eigh
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 2, "zeta": zeta, "sigma": 0.7,
                               "task": {"t_max": t_max, "samples": 3}}))
    code, out, err = run_cli(["evolve", "--config", str(cfg)])
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "StepRejected"


def test_cli_evolve_long_time_loss_exits_3_with_its_error_line(tmp_path):
    # the Van Loan flow loses the covariance's symmetry at long times for
    # N >= 2; the stacked grid refuses it as the per-instant flow did, with
    # the defect that the package's own exponential leaves
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 2, "zeta": 0.5, "sigma": 0.7, "task": {"t_max": 200}}))
    out = tmp_path / "flow.csv"
    code, stdout, err = run_cli(["evolve", "--config", str(cfg), "--out", str(out)])
    assert (code, stdout) == (3, "")
    assert err == ('{"error": "StepRejected", "detail": "covariance not symmetric '
                   '(defect np.float64(1.2161012474809496e-08))"}\n')
    assert not out.exists()


@pytest.mark.parametrize("task", ["criteria", "evolve"])
@pytest.mark.parametrize("temperature", [1e16, 1e17, 1e300])
def test_cli_hot_thermal_state_exits_3(tmp_path, task, temperature):
    # 1 - exp(-hw/T) rounds to 0 from T = 1e17 on; the partition sum stays finite
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "n": 2, "zeta": 0.5, "sigma": 0.7, "task": {"samples": 3},
        "state": {"kind": "thermal", "m": 6, "temperature": temperature, "cutoff": 5}}))
    code, out, err = run_cli([task, "--config", str(cfg)])
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "CutoffTooTight"


def test_cli_superposition_amplitudes_past_sqrt_of_float_max(tmp_path):
    # |amp|^2 overflows from 1.3e154 on; a power-of-two scaling keeps every bit
    outs = []
    for amp in ([1, 0], [1e200, 0]):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "n": 2, "zeta": 0.5, "sigma": 0.7, "task": {"samples": 9},
            "state": {"kind": "superposition", "m": 3,
                      "terms": [{"occupation": [2, 0, 0], "amp": amp}]}}))
        code, out, err = run_cli(["criteria", "--config", str(cfg)])
        assert code == 0
        assert len(err.splitlines()) == 1
        outs.append(out)
    assert outs[0] == outs[1]


def test_cli_superposition_small_amplitude_is_not_cancellation(tmp_path):
    # cancellation is judged against the largest amplitude given: a lone
    # 1e-13 is the state of 1, while 1 and -1 on one occupation cancel
    def run(*amps):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "n": 2, "zeta": 0.5, "sigma": 0.7, "task": {"samples": 9},
            "state": {"kind": "superposition", "m": 3,
                      "terms": [{"occupation": [2, 0, 0], "amp": a} for a in amps]}}))
        return run_cli(["criteria", "--config", str(cfg)])

    code, small, _ = run([1e-13, 0])
    assert code == 0
    assert small == run([1, 0])[1]
    code, out, err = run([1, 0], [-1, 0])
    assert (code, out) == (2, "")
    assert json.loads(err)["detail"] == "superposition terms cancel to zero"


def test_cli_criteria_emits_curve_and_report(tmp_path):
    out_path = tmp_path / "curve.csv"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "n": 2, "zeta": 0.5, "sigma": 0.7,
        "state": {"kind": "condensate", "m": 6, "squeeze": 0.3},
        "task": {"name": "criteria", "samples": 65, "include_transient": True}}))
    code, _, err = run_cli(["criteria", "--config", str(cfg),
                            "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "t,sigma_q_sq,dxa,dx0,DXs,dx"
    assert len(lines) == 66
    report = json.loads(err)
    for key in ("min_dxa", "t_star", "qs", "schwarz", "dx0", "DXs",
                "min_sigma_q_sq", "notes"):
        assert key in report
    # squeezed pair near eta = 1: the cloud dips under the one-atom size
    assert report["qs"] is True
    assert report["min_dxa"] < report["dx0"]


@pytest.mark.parametrize("n, level", [(1, 0.0), (2, 0.25)])
def test_cli_criteria_flat_curve_is_least_at_t_zero(n, level):
    # a ground condensate does not breathe: every instant is a minimizer,
    # and the earliest is t = 0
    code, out, err = run_cli(["criteria", "--n", str(n), "--zeta", "0.5", "--sigma", "0.7"])
    assert code == 0
    report = json.loads(err)
    assert report["min_sigma_q_sq"] == pytest.approx(level, abs=1e-15)
    assert report["t_star"] == 0.0


def test_cli_criteria_large_n_and_row_budget(tmp_path):
    # the ground condensate is one occupation row at any N
    code, out, err = run_cli(["criteria", "--n", "1000", "--zeta", "0.5",
                              "--sigma", "0.1"])
    assert code == 0
    assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(0.5 * (1 - 1e-3))
    # a generic orbital over six modes would need C(1005, 5) rows: refused
    # before the enumeration starts
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "n": 1000, "zeta": 0.5, "sigma": 0.1,
        "state": {"kind": "condensate", "m": 6, "orbital": [[1, 0]] * 6}}))
    code, out, err = run_cli(["criteria", "--config", str(cfg)])
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "ConfigError"
    assert "budget" in doc["detail"]
    # a large support is applied in row chunks, not refused: a displaced
    # condensate with N = 18 over six modes has 33,649 rows, and the
    # all-pairs a+_i a_j of rho1 has 948,024 nonzero terms on them
    cfg.write_text(json.dumps({
        "n": 18, "zeta": 0.5, "sigma": 0.7,
        "state": {"kind": "condensate", "m": 6, "displacement": 0.02},
        "task": {"samples": 3}}))
    code, out, err = run_cli(["evolve", "--config", str(cfg)])
    assert code == 0, err
    assert len(out.splitlines()) == 4


def test_cli_breathing_thresholds_are_constant_columns(tmp_path):
    out_path = tmp_path / "curve.csv"
    code, _, _ = run_cli(["criteria", "--n", "2", "--zeta", "1",
                          "--sigma", "0.5", "--out", str(out_path)])
    assert code == 0
    rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
    dx0 = {row[3] for row in rows}
    dxs = {row[4] for row in rows}
    assert len(dx0) == 1 and len(dxs) == 1
    assert float(dx0.pop()) == pytest.approx(math.sqrt(0.5), rel=1e-11)
    assert float(dxs.pop()) == pytest.approx(0.5, rel=1e-11)


# ---------------------------------------------------------------------------
# CLI: determinism and failure paths


def test_cli_loop_rerun_is_byte_identical(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "n": 1, "gamma": 100.0, "sigma0": 5.0, "zeta0": 0.002,
        "task": {"name": "loop", "t_max": 1.0, "trajectories": 128}}))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code, _, err1 = run_cli(["loop", "--config", str(cfg), "--seed", "9",
                             "--out", str(a)])
    assert code == 0
    # at zeta0 = 0.002 the mean map's eigenvalues are complex: radius sqrt(1 - zeta0)
    loop_fields = {"gamma": 100.0, "sigma0": 5.0, "zeta0": 0.002, "K": 128, "seed": 9,
                   "spectral_radius": math.sqrt(0.998), "traj_events": 128 * 100}
    record = json.loads(err1)
    assert {key: record[key] for key in loop_fields} == loop_fields
    code, _, _ = run_cli(["loop", "--config", str(cfg), "--seed", "9",
                          "--out", str(b)])
    assert code == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "t,mean_X,var_X,mean_P,var_P,n_events"
    c = tmp_path / "c.csv"
    run_cli(["loop", "--config", str(cfg), "--seed", "10", "--out", str(c)])
    assert a.read_bytes() != c.read_bytes()


def test_cli_loop_unstable_map_exits_2(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "n": 1, "gamma": 50.0, "sigma0": 5.0, "zeta0": 100.0,
        "task": {"name": "loop", "t_max": 1.0, "trajectories": 16}}))
    out = tmp_path / "loop.csv"
    code, _, err = run_cli(["loop", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    doc = json.loads(err)
    assert doc["error"] == "ConfigError"
    assert "spectral radius" in doc["detail"]
    assert not out.exists()
    # without gain the map is a pure rotation, radius exactly 1, still allowed
    code, _, _ = run_cli(["loop", "--config", str(cfg), "--zeta0", "0",
                          "--out", str(out)])
    assert code == 0


@pytest.mark.parametrize("t_max", [math.inf, math.nan])
@pytest.mark.parametrize("task, doc", [
    ("loop", {"n": 1, "gamma": 100.0, "sigma0": 5.0, "zeta0": 0.002,
              "task": {"trajectories": 4}}),
    ("evolve", {"n": 1, "zeta": 0.5, "sigma": 0.7, "task": {"samples": 3}}),
])
def test_cli_non_finite_t_max_exits_2(tmp_path, task, doc, t_max):
    cfg = tmp_path / "run.json"
    doc = {**doc, "task": {**doc["task"], "t_max": t_max}}
    cfg.write_text(json.dumps(doc))  # written as Infinity / NaN
    code, out, err = run_cli([task, "--config", str(cfg)])
    assert code == 2
    assert out == ""
    # the JSON error line is all there is: no warning text ahead of it
    (line,) = err.splitlines()
    doc = json.loads(line)
    assert doc["error"] == "ConfigError"
    assert "t_max must be finite" in doc["detail"]


@pytest.mark.parametrize("task", [
    {"t_max": 1e5, "trajectories": 1},       # 10^7 events per trajectory
    {"t_max": 100.0, "trajectories": 65536},  # 6.6e8 trajectory-events
], ids=["events", "trajectory-events"])
def test_cli_loop_over_event_budget_exits_2_at_once(tmp_path, task):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 1, "gamma": 100.0, "sigma0": 5.0, "zeta0": 0.002,
                               "task": task}))
    out = tmp_path / "loop.csv"
    t0 = time.perf_counter()
    code, _, err = run_cli(["loop", "--config", str(cfg), "--out", str(out)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    doc = json.loads(err)
    assert doc["error"] == "ConfigError"
    assert "budget" in doc["detail"]
    assert not out.exists()


def test_cli_loop_inside_event_budget_writes_every_record(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 1, "gamma": 100.0, "sigma0": 5.0, "zeta0": 0.002,
                               "task": {"t_max": 10.0, "trajectories": 1}}))
    out = tmp_path / "loop.csv"
    code, _, err = run_cli(["loop", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert json.loads(err)["traj_events"] == 1000
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 1001
    assert {len(row.split(",")) for row in rows} == {6}
    trap = TrapConfig(atom_count=1)
    state, basis = driver.build_state({"kind": "condensate", "m": 4}, trap)
    for schedule in ("regular", "poisson"):
        traj = loop.run_ensemble(
            moments.init_moments(state, basis),
            loop.LoopConfig(gamma=100.0, sigma0=5.0, zeta0=0.002, schedule=schedule),
            trap, 10.0)
        # the four moment columns are views of one preallocated record array
        assert traj.mean_X.base is traj.var_P.base
        assert traj.mean_X.base.shape == (1001, 4)


def test_cli_loop_without_discrete_triple_exits_2():
    code, _, err = run_cli(["loop", "--n", "1", "--zeta", "0.5",
                            "--sigma", "0.7"])
    assert code == 2
    assert "triple" in json.loads(err)["detail"]


def test_cli_scan_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(["scan", "--n", "2", "--zeta", "1",
                              "--sigma", "0.5", "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "eta,dX0,dx0,DXs,regime"
    assert len(lines) == 26


def test_cli_search_rerun_is_byte_identical(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "n": 2,
        "task": {"name": "search", "family": "fixed_N_pure", "m": 3,
                 "restarts": 3}}))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, err = run_cli(["search", "--config", str(cfg), "--seed", "5",
                                "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    summary = json.loads(err)
    assert summary["task"] == "search"
    assert summary["family"] == "fixed_N_pure"
    assert summary["best_value"] >= -1e-8
    assert 0 <= summary["best_restart"] < 3
    lines = a.read_text().splitlines()
    assert lines[0] == "restart,start_value,final_value,iterations,converged"
    assert len(lines) == 4
    assert all(line.endswith(("true", "false")) for line in lines[1:])
    # each restart evaluates its start point, the 13 vertices of its first
    # simplex (12 real parameters) and at least one point an iteration
    iterations = sum(int(line.split(",")[3]) for line in lines[1:])
    assert summary["evaluations"] >= iterations + 3 * 14
    assert set(summary["timings_s"]) == {"load", "compute", "write", "build", "search"}
    assert all(v >= 0.0 for v in summary["timings_s"].values())
    assert summary["health"] == {
        "converged": sum(line.endswith("true") for line in lines[1:])}


def test_cli_searched_state_runs_through_the_other_subcommands(tmp_path):
    # the fixed-N state_out is a superposition section over the M + 1 orbitals
    state_path, cfg, out = tmp_path / "state.json", tmp_path / "run.json", tmp_path / "out.csv"
    cfg.write_text(json.dumps({
        "n": 2, "task": {"family": "fixed_N_pure", "m": 3, "restarts": 2,
                         "state_out": str(state_path)}}))
    code, _, err = run_cli(["search", "--config", str(cfg), "--seed", "5", "--out", str(out)])
    assert code == 0
    best = json.loads(err)["best_value"]
    state = json.loads(state_path.read_text())
    assert (state["kind"], state["m"]) == ("superposition", 4)
    runs = {"criteria": {"zeta": 0.5, "sigma": 0.7},
            "evolve": {"zeta": 0.5, "sigma": 0.7, "task": {"t_max": 1.0, "samples": 5}},
            "loop": {"gamma": 100.0, "sigma0": 5.0, "zeta0": 0.002,
                     "task": {"t_max": 0.2, "trajectories": 16}},
            "oracle": {"zeta": 0.5, "sigma": 0.7, "task": {"t_max": 0.5}}}
    records = {}
    for task, doc in runs.items():
        cfg.write_text(json.dumps({"n": 2, "state": state, **doc}))
        code, _, err = run_cli([task, "--config", str(cfg), "--out", str(out)])
        records[task] = code, json.loads(err)
    assert {task: code for task, (code, _) in records.items()} == {
        "criteria": 0, "evolve": 0, "loop": 0, "oracle": 3}
    # criteria's Gram kernel finds the minimum of the search's dense quadratic forms
    assert records["criteria"][1]["min_sigma_q_sq"] == pytest.approx(best, abs=1e-12)
    # one guard orbital above M: the breathing state soon populates the top one
    assert records["oracle"][1]["error"] == "TruncationLeak"


@pytest.mark.parametrize("task", [
    {"restarts": 1000000000},
    {"restarts": 8, "max_iter": 2**19 + 1},
    {"tol": math.inf},
    # inside the iteration budget, but 2^22 * (12 + 2) set-up evaluations
    {"restarts": 4194304, "max_iter": 1},
])
def test_cli_search_over_budget_exits_2_at_once(tmp_path, task):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "n": 2, "task": {"name": "search", "family": "fixed_N_pure", "m": 3, **task}}))
    out = tmp_path / "search.csv"
    start = time.perf_counter()
    code, _, err = run_cli(["search", "--config", str(cfg), "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert json.loads(err)["error"] == "ConfigError"
    assert not out.exists()


# seeded artifacts of the scipy.optimize Nelder-Mead that search used before
# its own; the in-package one must reproduce them byte for byte
_PINNED_SEARCH = {
    "fixed_N_pure": (
        5, 3,
        "restart,start_value,final_value,iterations,converged\n"
        "0,1.53228181112e-01,1.02426188913e-01,1789,true\n"
        "1,2.50884506140e-01,1.02426188913e-01,1691,true\n",
        0.1024261889130001, 6377, None),
    "indefinite_N_coherent": (
        11, 3,
        "restart,start_value,final_value,iterations,converged\n"
        "0,1.61243084411e-01,-5.35886015423e-01,377,true\n"
        "1,5.95669054366e-01,-5.35886015423e-01,341,true\n",
        -0.5358860154231342, 1412,
        [[0.45212724911311664, -0.5014540046004031],
         [-1.029210531330604, 0.058482963346447134],
         [0.52001158742925, 0.4593671799501259]]),
}


@pytest.mark.parametrize("family", sorted(_PINNED_SEARCH))
def test_cli_search_reproduces_pinned_artifacts(tmp_path, family):
    seed, m, csv, best, evaluations, alpha = _PINNED_SEARCH[family]
    cfg = tmp_path / "run.json"
    state_path = tmp_path / "state.json"
    cfg.write_text(json.dumps({
        "n": 2,
        "task": {"name": "search", "family": family, "m": m, "restarts": 2,
                 "state_out": str(state_path)}}))
    out = tmp_path / "search.csv"
    code, _, err = run_cli(["search", "--config", str(cfg), "--seed", str(seed),
                            "--out", str(out)])
    assert code == 0
    assert out.read_text() == csv
    summary = json.loads(err)
    assert summary["best_value"] == best
    assert summary["evaluations"] == evaluations
    assert summary["health"] == {"converged": 2}
    if alpha is not None:
        doc = json.loads(state_path.read_text())
        assert doc["alpha"] == alpha
        assert doc["mean_n"] == 2.000000000000001


# seeded artifacts of four runs on a thermal ensemble, recorded before the
# ensemble became one weighted batch of occupation rows; every route (rho1
# and Gram matrix, moments, the oracle's density matrix, the loop's initial
# moments) must reproduce them byte for byte
_THERMAL = {"kind": "thermal", "m": 5, "temperature": 0.5, "cutoff": 4.9}
_THERMAL_RUNS = {
    "criteria": {"n": 2, "zeta": 0.5, "sigma": 0.7, "state": _THERMAL,
                 "task": {"samples": 5, "include_transient": True}},
    "evolve": {"n": 2, "zeta": 0.5, "sigma": 0.7, "state": _THERMAL,
               "task": {"t_max": 1.0, "samples": 4}},
    # the cutoff keeps the top orbital of eight empty
    "oracle": {"n": 2, "zeta": 0.5, "sigma": 0.7,
               "state": {"kind": "thermal", "m": 8, "temperature": 0.3, "cutoff": 3.9},
               "task": {"t_max": 0.3, "stride": 16}},
    "loop": {"n": 2, "gamma": 100.0, "sigma0": 5.0, "zeta0": 0.002, "seed": 7,
             "state": _THERMAL,
             "task": {"t_max": 0.05, "schedule": "poisson", "trajectories": 16}},
}
_PINNED_THERMAL = {
    "criteria": (
        "t,sigma_q_sq,dxa,dx0,DXs,dx\n"
        "0.00000000000e+00,2.67668422014e-01,7.19527235358e-01,7.07106781187e-01,5.00051017805e-01,7.71322439087e-01\n"
        "7.85398163397e-01,2.67668422014e-01,7.19527235358e-01,7.07106781187e-01,5.00051017805e-01,7.17841677844e-01\n"
        "1.57079632679e+00,2.67668422014e-01,7.19527235358e-01,7.07106781187e-01,5.00051017805e-01,7.44118812151e-01\n"
        "2.35619449019e+00,2.67668422014e-01,7.19527235358e-01,7.07106781187e-01,5.00051017805e-01,7.54608849024e-01\n"
        "3.14159265359e+00,2.67668422014e-01,7.19527235358e-01,7.07106781187e-01,5.00051017805e-01,7.33026697144e-01\n"),
    "evolve": (
        "t,mean_x,mean_p,mean_Xbar,mean_Pbar,cov_xx,cov_xp,cov_xXbar,cov_xPbar,cov_pp,cov_pXbar,cov_pPbar,cov_XbarXbar,cov_XbarPbar,cov_PbarPbar,dx\n"
        "0.00000000000e+00,0.00000000000e+00,0.00000000000e+00,0.00000000000e+00,0.00000000000e+00,5.94938305039e-01,0.00000000000e+00,5.96014610111e-02,0.00000000000e+00,5.94938305039e-01,0.00000000000e+00,5.96014610111e-02,5.94938305039e-01,0.00000000000e+00,5.94938305039e-01,7.71322439087e-01\n"
        "3.33333333333e-01,0.00000000000e+00,0.00000000000e+00,0.00000000000e+00,0.00000000000e+00,5.40265288184e-01,1.57738797937e-02,4.92844415611e-03,1.57738797937e-02,6.33789248601e-01,1.57738797937e-02,9.84524045731e-02,5.40265288184e-01,1.57738797937e-02,6.33789248601e-01,7.35027406417e-01\n"
        "6.66666666667e-01,0.00000000000e+00,0.00000000000e+00,0.00000000000e+00,0.00000000000e+00,5.16628278570e-01,5.04953409524e-02,-1.87085654577e-02,5.04953409524e-02,6.54717742414e-01,5.04953409524e-02,1.19380898386e-01,5.16628278570e-01,5.04953409524e-02,6.54717742414e-01,7.18768584852e-01\n"
        "1.00000000000e+00,0.00000000000e+00,0.00000000000e+00,0.00000000000e+00,0.00000000000e+00,5.20192031057e-01,8.52366257724e-02,-1.51448129708e-02,8.52366257724e-02,6.51536382044e-01,8.52366257724e-02,1.16199538016e-01,5.20192031057e-01,8.52366257724e-02,6.51536382044e-01,7.21243392384e-01\n"),
    "oracle": (
        "t,mean_x,mean_p,mean_Xbar,mean_Pbar,cov_xx,cov_xp,cov_xXbar,cov_xPbar,cov_pp,cov_pXbar,cov_pPbar,cov_XbarXbar,cov_XbarPbar,cov_PbarPbar,dx,trace_err,top_pop\n"
        "0.00000000000e+00,0.00000000000e+00,0.00000000000e+00,0.00000000000e+00,0.00000000000e+00,5.19631945816e-01,0.00000000000e+00,1.71803754221e-02,0.00000000000e+00,5.19631945816e-01,0.00000000000e+00,1.71803754221e-02,5.19631945816e-01,0.00000000000e+00,5.19631945816e-01,7.20855010259e-01,1.11022302463e-16,0.00000000000e+00\n"
        "1.00530964915e-01,0.00000000000e+00,0.00000000000e+00,0.00000000000e+00,0.00000000000e+00,5.05764900877e-01,1.33071836716e-03,3.31333047558e-03,1.33071836735e-03,5.32364699046e-01,1.33071836735e-03,2.99131286572e-02,5.05764900877e-01,1.33071836716e-03,5.32364699046e-01,7.11171498920e-01,2.22044604925e-16,4.64165249855e-13\n"
        "2.01061929830e-01,0.00000000000e+00,0.00000000000e+00,0.00000000000e+00,0.00000000000e+00,4.93721044683e-01,5.09496350513e-03,-8.73052593653e-03,5.09496351569e-03,5.44579251342e-01,5.09496351569e-03,4.21276810629e-02,4.93721044683e-01,5.09496350513e-03,5.44579251342e-01,7.02652862147e-01,4.44089209850e-16,2.42277700538e-11\n"
        "3.00000000000e-01,0.00000000000e+00,0.00000000000e+00,0.00000000000e+00,0.00000000000e+00,4.83895658228e-01,1.08015929963e-02,-1.85559138394e-02,1.08015930999e-02,5.55655580680e-01,1.08015930999e-02,5.32040109472e-02,4.83895658228e-01,1.08015929963e-02,5.55655580680e-01,6.95626090819e-01,2.22044604925e-16,2.18622642130e-10\n"),
    "loop": (
        "t,mean_X,var_X,mean_P,var_P,n_events\n"
        "0.00000000000e+00,0.00000000000e+00,3.27269883025e-01,0.00000000000e+00,1.30907953210e+00,0\n"
        "1.00000000000e-02,-2.12095576736e-02,3.25888856343e-01,4.52434708352e-05,1.31720419191e+00,0\n"
        "2.00000000000e-02,-3.29831138355e-02,3.24278565807e-01,5.47459253544e-04,1.33157541318e+00,2\n"
        "3.00000000000e-02,-3.55123766340e-02,3.24057371077e-01,1.16821234337e-03,1.34219078674e+00,3\n"
        "4.00000000000e-02,-5.20523709023e-02,3.22969075618e-01,1.99482775900e-03,1.35029747365e+00,4\n"
        "5.00000000000e-02,-5.82502503537e-02,3.21802483997e-01,3.29345288866e-03,1.36089265221e+00,5\n"),
}


@pytest.mark.parametrize("task", sorted(_THERMAL_RUNS))
def test_cli_thermal_reproduces_pinned_artifacts(tmp_path, task):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(_THERMAL_RUNS[task]))
    code, out, err = run_cli([task, "--config", str(cfg)])
    assert code == 0
    assert out == _PINNED_THERMAL[task]
    # the record reports the weight the cutoff left out, as the ensemble holds it
    doc = _THERMAL_RUNS[task]
    trap = TrapConfig(atom_count=doc["n"])
    ensemble, _ = driver.build_state(doc["state"], trap)
    assert 0.0 < ensemble.truncation_loss < 1e-3
    assert json.loads(err)["health"]["truncation_loss"] == ensemble.truncation_loss


def test_cli_search_single_atom_is_immediate():
    code, out, err = run_cli(["search", "--n", "1"])
    assert code == 0
    assert json.loads(err)["best_value"] == 0.0
    row = out.splitlines()[1].split(",")
    assert row[0] == "0" and row[4] == "true"


def test_cli_search_reads_no_feedback(tmp_path):
    # zeta and sigma are validated but unread: zeta = 0 has no eta, and the
    # search must not need one
    argv = ["search", "--n", "2", "--seed", "5"]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"task": {"family": "fixed_N_pure", "m": 3, "restarts": 2}}))
    plain = run_cli(argv + ["--config", str(cfg)])
    fed = run_cli(argv + ["--config", str(cfg), "--zeta", "0", "--sigma", "1"])
    assert plain[0] == fed[0] == 0
    assert fed[1] == plain[1]
    assert "DXs" not in fed[2]


def test_cli_search_nonconvergence_exits_3(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "n": 2,
        "task": {"name": "search", "family": "fixed_N_pure", "m": 3,
                 "restarts": 2, "max_iter": 1}}))
    code, out, err = run_cli(["search", "--config", str(cfg), "--seed", "1"])
    assert code == 3
    doc = json.loads(err)
    assert doc["error"] == "NonConvergence"
    assert len(doc["report"]["rows"]) == 2


def test_cli_search_writes_state_artifact(tmp_path):
    cfg = tmp_path / "run.json"
    state_path = tmp_path / "state.json"
    cfg.write_text(json.dumps({
        "n": 2,
        "task": {"name": "search", "family": "indefinite_N_coherent", "m": 4,
                 "restarts": 3, "state_out": str(state_path)}}))
    code, _, err = run_cli(["search", "--config", str(cfg), "--seed", "11"])
    assert code == 0
    doc = json.loads(state_path.read_text())
    assert doc["family"] == "indefinite_N_coherent"
    assert doc["mean_n"] == pytest.approx(2.0, rel=1e-10)
    assert json.loads(err)["best_value"] < -0.2


@pytest.mark.parametrize("state", [
    {"kind": "condensate", "m": 100000},
    {"kind": "occupation", "occupation": [1] + [0] * 1000},
], ids=["condensate", "occupation"])
@pytest.mark.parametrize("task, doc", [
    ("criteria", {"zeta": 0.5, "sigma": 0.7}),
    ("evolve", {"zeta": 0.5, "sigma": 0.7}),
    ("loop", {"gamma": 100.0, "sigma0": 5.0, "zeta0": 0.002, "task": {"t_max": 0.1}}),
])
def test_cli_orbital_count_over_cap_exits_2_at_once(tmp_path, task, doc, state):
    # refused before any M x M matrix is built
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 1, **doc, "state": state}))
    out = tmp_path / "out.csv"
    t0 = time.perf_counter()
    code, _, err = run_cli([task, "--config", str(cfg), "--out", str(out)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    doc = json.loads(err)
    assert doc["error"] == "ConfigError"
    assert "mode_count" in doc["detail"]
    assert not out.exists()


def test_cli_wide_thermal_sector_exits_2_at_once(tmp_path):
    # a cutoff of 301 reaches every orbital, so all 45,150 rows of 300 cells
    # are enumerated: the enumeration is refused by its bytes
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "n": 2, "zeta": 0.5, "sigma": 0.7,
        "state": {"kind": "thermal", "m": 300, "temperature": 0.3, "cutoff": 301}}))
    t0 = time.perf_counter()
    code, out, err = run_cli(["criteria", "--config", str(cfg)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "ConfigError"
    assert "cells" in doc["detail"]


def test_cli_thermal_near_the_rows_cap_runs_at_once(tmp_path):
    # two orbitals under the cutoff admit N + 1 rows, N up to the rows cap;
    # the partition function is a product of N factors, not an N^2 recursion
    n = 999_999
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "n": n, "zeta": 0.5, "sigma": 0.7, "task": {"samples": 3},
        "state": {"kind": "thermal", "m": 3, "temperature": 0.1, "cutoff": n / 2 + 0.5}}))
    t0 = time.perf_counter()
    code, out, err = run_cli(["criteria", "--config", str(cfg)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and len(out.splitlines()) == 4


def test_cli_thermal_enumerates_only_the_orbitals_its_cutoff_reaches(tmp_path):
    # cutoff 5.4 at N = 3 leaves every orbital above the fourth empty, so a
    # 200-orbital basis (1,353,400 rows in its sector) runs like a 10-orbital one
    outs = []
    for m in (200, 10):
        cfg = tmp_path / f"run{m}.json"
        cfg.write_text(json.dumps({
            "n": 3, "zeta": 0.5, "sigma": 0.7,
            "state": {"kind": "thermal", "m": m, "temperature": 0.3, "cutoff": 5.4}}))
        code, out, _ = run_cli(["criteria", "--config", str(cfg)])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


# one plain run of each subcommand, and four traps whose scales leave the
# float range (N m omega, hbar^2 or m omega^2 under- or overflows)
_RUNS = {
    "criteria": {"n": 2, "zeta": 0.5, "sigma": 0.7},
    "evolve": {"n": 2, "zeta": 0.5, "sigma": 0.7},
    "oracle": {"n": 1, "zeta": 0.5, "sigma": 0.7},
    "loop": {"n": 1, "gamma": 100.0, "sigma0": 5.0, "zeta0": 0.002, "task": {"t_max": 1.0}},
    "scan": {"n": 2, "zeta": 0.5, "sigma": 0.7},
    "search": {"n": 2, "zeta": 0.5, "sigma": 0.7},
}
_EDGE_TRAPS = {"tiny-m-omega": {"mass": 1e-200, "omega": 1e-200}, "huge-hbar": {"hbar": 1e300},
               "tiny-omega": {"omega": 1e-300}, "huge-omega": {"omega": 1e300}}
# feedback pairs whose sigma^2 or zeta^2 sigma^2, or with hbar whose noise
# rates and 1/eta, leave the float range, and feedback without a finite sigma
_EDGE_FEEDBACK = {"tiny-sigma": {"zeta": 0.5, "sigma": 1e-200},
                  "huge-zeta": {"zeta": 1e300, "sigma": 0.7},
                  "huge-sigma": {"zeta": 0.5, "sigma": 1e200},
                  "tiny-hbar": {"hbar": 1e-150, "zeta": 0.5, "sigma": 1e150},
                  "subnormal-eta": {"hbar": 1e-10, "zeta": 1.0, "sigma": 1e150},
                  "infinite-sigma": {"zeta": 0.5, "sigma": math.inf}}
# a displaced condensate of 12 atoms over 10 orbitals: 293,930 occupations,
# seconds of Fock work that a malformed task key must not wait for
_WIDE = {"n": 12, "state": {"kind": "condensate", "m": 10, "displacement": 0.2}}
_WIDE_FEEDBACK = {**_WIDE, "zeta": 0.5, "sigma": 0.7}
_WIDE_LOOP = {**_WIDE, "gamma": 100.0, "sigma0": 5.0, "zeta0": 0.002}
# malformed task keys, each refused before the initial state is built
_LATE_KEYS = {
    "late-criteria-samples": ("criteria", {**_WIDE_FEEDBACK, "task": {"samples": 1}}),
    "late-evolve-samples": ("evolve", {**_WIDE_FEEDBACK, "task": {"samples": 0}}),
    "late-loop-record-stride": ("loop", {**_WIDE_LOOP, "task": {"t_max": 1.0,
                                                                "record_stride": 0}}),
    "late-loop-t-max": ("loop", {**_WIDE_LOOP, "task": {"t_max": -1.0}}),
    "late-oracle-stride": ("oracle", {**_WIDE_FEEDBACK, "task": {"stride": 0}}),
    "late-oracle-dt": ("oracle", {**_WIDE_FEEDBACK, "task": {"dt": 1.0}}),
}


@pytest.mark.parametrize("task, doc", [
    ("evolve", {"n": 2, "zeta": 0.5, "sigma": 0.7, "task": {"engine": ["x"]}}),
    ("criteria", {"n": 2, "zeta": 0.5, "sigma": 0.7, "state": {"kind": ["thermal"]}}),
    ("scales", {"n": 2, "zeta": 1e-320, "sigma": 1e-160}),
    ("scales", {"n": 2, "zeta": 1, "sigma": 1e200}),
    ("scales", {"n": 2, "zeta": 1, "sigma": 1, "mass": 1e-200, "omega": 1e-200}),
    ("criteria", {"n": 2, "zeta": 0.5, "sigma": 0.7,
                  "state": {"kind": "occupation", "occupation": [True, True, False]}}),
    ("criteria", {"n": 2, "zeta": 0.5, "sigma": 0.7,
                  "state": {"kind": "superposition", "m": 3,
                            "terms": [{"occupation": [True, True, False], "amp": [1, 0]}]}}),
    ("criteria", {"n": 1000000, "zeta": 1, "sigma": 1}),
    # sigma = 1e-4 makes the generator norm huge: 163,357,205 Taylor products
    ("oracle", {"n": 1, "zeta": 0.5, "sigma": 1e-4, "state": {"kind": "condensate", "m": 8},
                "task": {"t_max": 0.1}}),
    # 16,500 products at d = 969, about 36 minutes of work on the default clock
    ("oracle", {"n": 3, "zeta": 0.5, "sigma": 0.7, "state": {"kind": "condensate", "m": 17}}),
    # 13,200,000 products at d = 2: 6.3e8 multiply-adds, but minutes of
    # per-product overhead on the default clock
    ("oracle", {"n": 1, "zeta": 0.5, "sigma": 1e-3, "state": {"kind": "condensate", "m": 2}}),
    # DXs = 3.6e299 is in the float range, the DXs^2 of the criteria is not
    ("criteria", {"n": 2, "zeta": 0.5, "sigma": 0.7, "mass": 1e-300}),
    # zeta * eta_min underflows to 0, which the scan divided by
    ("scan", {"n": 2, "zeta": 5e-324, "sigma": 2}),
    # JSON integers past the float range on float keys, which float() raised on
    ("criteria", {"n": 2, "zeta": 0.5, "sigma": 0.7, "mass": 10**400}),
    ("criteria", {"n": 2, "zeta": 10**400, "sigma": 0.7}),
    ("oracle", {"n": 1, "zeta": 0.5, "sigma": 0.7, "task": {"t_max": 10**400}}),
    ("search", {"n": 2, "task": {"tol": 10**400}}),
    ("criteria", {"n": 2, "zeta": 0.5, "sigma": 0.7,
                  "state": {"kind": "condensate", "m": 4, "displacement": 10**400}}),
    # t_max * gamma overflows to inf, which round() raised on
    ("loop", {"n": 1, "gamma": 1e300, "sigma0": 5, "zeta0": 0, "task": {"t_max": 1e10}}),
    # a budget refusal on a count of over 4300 digits, which str() raised on
    ("search", {"n": 2, "task": {"restarts": 10**4299}}),
    # a sector C(N + m - 1, N) with both N and m past 2^63, which math.comb raised on
    ("search", {"n": 1e300, "task": {"m": 1e300}}),
] + list(_LATE_KEYS.values())
  + [(task, dict(run, **trap)) for trap in _EDGE_TRAPS.values() for task, run in _RUNS.items()]
  + [(task, {"n": 1, **pair}) for pair in _EDGE_FEEDBACK.values()
     for task in ("evolve", "oracle", "criteria", "scales")],
    ids=["unhashable-engine", "unhashable-kind", "underflowing-eta", "overflowing-eta",
         "underflowing-dX0", "boolean-occupation", "boolean-term-occupation",
         "unrankable-condensate", "over-taylor-budget", "over-work-budget",
         "over-product-budget-small-sector", "overflowing-dxs-squared",
         "underflowing-zeta-eta-min", "huge-int-mass", "huge-int-zeta", "huge-int-t-max",
         "huge-int-tol", "huge-int-displacement", "overflowing-loop-events",
         "search-budget-past-str-digits", "search-sector-past-comb"]
    + list(_LATE_KEYS)
    + [f"{name}-{task}" for name in _EDGE_TRAPS for task in _RUNS]
    + [f"{name}-{task}" for name in _EDGE_FEEDBACK
       for task in ("evolve", "oracle", "criteria", "scales")])
def test_cli_malformed_config_exits_2_at_once(tmp_path, task, doc):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    t0 = time.perf_counter()
    code, _, err = run_cli([task, "--config", str(cfg), "--out", str(out)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert json.loads(err)["error"] == "ConfigError"
    assert not out.exists()


@pytest.mark.parametrize("task, doc", list(_LATE_KEYS.values()), ids=list(_LATE_KEYS))
def test_cli_task_keys_are_checked_before_the_state(tmp_path, monkeypatch, task, doc):
    def no_state(*args):
        raise AssertionError("the initial state was built before the task keys were checked")

    monkeypatch.setattr(driver, "build_state", no_state)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    code, _, err = run_cli([task, "--config", str(cfg)])
    assert code == 2
    assert json.loads(err)["error"] == "ConfigError"


def test_cli_config_integer_past_the_digit_limit_exits_2(tmp_path):
    # json.load refuses an integer of over 4300 digits with a ValueError that
    # is no JSONDecodeError; json.dumps cannot write one, so the text is raw
    cfg = tmp_path / "run.json"
    cfg.write_text('{"n": 1' + "0" * 4300 + ', "zeta": 0.5, "sigma": 0.7}')
    code, out, err = run_cli(["scales", "--config", str(cfg)])
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "ConfigError" and "4300 digits" in doc["detail"]


def test_cli_oracle_refuses_a_wide_sector_before_the_state(tmp_path, monkeypatch):
    # the sector dimension follows from N and the state's orbital count alone
    def no_state(*args):
        raise AssertionError("the initial state was built before the sector was sized")

    monkeypatch.setattr(driver, "build_state", no_state)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(_WIDE_FEEDBACK))
    t0 = time.perf_counter()
    code, out, err = run_cli(["oracle", "--config", str(cfg)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "DimensionTooLarge"
    assert "293930" in doc["detail"]


@pytest.mark.parametrize("sigma", ["1e20", "1e100"])
def test_cli_evolve_keeps_a_diffusion_that_dwarfs_the_drift(sigma):
    # the position kicks zeta^2 sigma^2 sit about 40 and 200 decades above the drift
    argv = ["--n", "1", "--zeta", "0.5", "--sigma", sigma]
    code, out, err = run_cli(["evolve"] + argv)
    assert code == 0
    assert len(err.splitlines()) == 1 and json.loads(err)["task"] == "evolve"
    dx = float(out.splitlines()[-1].split(",")[-1])
    code, _, err = run_cli(["criteria"] + argv)
    assert code == 0
    assert dx == pytest.approx(json.loads(err)["DXs"], rel=1e-3)


# one small seeded run of every subcommand: the sha256 of its artifact, and
# the fields its run record carries next to task, version, seed and timings_s
_EVERY_TASK = {
    "scales": ({"n": 2, "zeta": 0.5, "sigma": 0.7},
               "68e8f3801677602dbdc48ed873ec1f89ac7fe94ef91df24da0988873fb29d341", set()),
    "criteria": ({"n": 2, "zeta": 0.5, "sigma": 0.7,
                  "state": {"kind": "condensate", "m": 6, "squeeze": 0.3},
                  "task": {"samples": 9, "include_transient": True}},
                 "03fc3954ba6101f15dcab3b6712ed46404a93d8efdc7d448745f29a021b34016",
                 {"min_dxa", "t_star", "qs", "schwarz", "dx0", "DXs", "min_sigma_q_sq",
                  "notes", "health"}),
    "evolve": ({"n": 2, "zeta": 0.5, "sigma": 0.7,
                "state": {"kind": "condensate", "m": 6, "displacement": 0.2},
                "task": {"t_max": 1.0, "samples": 5}},
               "40c8181df37c6be50ea14ea2e09d4eb0eb36e1ebd3a976685e2226b103d379b1", {"health"}),
    "oracle": ({"n": 2, "zeta": 0.5, "sigma": 0.7, "state": {"kind": "condensate", "m": 6},
                "task": {"t_max": 0.5, "stride": 20}},
               "cb9aa22bbc0d5505842bdb3dc0a82c3cb07de741b5bf66187bc7a19e38da0c26",
               {"instants", "sector_dim", "health"}),
    "loop": ({"n": 1, "gamma": 100.0, "sigma0": 5.0, "zeta0": 0.002, "seed": 3,
              "task": {"t_max": 0.2, "schedule": "poisson", "trajectories": 16}},
             "60b91f65acbe33dd6ba243e38d45aea2d699c497c0e65f301665d1b398b44cc4",
             {"gamma", "sigma0", "zeta0", "K", "spectral_radius", "traj_events", "health"}),
    "scan": ({"n": 2, "zeta": 1.0, "sigma": 0.5, "task": {"steps": 5}},
             "694026bfa38245221138f4d72db83f7fe91eab8076e428fb5be91d3d713db315", set()),
    "search": ({"n": 2, "seed": 5,
                "task": {"family": "fixed_N_pure", "m": 3, "restarts": 1, "max_iter": 2000}},
               "cdf86d0285692fb4ae6b41629b47bd8dbe004cbf5abf00f87ee9d2e8a65a6470",
               {"family", "best_value", "best_restart", "evaluations", "health"}),
}
# the phases a task times itself, beside the load, compute and write of every task
_PHASES = {"oracle": {"build", "propagate"}, "search": {"build", "search"}}


@pytest.mark.parametrize("task", list(_EVERY_TASK))
def test_cli_every_task_writes_its_artifact_and_one_record(tmp_path, task):
    doc, sha, fields = _EVERY_TASK[task]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = run_cli([task, "--config", str(cfg)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha
    lines = err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[-1])
    assert set(record) == {"task", "version", "seed", "timings_s"} | fields
    assert record["task"] == task
    assert record["version"] == cloudfeedback.__version__
    assert record["seed"] == doc.get("seed", 0)
    timings = record["timings_s"]
    assert set(timings) == {"load", "compute", "write"} | _PHASES.get(task, set())
    assert all(v >= 0.0 for v in timings.values())
    # a task times its own phases within its compute
    assert sum(timings[phase] for phase in _PHASES.get(task, ())) <= timings["compute"]
    if task == "oracle":
        # d = 21 has dense stacks, so the ground condensate keeps the full rho
        assert record["health"]["sectors"] == 2
        # the oracle's moments of a pure condensate need no PSD clip either
        assert (record["health"]["psd_clips"], record["health"]["psd_clip_min"]) == (0, 0.0)
    if task in ("criteria", "evolve", "oracle", "loop"):
        # a pure state leaves no weight out
        assert record["health"]["truncation_loss"] == 0.0
    if task in ("criteria", "evolve"):
        # the moment flow of a pure condensate keeps a positive spectrum
        flow = {"truncation_loss": 0.0, "psd_clips": 0, "psd_clip_min": 0.0}
        if task == "criteria":
            # N = 2 over the squeezed orbital's three even orbitals below the
            # top one, which stays empty: the whole leak tolerance is left
            flow.update(rows=6, leak_headroom=1e-10)
        assert record["health"] == flow
    if task == "loop":
        # 20-event blocks: 16 streams refill, 12 of them refill again, and the
        # lockstep stops after 33 events, so each of those 12 leaves 7 events
        # of exponentials and normals unread
        assert record["health"] == {"draws": 1120, "draws_unread": 12 * 7 * 2,
                                    "truncation_loss": 0.0}


# K = 300 loop runs at N = 2: 400-event draw blocks fill the buffer in more
# than one group of trajectories, and the poisson run refills part of its
# streams a second time; the digests fix every byte of both schedules
_LOOP_PINS = {
    "regular": (41, "1825256cf38000553e2d10ffa3073f91720a3a8bd9d217e9ce591bdda84fb4cc"),
    "poisson": (42, "4ce5ba881aad407d629d0e88aa4475ad142d8c9dc826e8dde82f5fde08abe601"),
}


@pytest.mark.parametrize("schedule", list(_LOOP_PINS))
def test_cli_loop_artifact_at_300_trajectories_keeps_its_bytes(tmp_path, schedule):
    seed, sha = _LOOP_PINS[schedule]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "n": 2, "gamma": 100.0, "sigma0": 5.0, "zeta0": 0.005, "seed": seed,
        "task": {"t_max": 4.0, "schedule": schedule, "trajectories": 300,
                 "record_stride": 5}}))
    code, out, _ = run_cli(["loop", "--config", str(cfg)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha


@pytest.mark.parametrize("low", [-1e-12, -1.0])
def test_cli_oracle_reports_its_psd_clips_and_refuses_as_numerics(tmp_path, monkeypatch, low):
    # the oracle's moments go through the same stacked check as the flow's:
    # a slightly negative eigenvalue is clipped and counted at each of the
    # last three of five instants, one below the PSD floor exits 3 with no
    # artifact
    helpers.plant_covariance_eigenvalue(monkeypatch, 2, low)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(_EVERY_TASK["oracle"][0]))
    code, out, err = run_cli(["oracle", "--config", str(cfg)])
    if low > -1e-10:
        assert code == 0
        health = json.loads(err)["health"]
        assert health["psd_clips"] == 3 and -1.1e-12 < health["psd_clip_min"] < -0.9e-12
    else:
        assert (code, out) == (3, "")
        error = json.loads(err)
        assert error["error"] == "StepRejected" and "below the PSD floor" in error["detail"]


def test_cli_truncation_leak_exits_3():
    # six modes cannot hold a strongly driven pair for six trap periods
    code, _, err = run_cli(["oracle", "--n", "2", "--zeta", "0.5",
                            "--sigma", "0.7"])
    assert code == 3
    assert json.loads(err)["error"] == "TruncationLeak"


def _state_with(field, value):
    return {
        "displacement": {"kind": "condensate", "m": 4, "displacement": value},
        "squeeze": {"kind": "condensate", "m": 4, "squeeze": value},
        "orbital": {"kind": "condensate", "m": 3,
                    "orbital": [[1.0, 0.0], [value, 0.0], [0.0, 0.0]]},
        "amp": {"kind": "superposition", "m": 3,
                "terms": [{"occupation": [2, 0, 0], "amp": [value, 0.0]}]},
        "temperature": {"kind": "thermal", "m": 4, "temperature": value, "cutoff": 5.0},
        "cutoff": {"kind": "thermal", "m": 4, "temperature": 0.5, "cutoff": value},
    }[field]


# an infinite cutoff keeps every configuration, which is legal
@pytest.mark.parametrize("field, value", [
    (field, value)
    for field in ("displacement", "squeeze", "orbital", "amp", "temperature", "cutoff")
    for value in ([math.nan] if field == "cutoff" else [math.nan, math.inf, -math.inf])])
@pytest.mark.parametrize("task", ["criteria", "evolve", "loop"])
def test_cli_non_finite_state_parameter_exits_2(tmp_path, task, field, value):
    doc = {"n": 2, "state": _state_with(field, value)}
    if task == "loop":
        doc.update(gamma=100.0, sigma0=5.0, zeta0=0.002,
                   task={"t_max": 0.1, "trajectories": 4})
    else:
        doc.update(zeta=0.5, sigma=0.7, task={"samples": 3})
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))  # written as NaN / Infinity
    code, out, err = run_cli([task, "--config", str(cfg)])
    assert code == 2, err
    assert out == ""
    (line,) = err.splitlines()
    assert issubclass(getattr(errors, json.loads(line)["error"]), ConfigError)


@pytest.mark.parametrize("state_out", [1, [1]])
def test_cli_search_state_out_must_be_a_path(tmp_path, state_out):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "n": 2, "task": {"family": "fixed_N_pure", "m": 3, "restarts": 1,
                         "state_out": state_out}}))
    out = tmp_path / "search.csv"
    code, stdout, err = run_cli(["search", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert stdout == ""
    doc = json.loads(err)
    assert doc["error"] == "ConfigError"
    assert "state_out must be a path string" in doc["detail"]
    assert not out.exists()  # refused before the search ran


@pytest.mark.parametrize("flag", ["false", 1, None])
def test_cli_include_transient_must_be_boolean(tmp_path, flag):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 2, "zeta": 0.5, "sigma": 0.7,
                               "task": {"samples": 3, "include_transient": flag}}))
    code, out, err = run_cli(["criteria", "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert "include_transient" in json.loads(err)["detail"]
    cfg.write_text(json.dumps({"n": 2, "zeta": 0.5, "sigma": 0.7,
                               "task": {"samples": 3, "include_transient": False}}))
    code, out, _ = run_cli(["criteria", "--config", str(cfg)])
    assert code == 0
    assert out.splitlines()[0] == "t,sigma_q_sq,dxa,dx0,DXs"


@pytest.mark.parametrize("argv", [["scales", "--n", "abc"], ["bogus"], []],
                         ids=["bad-flag-value", "unknown-task", "no-task"])
def test_cli_command_line_errors_exit_2_with_the_json_line(argv):
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == "ConfigError"


def test_cli_help_lists_the_key_tables_flags():
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as done:
        driver.cli_main(["loop", "--help"])
    assert done.value.code == 0
    flagged = {key for key, spec in driver._KEYS.items() if spec.flag is not None}
    assert set(driver._KEYS) - flagged == {"state", "task"}
    assert set(re.findall(r"--(\w+)", out.getvalue())) == flagged | {"config", "help"}


def test_cli_search_writes_state_out_after_its_artifact(tmp_path):
    # an artifact that cannot be written leaves no state file behind
    cfg = tmp_path / "run.json"
    state_path = tmp_path / "state.json"
    cfg.write_text(json.dumps({"n": 2, "task": {"family": "fixed_N_pure", "m": 2, "restarts": 1,
                                                "state_out": str(state_path)}}))
    out = tmp_path / "missing_dir" / "search.csv"
    code, _, err = run_cli(["search", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert json.loads(err)["error"] == "FileNotFoundError"
    assert not state_path.exists()


def test_cli_scan_at_n_1e300(tmp_path):
    # N^2 overflowed in classify_regime; [1/2N, 2N] holds every eta scanned
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 1e300, "zeta": 1, "sigma": 0.5}))
    code, out, err = run_cli(["scan", "--config", str(cfg)])
    assert code == 0
    assert len(err.splitlines()) == 1 and json.loads(err)["task"] == "scan"
    assert {line.split(",")[-1] for line in out.splitlines()[1:]} == {"qs_threshold_above"}
