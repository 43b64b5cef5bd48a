"""Config assembly, scan and curve artifacts, CLI formats and exit codes."""

import io
import json
import math
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from cloudfeedback import criteria, driver, fock, moments
from cloudfeedback.errors import ConfigError
from cloudfeedback.scales import (FeedbackConfig, TrapConfig, classify_regime,
                                  derive_scales)

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
    # the oracle engine keys stay legal on evolve, which forwards them
    cfg = driver.RunConfig("evolve", {"zeta": 0.2, "sigma": 0.5,
                                      "task": {"name": "evolve",
                                               "engine": "oracle",
                                               "stride": 4}}, {})
    assert cfg.param("stride") == 4


def test_config_flag_overrides_file():
    cfg = driver.RunConfig("scan", {"n": 2, "zeta": 1.0, "sigma": 0.5},
                           {"n": 3, "sigma": 0.25})
    assert cfg.trap.atom_count == 3
    assert cfg.feedback.meas_resolution == 0.25
    assert cfg.feedback.shift_rate == 1.0


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
    assert cfg.feedback.rate == 100.0
    bad = dict(doc, zeta=0.3)
    with pytest.raises(ConfigError):
        driver.RunConfig("loop", bad, {})


# ---------------------------------------------------------------------------
# state section


def test_build_state_default_is_ground_condensate():
    trap = TrapConfig(atom_count=3)
    state, basis = driver.build_state(None, trap)
    assert basis.mode_count == 6
    assert state.amp == {(3, 0, 0, 0, 0, 0): pytest.approx(1.0)}


def test_build_state_occupation_checks_atom_total():
    trap = TrapConfig(atom_count=2)
    state, basis = driver.build_state(
        {"kind": "occupation", "occupation": [1, 0, 1]}, trap)
    assert basis.mode_count == 3
    assert set(state.amp) == {(1, 0, 1)}
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


def test_build_state_superposition_normalizes():
    trap = TrapConfig(atom_count=2)
    doc = {"kind": "superposition", "m": 3,
           "terms": [{"occupation": [2, 0, 0], "amp": [1.0, 0.0]},
                     {"occupation": [0, 2, 0], "amp": [0.0, 1.0]}]}
    state, basis = driver.build_state(doc, trap)
    total = sum(abs(v) ** 2 for v in state.amp.values())
    assert total == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ConfigError):
        bad = {"kind": "superposition", "m": 3,
               "terms": [{"occupation": [1, 0, 0], "amp": [1.0, 0.0]}]}
        driver.build_state(bad, trap)


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
    header, rows = driver.breathing_curve(state, basis, trap, fb, samples=33)
    assert header == ["t", "sigma_q_sq", "dxa", "dx0", "DXs"]
    s = derive_scales(trap, fb)
    dxa = np.array([r[2] for r in rows])
    np.testing.assert_allclose(dxa, s.DXs, rtol=1e-12)
    assert rows[0][0] == 0.0
    assert rows[-1][0] == pytest.approx(math.pi / trap.trap_freq)


def test_breathing_curve_squeezed_condensate_oscillates_at_2omega():
    state, basis, trap, fb = _curve_setup(2, 8, squeeze=0.4)
    header, rows = driver.breathing_curve(state, basis, trap, fb, samples=401)
    sig = np.array([r[1] for r in rows])
    t = np.array([r[0] for r in rows])
    i_min, i_max = np.argmin(sig), np.argmax(sig)
    quarter = math.pi / (2.0 * trap.trap_freq)
    assert abs(abs(t[i_max] - t[i_min]) - quarter) < quarter / 50
    # closed-form minimum over the emitted grid
    h = criteria.quadrature_harmonics(state, basis)
    assert sig.min() == pytest.approx(h.minimum(), abs=1e-6)
    s = derive_scales(trap, fb)
    expected_min_dxa = math.sqrt(s.DXs ** 2 + (1 - 1 / 2) * h.minimum() * 2)
    dxa = np.array([r[2] for r in rows])
    # dxa is monotone in sigma_q_sq, so the minima line up
    assert np.argmin(dxa) == i_min


def test_breathing_curve_transient_column_starts_at_initial_size():
    state, basis, trap, fb = _curve_setup(2, 8, squeeze=0.3)
    header, rows = driver.breathing_curve(state, basis, trap, fb, samples=17,
                                          include_transient=True)
    assert header[-1] == "dx"
    m0 = moments.init_moments(state, basis)
    assert rows[0][5] == pytest.approx(moments.cloud_size(m0), rel=1e-12)
    g = moments.build_generators(trap, fb)
    t_mid = rows[8][0]
    assert rows[8][5] == pytest.approx(
        moments.cloud_size(moments.evolve(m0, g, t_mid)), rel=1e-12)


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


def test_cli_scales_json_has_fifteen_significant_digits(tmp_path):
    out_path = tmp_path / "scales.json"
    code, _, _ = run_cli(["scales", "--n", "3", "--zeta", "0.7",
                          "--sigma", "0.31", "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert set(doc) == {"dX0", "dx0", "eta", "DXs"}
    trap = TrapConfig(atom_count=3)
    fb = FeedbackConfig(shift_rate=0.7, meas_resolution=0.31)
    for key, exact in derive_scales(trap, fb).to_dict().items():
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


def test_cli_oracle_rejects_three_atoms():
    code, _, err = run_cli(["oracle", "--n", "3", "--zeta", "0.5",
                            "--sigma", "0.7"])
    assert code == 2
    doc = json.loads(err)
    assert doc["error"] == "ConfigError"
    assert "n <= 2" in doc["detail"]


def test_cli_evolve_routes_oracle_engine(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "n": 3, "zeta": 0.5, "sigma": 0.7,
        "task": {"name": "evolve", "engine": "oracle"}}))
    code, _, err = run_cli(["evolve", "--config", str(cfg)])
    assert code == 2
    assert "n <= 2" in json.loads(err)["detail"]


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
    assert json.loads(err1) == {"gamma": 100.0, "sigma0": 5.0, "zeta0": 0.002,
                                "K": 128, "seed": 9}
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
    assert summary["family"] == "fixed_N_pure"
    assert summary["best_value"] >= -1e-8
    lines = a.read_text().splitlines()
    assert lines[0] == "restart,start_value,final_value,iterations,converged"
    assert len(lines) == 4
    assert all(line.endswith(("true", "false")) for line in lines[1:])


def test_cli_search_single_atom_is_immediate():
    code, out, err = run_cli(["search", "--n", "1"])
    assert code == 0
    assert json.loads(err)["best_value"] == 0.0
    row = out.splitlines()[1].split(",")
    assert row[0] == "0" and row[4] == "true"


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


def test_cli_truncation_leak_exits_3():
    # six modes cannot hold a strongly driven pair for six trap periods
    code, _, err = run_cli(["oracle", "--n", "2", "--zeta", "0.5",
                            "--sigma", "0.7"])
    assert code == 3
    assert json.loads(err)["error"] == "TruncationLeak"
