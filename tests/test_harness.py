import csv
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from powerdse import harness
from powerdse import (
    DynamicState,
    ExperimentConfig,
    ExperimentError,
    FaultScenario,
    MeasurementFrame,
    NoiseSpec,
    Regime,
    Trajectory,
    config_from_dict,
    format_report,
    load_experiment_config,
    preset,
    run_experiment,
    write_estimates_csv,
    write_measurements_csv,
    write_trajectory_csv,
)


def toy_trajectory(deltas, omegas=None, dt=0.01):
    n = len(deltas)
    states = []
    for k in range(n):
        d = np.atleast_1d(np.asarray(deltas[k], dtype=float))
        w = (np.ones_like(d) if omegas is None
             else np.atleast_1d(np.asarray(omegas[k], dtype=float)))
        states.append(DynamicState(delta=d, omega=w))
    return Trajectory(times=np.arange(n) * dt, states=states,
                      regime=[Regime.PreFault] * n)


def quick_config(out_dir, **overrides):
    scenario = FaultScenario(fault_bus=8, t_fault=1.0, clearing_cycles=2.0,
                             cleared_line=(8, 9), t_end=2.0, dt=0.01)
    base = dict(case="wecc9", scenario=scenario, out_dir=str(out_dir),
                seed=123)
    base.update(overrides)
    return ExperimentConfig(**base)


# --- error metric ------------------------------------------------------------


def scored(truth, estimate, t_clear=0.0):
    """``_metrics`` of the toy trajectory ``estimate`` against ``truth``."""
    return harness._metrics(
        truth, np.hstack([estimate.delta_matrix(), estimate.omega_matrix()]),
        t_clear)


def test_rmse_identical_is_zero():
    traj = toy_trajectory([[0.1, 0.2], [0.3, 0.4]])
    out = scored(traj, traj)
    assert np.array_equal(out.rmse_delta, np.zeros(2))
    assert np.array_equal(out.rmse_omega, np.zeros(2))


def test_rmse_constant_offset():
    truth = toy_trajectory([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    shifted = toy_trajectory([[0.1, 0.2 - 0.25], [0.3, 0.4 - 0.25],
                              [0.5, 0.6 - 0.25]])
    out = scored(truth, shifted)
    assert out.rmse_delta[0] == 0.0
    assert out.rmse_delta[1] == pytest.approx(0.25, abs=1e-15)


def test_rmse_hand_value():
    truth = toy_trajectory([[0.0], [0.0]])
    estimate = toy_trajectory([[3.0], [4.0]])
    out = scored(truth, estimate)
    assert out.rmse_delta[0] == pytest.approx(np.sqrt(12.5), abs=1e-12)


def test_rmse_window_restriction():
    truth = toy_trajectory([[0.0], [0.0], [0.0], [0.0]])
    estimate = toy_trajectory([[10.0], [10.0], [1.0], [1.0]])
    out = scored(truth, estimate, t_clear=0.02)
    assert out.post_rmse_delta[0] == pytest.approx(1.0, abs=1e-12)


def test_rmse_speed_channel():
    truth = toy_trajectory([[0.0]], omegas=[[1.0]])
    estimate = toy_trajectory([[0.0]], omegas=[[1.002]])
    out = scored(truth, estimate)
    assert out.rmse_omega[0] == pytest.approx(0.002, abs=1e-15)


# --- configuration -----------------------------------------------------------


def test_preset_lookup():
    cfg = preset("wecc9-fault8")
    assert cfg.case == "wecc9"
    assert cfg.scenario.fault_bus == 8
    assert cfg.scenario.cleared_line == (8, 9)
    cfg = preset("ne39-fault4")
    assert cfg.case == "ne39"
    assert cfg.scenario.cleared_line == (4, 14)


def test_preset_unknown_name():
    with pytest.raises(ValueError, match="unknown preset"):
        preset("wecc3-fault1")


def test_config_from_dict_defaults():
    cfg = config_from_dict({
        "case": "wecc9",
        "scenario": {"fault_bus": 8, "cleared_line": [8, 9]},
    })
    assert cfg.scenario.t_fault == 1.0
    assert cfg.scenario.clearing_cycles == 2.0
    assert cfg.scenario.t_end == 10.0
    assert cfg.scenario.dt == 0.01
    assert cfg.filters == ("ekf", "ukf")
    assert cfg.noise == NoiseSpec()
    assert cfg.seed == 0
    assert cfg.prior_angle_shift == 0.05


def test_config_from_dict_full():
    cfg = config_from_dict({
        "case": "cases/mine.case",
        "scenario": {"fault_bus": 4, "cleared_line": [4, 14], "t_fault": 0.5,
                     "clearing_cycles": 3, "t_end": 5.0, "dt": 0.02},
        "noise": {"sigma_p": 0.02},
        "filters": ["ukf"],
        "seed": 9,
    })
    assert cfg.case == "cases/mine.case"
    assert cfg.scenario.clearing_cycles == 3.0
    assert cfg.noise.sigma_p == 0.02
    assert cfg.noise.sigma_q == NoiseSpec().sigma_q
    assert cfg.filters == ("ukf",)
    assert cfg.seed == 9


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys.*speed"):
        config_from_dict({"case": "wecc9", "scenario": {}, "speed": 1})
    with pytest.raises(ValueError, match="unknown scenario keys.*bus"):
        config_from_dict({"case": "wecc9",
                          "scenario": {"fault_bus": 8, "cleared_line": [8, 9],
                                       "bus": 8}})
    with pytest.raises(ValueError, match="unknown noise keys.*sigma_v"):
        config_from_dict({"case": "wecc9",
                          "scenario": {"fault_bus": 8, "cleared_line": [8, 9]},
                          "noise": {"sigma_v": 0.01}})
    for key, value in (("jacobian_mode", "analytic"),
                       ("sigma_scheme", "symmetric"), ("jitter", 1e-9),
                       ("substeps", 1)):
        with pytest.raises(ValueError, match=f"unknown config keys.*{key}"):
            config_from_dict({"case": "wecc9",
                              "scenario": {"fault_bus": 8,
                                           "cleared_line": [8, 9]},
                              key: value})


def test_config_from_dict_rejects_unknown_filter_kind():
    with pytest.raises(ValueError, match=r"'filters'.*\['pf'\]"):
        config_from_dict({"case": "wecc9",
                          "scenario": {"fault_bus": 8, "cleared_line": [8, 9]},
                          "filters": ["ekf", "pf"]})


def test_config_from_dict_rejects_repeated_filter_kind():
    # a repeat used to run the filter twice and report it once
    with pytest.raises(ValueError, match=r"'filters'.*once: \['ekf'\]"):
        config_from_dict({"case": "wecc9",
                          "scenario": {"fault_bus": 8, "cleared_line": [8, 9]},
                          "filters": ["ekf", "ukf", "ekf"]})


def test_config_from_dict_rejects_scalar_filters():
    # a YAML scalar would otherwise split into one filter per letter
    data = yaml.safe_load("case: wecc9\n"
                          "scenario: {fault_bus: 8, cleared_line: [8, 9]}\n"
                          "filters: ekf\n")
    with pytest.raises(ValueError, match="'filters'.*'ekf'"):
        config_from_dict(data)


@pytest.mark.parametrize("path,value", [
    (("seed",), 3.9),
    (("scenario", "fault_bus"), 8.5), (("scenario", "cleared_line"), [8, 9.2]),
], ids=["seed", "fault_bus", "cleared_line"])
def test_config_from_dict_rejects_fractional_integers(path, value):
    # int() used to truncate these: seed 3.9 loaded as 3
    data = {"case": "wecc9", "scenario": {"fault_bus": 8, "cleared_line": [8, 9]}}
    target = data
    for key in path[:-1]:
        target = target.setdefault(key, {})
    target[path[-1]] = value
    with pytest.raises(ValueError, match=rf"'{'.'.join(path)}'.*whole number"):
        config_from_dict(data)


@pytest.mark.parametrize("path,value", [
    (("seed",), "3"),
    (("scenario", "fault_bus"), "8"), (("scenario", "cleared_line"), ["8", 9]),
], ids=["seed", "fault_bus", "cleared_line"])
def test_config_from_dict_rejects_whole_numbers_as_text(path, value):
    # float() used to read these: fault_bus "8" loaded as bus 8
    data = {"case": "wecc9", "scenario": {"fault_bus": 8, "cleared_line": [8, 9]}}
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    shown = value if isinstance(value, str) else value[0]
    message = (f"config key {'.'.join(path)!r} must be a whole number, "
               f"got {shown!r}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        config_from_dict(data)


def test_float_keys_read_yaml_exponent_text():
    # YAML 1.1 needs a dot in the mantissa, so PyYAML loads 1e-6 as text
    data = yaml.safe_load("case: wecc9\n"
                          "scenario: {fault_bus: 8, cleared_line: [8, 9]}\n"
                          "noise: {q_delta: 1e-6}\n")
    assert data["noise"]["q_delta"] == "1e-6"
    assert config_from_dict(data).noise.q_delta == 1e-6


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_from_dict_rejects_non_finite_noise(value):
    # YAML's .nan and .inf load as these floats
    with pytest.raises(ValueError, match="finite.*sigma_p="):
        config_from_dict({"case": "wecc9",
                          "scenario": {"fault_bus": 8, "cleared_line": [8, 9]},
                          "noise": {"sigma_p": value}})


def test_config_from_dict_takes_integral_floats():
    cfg = config_from_dict({
        "case": "wecc9",
        "scenario": {"fault_bus": 8.0, "cleared_line": [8.0, 9]},
        "seed": 3.0,
    })
    assert cfg.seed == 3
    assert cfg.scenario.fault_bus == 8 and cfg.scenario.cleared_line == (8, 9)
    assert all(type(v) is int for v in (cfg.seed, cfg.scenario.fault_bus,
                                        *cfg.scenario.cleared_line))


def test_import_leaves_yaml_unloaded():
    # only load_experiment_config needs PyYAML; every process pays its import
    src = Path(harness.__file__).resolve().parent.parent
    code = "import sys, powerdse; print('yaml' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ,
                                                     "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"


def test_config_from_dict_requires_case_and_scenario():
    with pytest.raises(ValueError, match="case"):
        config_from_dict({"scenario": {"fault_bus": 8,
                                       "cleared_line": [8, 9]}})


@pytest.mark.parametrize("key", ["cleared_line", "fault_bus"])
def test_config_from_dict_requires_scenario_keys(key):
    scenario = {"fault_bus": 8, "cleared_line": [8, 9]}
    del scenario[key]
    with pytest.raises(ValueError,
                       match=rf"^config key 'scenario\.{key}' is required$"):
        config_from_dict({"case": "wecc9", "scenario": scenario})


def test_load_experiment_config(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(
        "case: wecc9\n"
        "scenario:\n"
        "  fault_bus: 8\n"
        "  cleared_line: [8, 9]\n"
        "  t_end: 4.0\n"
        "noise:\n"
        "  sigma_vmag: 0.002\n"
        "seed: 42\n"
    )
    cfg = load_experiment_config(path)
    assert cfg.case == "wecc9"
    assert cfg.scenario.t_end == 4.0
    assert cfg.noise.sigma_vmag == 0.002
    assert cfg.seed == 42


def test_example_configs_mirror_presets():
    configs = Path(__file__).resolve().parent.parent / "configs"
    assert load_experiment_config(configs / "wecc9-fault8.yaml") == \
        preset("wecc9-fault8")
    assert load_experiment_config(configs / "ne39-fault4.yaml") == \
        preset("ne39-fault4")


def test_load_experiment_config_rejects_non_mapping(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("- just\n- a\n- list\n")
    with pytest.raises(ValueError, match="mapping"):
        load_experiment_config(path)


# --- end-to-end runs ---------------------------------------------------------


def test_zero_noise_experiment_recovers_truth(tmp_path):
    silent = NoiseSpec(sigma_p=0.0, sigma_q=0.0, sigma_vmag=0.0,
                       sigma_vang=0.0, q_delta=0.0, q_omega=0.0)
    cfg = quick_config(tmp_path / "quiet", noise=silent,
                       prior_angle_shift=0.0, prior_cov=1e-6)
    report = run_experiment(cfg)
    for kind in ("ekf", "ukf"):
        m = report.metrics[kind]
        assert np.max(m.rmse_delta) < 1e-3
        assert np.max(m.rmse_omega) < 1e-3


def test_shifted_prior_converges_by_clearing(tmp_path):
    # the deliberate 0.05 rad prior offset must be absorbed well before the
    # post-clearing window under zero measurement noise
    silent = NoiseSpec(sigma_p=0.0, sigma_q=0.0, sigma_vmag=0.0,
                       sigma_vang=0.0, q_delta=0.0, q_omega=0.0)
    cfg = quick_config(tmp_path / "shifted", noise=silent, filters=("ekf",))
    report = run_experiment(cfg)
    m = report.metrics["ekf"]
    assert np.max(m.post_rmse_delta) < 1e-3
    assert np.max(m.rmse_delta) > np.max(m.post_rmse_delta)


def test_seeded_rerun_byte_identical(tmp_path):
    first = run_experiment(quick_config(tmp_path / "a"))
    second = run_experiment(quick_config(tmp_path / "b"))
    names = ["truth.csv", "measurements.csv", "estimate_ekf.csv",
             "estimate_ukf.csv", "report.txt"]
    for name in names:
        assert (first.out_dir / name).read_bytes() == \
            (second.out_dir / name).read_bytes(), name


def test_pipeline_never_builds_state_tuples(tmp_path, monkeypatch):
    # the truth and the estimates are read as arrays, never as DynamicState
    made = []

    def recording(fn):
        def call(*args):
            made.append(fn(*args))
            return made[-1]
        return call

    monkeypatch.setattr(harness, "simulate", recording(harness.simulate))
    monkeypatch.setattr(harness, "run_filter", recording(harness.run_filter))
    run_experiment(quick_config(tmp_path))
    truth, (ekf, _), (ukf, _) = made
    for traj in (truth, ekf, ukf):
        assert "states" not in traj.__dict__


def test_measurements_writer_needs_a_frame(tmp_path):
    # one error naming the need, not an IndexError on frames[0]
    path = tmp_path / "measurements.csv"
    with pytest.raises(ValueError, match="at least one frame"):
        write_measurements_csv([], (1, 2, 3), path)
    assert not path.exists()


@pytest.mark.parametrize("change,message", [
    ("unknown-bus", r"buses \[99\] are not among the buses "
                    r"\(1, 2, 3, 4, 5, 6, 7, 8, 9\)"),
    ("short-p_g", r"p_g, q_g, v_mag and v_ang hold \[2, 3, 9, 9\] entries, "
                  r"expected \[3, 3, 9, 9\]"),
    ("long-v_mag", r"p_g, q_g, v_mag and v_ang hold \[3, 3, 10, 9\] "
                   r"entries, expected \[3, 3, 9, 9\]"),
], ids=["unknown-bus", "short-p_g", "long-v_mag"])
def test_measurements_writer_rejects_malformed_frame(change, message, wecc9,
                                                     wecc9_run, tmp_path):
    # one bad frame in the middle: an error naming it, before the file is
    # opened, not a KeyError or IndexError after 500 rows, nor (for the extra
    # v_mag entry) a file whose frame-500 angles sit one column to the right
    frames = list(wecc9_run.frames)
    fr = frames[500]
    if change == "unknown-bus":
        frames[500] = replace(fr, bus_ids=fr.bus_ids[:-1] + (99,))
    elif change == "short-p_g":
        frames[500] = replace(fr, p_g=fr.p_g[:2])
    else:
        frames[500] = replace(fr, v_mag=np.append(fr.v_mag, 1.0))
    path = tmp_path / "measurements.csv"
    with pytest.raises(ValueError,
                       match=rf"^frame 500 \(t=5\.0000s\): {message}$"):
        write_measurements_csv(frames, tuple(b.id for b in wecc9.buses), path)
    assert not path.exists()


def test_writers_reject_row_count_mismatch(tmp_path):
    # 500 estimate rows for a 1,001-sample truth: an error naming both
    # counts, before the file is opened, not a 500-row file
    n = 1001
    truth = Trajectory(times=np.arange(n) * 0.01, states=np.zeros((n, 6)),
                       regime=[Regime.PreFault] * n)
    path = tmp_path / "estimate.csv"
    with pytest.raises(ValueError, match=r"^1001 truth samples, but 500 "
                       r"estimate rows and 500 covariance rows$"):
        write_estimates_csv(truth, np.zeros((500, 6)), np.zeros((500, 6)), path)
    assert not path.exists()
    # a regime list shorter than the samples never reaches a writer: the
    # trajectory itself is refused
    with pytest.raises(ValueError, match=r"^1001 state rows, but 1001 times "
                       r"and 500 regimes$"):
        Trajectory(times=truth.times, states=truth.state_matrix(),
                   regime=truth.regime[:500])


def test_report_file_matches_in_memory_report(wecc9_run):
    text = (wecc9_run.report.out_dir / "report.txt").read_text()
    assert text == format_report(wecc9_run.report)
    assert wecc9_run.report.wall_seconds > 0.0
    assert "second" not in text  # timing never lands on disk
    assert f"{wecc9_run.report.n_samples} samples" in text


def test_report_times_its_stages(wecc9_run):
    # every stage from case load to the last write is timed under the tag
    # that names it on failure, and together they fit in the wall time
    report = wecc9_run.report
    assert set(report.stage_seconds) == {
        "load-case", "power-flow", "reduction", "simulate", "synthesize",
        "prior", "filter-ekf", "filter-ukf", "write"}
    assert all(t > 0.0 for t in report.stage_seconds.values())
    assert sum(report.stage_seconds.values()) <= report.wall_seconds
    assert report.pf_iterations == wecc9_run.pf.iterations > 0
    assert report.pf_max_mismatch == wecc9_run.pf.max_mismatch
    text = (report.out_dir / "report.txt").read_text()
    assert "iteration" not in text and "mismatch" not in text


def test_metrics_recomputable_from_estimates_csv(wecc9_run):
    t_clear = wecc9_run.cfg.scenario.t_clear(wecc9_run.case.frequency)
    for kind in ("ekf", "ukf"):
        with open(wecc9_run.report.out_dir / f"estimate_{kind}.csv") as fh:
            rows = list(csv.DictReader(fh))
        nm = 3
        t = np.array([float(r["t"]) for r in rows])
        d_err = np.array([[float(r[f"delta_true_{i+1}"])
                           - float(r[f"delta_est_{i+1}"]) for i in range(nm)]
                          for r in rows])
        o_err = np.array([[float(r[f"omega_true_{i+1}"])
                           - float(r[f"omega_est_{i+1}"]) for i in range(nm)]
                          for r in rows])
        m = wecc9_run.report.metrics[kind]
        assert np.max(np.abs(np.sqrt(np.mean(d_err ** 2, axis=0))
                             - m.rmse_delta)) < 1e-12
        mask = t >= t_clear
        assert np.max(np.abs(np.sqrt(np.mean(o_err[mask] ** 2, axis=0))
                             - m.post_rmse_omega)) < 1e-12
        assert np.abs(d_err[mask]).max() == pytest.approx(
            m.post_max_delta, abs=1e-12)


def test_truth_csv_layout(wecc9_run):
    with open(wecc9_run.report.out_dir / "truth.csv") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == ["t", "delta_1", "delta_2", "delta_3",
                      "omega_1", "omega_2", "omega_3", "regime"]
    assert len(rows) == wecc9_run.report.n_samples
    labels = {r[-1] for r in rows}
    assert labels == {"pre_fault", "fault_on", "post_fault"}
    # full-precision floats round-trip exactly
    assert float(rows[5][1]) == wecc9_run.truth.states[5].delta[0]


def test_measurements_csv_blank_cells_track_fault(wecc9_run):
    out = wecc9_run.report.out_dir
    with open(out / "truth.csv") as fh:
        regimes = [r["regime"] for r in csv.DictReader(fh)]
    with open(out / "measurements.csv") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        rows = list(reader)
    assert header[:7] == ["t", "p_g_1", "p_g_2", "p_g_3",
                          "q_g_1", "q_g_2", "q_g_3"]
    assert "v_mag_8" in header and "v_ang_8" in header
    for regime, row in zip(regimes, rows):
        if regime == "fault_on":
            assert row["v_mag_8"] == "" and row["v_ang_8"] == ""
        else:
            assert row["v_mag_8"] != "" and row["v_ang_8"] != ""
        assert row["v_mag_5"] != ""  # untouched buses never go blank


def test_estimates_csv_layout(wecc9_run):
    with open(wecc9_run.report.out_dir / "estimate_ekf.csv") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        rows = list(reader)
    assert len(header) == 1 + 6 * 3
    assert header[-1] == "p_omega_3"
    variances = np.array([[float(r[f"p_delta_{i+1}"]) for i in range(3)]
                          for r in rows])
    assert np.all(variances > 0.0)


def test_filter_subset_skips_artifacts(tmp_path):
    cfg = quick_config(tmp_path / "only-ekf", filters=("ekf",))
    report = run_experiment(cfg)
    assert set(report.metrics) == {"ekf"}
    assert (report.out_dir / "estimate_ekf.csv").exists()
    assert not (report.out_dir / "estimate_ukf.csv").exists()


def test_stage_tag_load_case(tmp_path):
    cfg = quick_config(tmp_path / "x", case="no-such-file.case")
    with pytest.raises(ExperimentError, match=r"\[load-case\]") as info:
        run_experiment(cfg)
    assert info.value.stage == "load-case"


def test_stage_tag_bad_scenario(tmp_path):
    scenario = FaultScenario(fault_bus=77, t_fault=1.0, clearing_cycles=2.0,
                             cleared_line=(8, 9), t_end=2.0, dt=0.01)
    cfg = quick_config(tmp_path / "x", scenario=scenario)
    with pytest.raises(ExperimentError, match=r"\[reduction\] .*77"):
        run_experiment(cfg)


def test_window_must_outlast_clearing(tmp_path):
    scenario = FaultScenario(fault_bus=8, t_fault=1.0, clearing_cycles=2.0,
                             cleared_line=(8, 9), t_end=1.0, dt=0.01)
    cfg = quick_config(tmp_path / "x", scenario=scenario)
    with pytest.raises(ExperimentError, match=r"\[scenario\].*clears"):
        run_experiment(cfg)


def test_unknown_filter_kind_writes_nothing(tmp_path):
    # rejected when the config is built, not after the truth, the frames
    # and the EKF estimates are on disk
    with pytest.raises(ValueError, match=r"'filters'.*\['pf'\]"):
        quick_config(tmp_path / "x", filters=("ekf", "pf"))
    assert not (tmp_path / "x").exists()


def test_repeated_filter_kind_writes_nothing(tmp_path):
    # a repeat used to run the EKF twice and write estimate_ekf.csv twice
    with pytest.raises(ValueError, match=r"'filters'.*once: \['ekf'\]"):
        quick_config(tmp_path / "x", filters=("ekf", "ekf"))
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("filters,message", [
    (["ekf", "pf"], r"^config key 'filters' names unknown filter kinds "
                    r"\['pf'\] \(known: ekf, ukf\)$"),
    (["ukf", "ekf", "ukf"], r"^config key 'filters' names filter kinds more "
                            r"than once: \['ukf'\]$"),
], ids=["unknown", "repeated"])
def test_filter_kinds_checked_on_every_path(filters, message, tmp_path):
    # one check in ExperimentConfig serves direct construction, replace on
    # a preset and YAML alike
    with pytest.raises(ValueError, match=message):
        quick_config(tmp_path / "x", filters=tuple(filters))
    with pytest.raises(ValueError, match=message):
        replace(preset("wecc9-fault8"), filters=tuple(filters))
    path = tmp_path / "exp.yaml"
    path.write_text("case: wecc9\n"
                    "scenario: {fault_bus: 8, cleared_line: [8, 9]}\n"
                    f"filters: [{', '.join(filters)}]\n")
    with pytest.raises(ValueError, match=message):
        load_experiment_config(path)


def test_negative_seed_rejected_with_its_key(tmp_path):
    # rejected when the config is built, not by numpy at the synthesize stage
    message = r"^config key 'seed' must be a whole number >= 0, got -1$"
    with pytest.raises(ValueError, match=message):
        replace(preset("wecc9-fault8"), seed=-1)
    path = tmp_path / "exp.yaml"
    path.write_text("case: wecc9\n"
                    "scenario: {fault_bus: 8, cleared_line: [8, 9]}\n"
                    "seed: -1\n")
    with pytest.raises(ValueError, match=message):
        load_experiment_config(path)


@pytest.mark.parametrize("seed", [None, 2.0, "3", True])
def test_seed_must_be_an_integer(seed, tmp_path):
    # None used to mean "take the noise spec's seed"; there is one seed now,
    # and a None would seed the draws from the operating system
    with pytest.raises(ValueError, match=r"'seed' must be a whole number"):
        quick_config(tmp_path / "x", seed=seed)


def test_noise_seed_is_an_unknown_key(tmp_path):
    # the seed moved to the top level, so a seed under noise is unknown
    path = tmp_path / "exp.yaml"
    path.write_text("case: wecc9\n"
                    "scenario: {fault_bus: 8, cleared_line: [8, 9]}\n"
                    "noise: {sigma_p: 0.01, seed: 4}\n")
    with pytest.raises(ValueError, match=r"^unknown noise keys: \['seed'\]$"):
        load_experiment_config(path)


@pytest.mark.parametrize("key,value,message", [
    ("noise", [0.01], r"'noise' must be a mapping, got \[0\.01\]"),
    ("t_end", None, r"'scenario\.t_end' must be a number, got None"),
    ("prior_cov", "big", r"'prior_cov' must be a number, got 'big'"),
], ids=["noise-list", "t_end-null", "prior_cov-text"])
def test_config_from_dict_names_malformed_values(key, value, message):
    # each used to raise a bare TypeError or float()'s ValueError, naming
    # no key; tests/test_cli.py covers null sections and bad cleared lines
    data = {"case": "wecc9", "scenario": {"fault_bus": 8,
                                          "cleared_line": [8, 9]}}
    if key == "t_end":
        data["scenario"][key] = value
    else:
        data[key] = value
    with pytest.raises(ValueError, match=rf"^config key {message}$"):
        config_from_dict(data)


@pytest.mark.parametrize("key,value", [
    ("case", None), ("case", 39), ("out_dir", None), ("out_dir", ["out"]),
], ids=["case-null", "case-number", "out_dir-null", "out_dir-list"])
def test_config_from_dict_rejects_non_string_paths(key, value):
    # str() used to read these: case null loaded the case 'None', and
    # out_dir null wrote into ./None
    data = {"case": "wecc9", "scenario": {"fault_bus": 8,
                                          "cleared_line": [8, 9]},
            key: value}
    message = f"config key '{key}' must be a string, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        config_from_dict(data)


@pytest.mark.parametrize("line,key,kind", [
    ("scenario: {fault_bus: true, cleared_line: [8, 9]}", "scenario.fault_bus",
     "whole number"),
    ("scenario: {fault_bus: 8, cleared_line: [8, 9]}\nseed: true", "seed",
     "whole number"),
    ("scenario: {fault_bus: 8, cleared_line: [8, 9], t_end: true}",
     "scenario.t_end", "number"),
    ("scenario: {fault_bus: 8, cleared_line: [8, 9]}\n"
     "noise: {sigma_p: false}", "noise.sigma_p", "number"),
], ids=["fault_bus", "seed", "t_end", "sigma_p"])
def test_yaml_booleans_are_not_numbers(tmp_path, line, key, kind):
    # float() and int() read YAML's true and false as 1 and 0: fault_bus
    # true loaded as bus 1, and sigma_p false as noise-free measurements
    path = tmp_path / "exp.yaml"
    path.write_text(f"case: wecc9\n{line}\n")
    with pytest.raises(ValueError, match=rf"^config key '{key}' must be a "
                                         rf"{kind}, got (True|False)$"):
        load_experiment_config(path)


@pytest.mark.parametrize("kind", ["ekf", "ukf"])
def test_stage_tag_non_finite_frame(kind, tmp_path, monkeypatch):
    real = harness.synthesize

    def corrupted(*args):
        frames = real(*args)
        p_g = frames[150].p_g.copy()
        p_g[0] = np.nan
        frames[150] = replace(frames[150], p_g=p_g)
        return frames

    monkeypatch.setattr(harness, "synthesize", corrupted)
    cfg = quick_config(tmp_path / "x", filters=(kind,))
    with pytest.raises(ExperimentError,
                       match=rf"\[filter-{kind}\] frame 150 .*p_g_1") as info:
        run_experiment(cfg)
    assert info.value.stage == f"filter-{kind}"


def csv_writer_file(path, header, rows):
    """The artifact layout written with csv.writer, the writers' reference."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


def test_writers_match_csv_writer(tmp_path):
    odd = np.array([-0.0, 1e-300, 0.1 + 0.2, -2.5e-7, 1.0 - 1e-16, 123456.789])
    times = np.array([0.0, 0.1 + 0.2, 0.5])
    deltas = [odd[:2], odd[2:4], odd[4:]]
    omegas = [1.0 + odd[1:3], 1.0 - odd[3:5], odd[::3]]
    traj = Trajectory(times=times,
                      states=[DynamicState(delta=d, omega=w)
                              for d, w in zip(deltas, omegas)],
                      regime=[Regime.PreFault, Regime.FaultOn, Regime.PostFault])
    # the fault-on frame lacks bus 2; the last one lists its buses out of order
    frames = [MeasurementFrame(t=0.0, p_g=odd[:2], q_g=odd[2:4],
                               v_mag=odd[:3], v_ang=odd[3:], bus_ids=(1, 2, 3)),
              MeasurementFrame(t=0.1 + 0.2, p_g=odd[4:], q_g=-odd[:2],
                               v_mag=odd[1:3], v_ang=odd[4:], bus_ids=(1, 3)),
              MeasurementFrame(t=0.5, p_g=odd[1:3], q_g=odd[3:5],
                               v_mag=odd[2:5], v_ang=odd[1:4], bus_ids=(3, 1, 2))]
    x_hat = np.column_stack([odd[::-1][:3], odd[:3], odd[1:4], odd[3:]])
    p_diag = 1e-3 * x_hat[:, ::-1] ** 2

    write_trajectory_csv(traj, tmp_path / "truth.csv")
    write_measurements_csv(frames, (1, 2, 3), tmp_path / "measurements.csv")
    write_estimates_csv(traj, x_hat, p_diag, tmp_path / "estimate.csv")

    def cells(values):
        return [repr(float(v)) for v in values]

    assert (tmp_path / "truth.csv").read_bytes() == csv_writer_file(
        tmp_path / "truth_ref.csv",
        ["t", "delta_1", "delta_2", "omega_1", "omega_2", "regime"],
        [cells([t, *s.delta, *s.omega]) + [g.value]
         for t, s, g in zip(times, traj.states, traj.regime)])

    rows = []
    for fr in frames:
        vm = dict(zip(fr.bus_ids, cells(fr.v_mag)))
        va = dict(zip(fr.bus_ids, cells(fr.v_ang)))
        rows.append(cells([fr.t, *fr.p_g, *fr.q_g])
                    + [vm.get(b, "") for b in (1, 2, 3)]
                    + [va.get(b, "") for b in (1, 2, 3)])
    assert rows[1][6] == "" and rows[1][9] == ""
    assert (tmp_path / "measurements.csv").read_bytes() == csv_writer_file(
        tmp_path / "measurements_ref.csv",
        ["t", "p_g_1", "p_g_2", "q_g_1", "q_g_2", "v_mag_1", "v_mag_2",
         "v_mag_3", "v_ang_1", "v_ang_2", "v_ang_3"], rows)

    header = ["t"] + [f"{name}_{i}" for name in
                      ("delta_true", "delta_est", "omega_true", "omega_est",
                       "p_delta", "p_omega") for i in (1, 2)]
    assert (tmp_path / "estimate.csv").read_bytes() == csv_writer_file(
        tmp_path / "estimate_ref.csv", header,
        [cells([t, *s.delta, *x[:2], *s.omega, *x[2:], *p])
         for t, s, x, p in zip(times, traj.states, x_hat, p_diag)])
