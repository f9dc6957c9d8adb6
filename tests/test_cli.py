import csv

import numpy as np
import pytest
from click.testing import CliRunner

from powerdse.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def test_help_lists_subcommands(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for name in ("run", "powerflow", "simulate", "reduce"):
        assert name in result.output


def test_powerflow_bundled_case(runner):
    result = runner.invoke(main, ["powerflow", "wecc9"])
    assert result.exit_code == 0
    assert "converged in" in result.output
    assert "total load: 315 MW, 115 MVar" in result.output
    assert " slack " in result.output


def test_powerflow_writes_csv(runner, tmp_path, wecc9_pf):
    out = tmp_path / "pf.csv"
    result = runner.invoke(main, ["powerflow", "wecc9", "--out", str(out)])
    assert result.exit_code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    assert rows[0]["kind"] == "slack"
    # repr round-trips: file values equal the solver's exactly
    assert float(rows[0]["v_mag"]) == wecc9_pf.v_mag[0]
    assert float(rows[4]["p_inj"]) == wecc9_pf.p_inj[4]


def csv_writer_bytes(path, header, rows):
    """``rows`` written with csv.writer's default dialect, the reference
    layout of every CSV the commands write."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


def test_command_csvs_match_csv_writer(runner, tmp_path, wecc9, wecc9_pf,
                                       wecc9_net):
    pf_csv, red = tmp_path / "pf.csv", tmp_path / "red"
    assert runner.invoke(main, ["powerflow", "wecc9", "--out",
                                str(pf_csv)]).exit_code == 0
    assert runner.invoke(main, ["reduce", "wecc9", "--out-dir",
                                str(red)]).exit_code == 0
    pf, net, nm = wecc9_pf, wecc9_net, wecc9_net.n_machines
    assert pf_csv.read_bytes() == csv_writer_bytes(
        tmp_path / "pf_ref.csv",
        ["bus", "kind", "v_mag", "v_ang", "p_inj", "q_inj"],
        [[bus.id, bus.kind.value] + [repr(float(x[pos])) for x in
                                     (pf.v_mag, pf.v_ang, pf.p_inj, pf.q_inj)]
         for pos, bus in enumerate(wecc9.buses)])
    y = net.y_red
    assert (red / "reduced_admittance.csv").read_bytes() == csv_writer_bytes(
        tmp_path / "y_ref.csv",
        ["machine_i", "machine_j", "real", "imag", "magnitude", "angle"],
        [[i + 1, j + 1] + [repr(float(v)) for v in
                           (y[i, j].real, y[i, j].imag, np.abs(y[i, j]),
                            np.angle(y[i, j]))]
         for i in range(nm) for j in range(nm)])
    assert (red / "voltage_reconstruction.csv").read_bytes() == \
        csv_writer_bytes(
            tmp_path / "rv_ref.csv", ["bus", "machine", "real", "imag"],
            [[bus, j + 1, repr(float(net.r_v[row, j].real)),
              repr(float(net.r_v[row, j].imag))]
             for row, bus in enumerate(net.bus_order) for j in range(nm)])


def test_powerflow_missing_case(runner):
    result = runner.invoke(main, ["powerflow", "nope.case"])
    assert result.exit_code != 0
    assert "nope.case" in result.output


def test_powerflow_iteration_cap(runner):
    result = runner.invoke(main, ["powerflow", "wecc9", "--max-iter", "1"])
    assert result.exit_code != 0
    assert "did not converge" in result.output


def test_powerflow_settings_checked(runner):
    # a usage error from the option itself, not "cannot access local variable"
    result = runner.invoke(main, ["powerflow", "wecc9", "--max-iter", "0"])
    assert result.exit_code == 2
    assert "Invalid value for '--max-iter'" in result.output
    result = runner.invoke(main, ["powerflow", "wecc9", "--tol", "nan"])
    assert result.exit_code == 1
    assert result.output.startswith("Error: power flow needs max_iter >= 1 "
                                    "and a positive finite tol")


def test_simulate_writes_trajectory(runner, tmp_path):
    out = tmp_path / "traj.csv"
    result = runner.invoke(main, [
        "simulate", "wecc9", "--fault-bus", "8", "--clear-line", "8", "9",
        "--t-end", "1.0", "--out", str(out),
    ])
    assert result.exit_code == 0
    assert "simulated 101 samples" in result.output
    assert "machine 3:" in result.output
    with open(out) as fh:
        header = next(csv.reader(fh))
    assert header == ["t", "delta_1", "delta_2", "delta_3",
                      "omega_1", "omega_2", "omega_3", "regime"]


def test_simulate_rejects_bad_scenario(runner):
    result = runner.invoke(main, [
        "simulate", "wecc9", "--fault-bus", "77", "--clear-line", "8", "9",
        "--t-end", "1.0",
    ])
    assert result.exit_code != 0
    assert "77" in result.output


def test_simulate_has_no_substeps_option(runner):
    # one step per sample: a finer truth takes a smaller --dt
    result = runner.invoke(main, [
        "simulate", "wecc9", "--fault-bus", "8", "--clear-line", "8", "9",
        "--t-end", "1.5", "--substeps", "2",
    ])
    assert result.exit_code != 0
    assert "--substeps" in result.output


def test_reduce_prints_and_writes(runner, tmp_path, wecc9_net):
    out_dir = tmp_path / "red"
    result = runner.invoke(main, ["reduce", "wecc9", "--out-dir",
                                  str(out_dir)])
    assert result.exit_code == 0
    assert "reduced 9 buses to 3 machine nodes" in result.output
    with open(out_dir / "reduced_admittance.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    first = rows[0]
    assert float(first["real"]) == wecc9_net.y_red[0, 0].real
    assert float(first["magnitude"]) == np.abs(wecc9_net.y_red[0, 0])
    with open(out_dir / "voltage_reconstruction.csv") as fh:
        recon = list(csv.DictReader(fh))
    assert len(recon) == 9 * 3
    assert float(recon[0]["real"]) == wecc9_net.r_v[0, 0].real


def test_run_yaml_config(runner, tmp_path):
    cfg = tmp_path / "exp.yaml"
    out_dir = tmp_path / "results"
    cfg.write_text(
        "case: wecc9\n"
        "scenario:\n"
        "  fault_bus: 8\n"
        "  cleared_line: [8, 9]\n"
        "  t_end: 2.0\n"
        "filters: [ekf]\n"
        f"out_dir: {out_dir}\n"
        "seed: 11\n"
    )
    result = runner.invoke(main, ["run", str(cfg)])
    assert result.exit_code == 0
    assert "filter ekf:" in result.output
    assert "outputs written to" in result.output
    for name in ("truth.csv", "measurements.csv", "estimate_ekf.csv",
                 "report.txt"):
        assert (out_dir / name).exists()


def test_run_preset_with_overrides(runner, tmp_path):
    out_dir = tmp_path / "preset-out"
    result = runner.invoke(main, ["run", "wecc9-fault8",
                                  "--seed", "3", "--out", str(out_dir)])
    assert result.exit_code == 0
    assert "noise seed: 3" in result.output
    assert (out_dir / "estimate_ukf.csv").exists()
    report = (out_dir / "report.txt").read_text()
    assert "case: wecc9" in report


def test_run_rejects_unknown_config(runner):
    result = runner.invoke(main, ["run", "wecc3-fault1"])
    assert result.exit_code != 0
    assert "wecc3-fault1" in result.output


def test_run_reports_stage_on_failure(runner, tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(
        "case: wecc9\n"
        "scenario:\n"
        "  fault_bus: 77\n"
        "  cleared_line: [8, 9]\n"
    )
    result = runner.invoke(main, ["run", str(cfg)])
    assert result.exit_code != 0
    assert "[reduction]" in result.output


def test_run_unwritable_out_is_one_line(runner, tmp_path):
    # the output directory cannot be made under a file: an error line, not
    # a traceback
    blocker = tmp_path / "file"
    blocker.write_text("")
    result = runner.invoke(main, ["run", "wecc9-fault8",
                                  "--out", str(blocker / "sub")])
    assert result.exit_code != 0
    lines = result.output.splitlines()
    assert len(lines) == 1, result.output
    assert lines[0].startswith("Error: [write] ")
    assert str(blocker / "sub") in lines[0]


def test_run_rejects_unknown_filter_before_running(runner, tmp_path):
    cfg = tmp_path / "exp.yaml"
    out_dir = tmp_path / "results"
    cfg.write_text(
        "case: wecc9\n"
        "scenario:\n"
        "  fault_bus: 8\n"
        "  cleared_line: [8, 9]\n"
        "filters: [ekf, pf]\n"
        f"out_dir: {out_dir}\n"
    )
    result = runner.invoke(main, ["run", str(cfg)])
    assert result.exit_code != 0
    lines = result.output.splitlines()
    assert len(lines) == 1, result.output
    assert "'filters'" in lines[0] and "'pf'" in lines[0]
    assert not out_dir.exists()


def test_run_bad_prior_is_one_line(runner, tmp_path):
    # the prior used to fail outside any stage, with a traceback, after the
    # power flow, the simulation and the synthesis had run
    cfg = tmp_path / "exp.yaml"
    out_dir = tmp_path / "results"
    cfg.write_text(
        "case: wecc9\n"
        "scenario:\n"
        "  fault_bus: 8\n"
        "  cleared_line: [8, 9]\n"
        "  t_end: 2.0\n"
        "prior_cov: -1.0\n"
        f"out_dir: {out_dir}\n"
    )
    result = runner.invoke(main, ["run", str(cfg)])
    assert result.exit_code != 0
    lines = result.output.splitlines()
    assert len(lines) == 1, result.output
    assert lines[0].startswith("Error: [prior] ")
    assert not out_dir.exists()


def test_run_nan_prior_is_one_line(runner, tmp_path):
    # a NaN prior mean used to run every filter to the end, write every file
    # and report nan errors with exit status 0
    cfg = tmp_path / "exp.yaml"
    out_dir = tmp_path / "results"
    cfg.write_text(
        "case: wecc9\n"
        "scenario:\n"
        "  fault_bus: 8\n"
        "  cleared_line: [8, 9]\n"
        "  t_end: 2.0\n"
        "prior_angle_shift: .nan\n"
        f"out_dir: {out_dir}\n"
    )
    result = runner.invoke(main, ["run", str(cfg)])
    assert result.exit_code != 0
    lines = result.output.splitlines()
    assert len(lines) == 1, result.output
    assert lines[0].startswith("Error: [prior] initial mean x0 is not finite")
    assert not out_dir.exists()


def test_seed_flag_changes_measurements(runner, tmp_path):
    paths = []
    for seed in ("1", "2"):
        out_dir = tmp_path / f"s{seed}"
        cfg = tmp_path / f"exp{seed}.yaml"
        cfg.write_text(
            "case: wecc9\n"
            "scenario:\n"
            "  fault_bus: 8\n"
            "  cleared_line: [8, 9]\n"
            "  t_end: 1.5\n"
            "filters: [ekf]\n"
            f"out_dir: {out_dir}\n"
        )
        result = runner.invoke(main, ["run", str(cfg), "--seed", seed])
        assert result.exit_code == 0
        paths.append(out_dir / "measurements.csv")
    assert paths[0].read_bytes() != paths[1].read_bytes()


def test_run_repeat_sweeps_seeds(runner, tmp_path):
    cfg = tmp_path / "exp.yaml"
    out_dir = tmp_path / "sweep"
    cfg.write_text(
        "case: wecc9\n"
        "scenario:\n"
        "  fault_bus: 8\n"
        "  cleared_line: [8, 9]\n"
        "  t_end: 1.5\n"
        "filters: [ekf]\n"
    )
    result = runner.invoke(main, ["run", str(cfg), "--seed", "4",
                                  "--out", str(out_dir), "--repeat", "2"])
    assert result.exit_code == 0, result.output
    assert "noise seed: 4" in result.output
    assert "noise seed: 5" in result.output
    reports = [(out_dir / f"seed{k}" / "report.txt").read_text()
               for k in (4, 5)]
    assert "noise seed: 4" in reports[0] and "noise seed: 5" in reports[1]
    rmse = np.array([[float(v) for v in next(
        line for line in report.splitlines()
        if "post-clearing rmse, angle" in line).split(":")[1].split()]
        for report in reports])
    summary = result.output.split("over 2 seeds (4..5):\n")[1].splitlines()
    mean = [float(v) for v in summary[0].split(":")[1].split()]
    std = [float(v) for v in summary[1].split(":")[1].split()]
    assert summary[0].startswith("  ekf mean:")
    assert summary[1].startswith("  ekf std:")
    assert np.allclose(mean, rmse.mean(axis=0), rtol=1e-6)
    assert np.allclose(std, rmse.std(axis=0), rtol=1e-5)


def test_run_nan_noise_level_is_one_line(runner, tmp_path):
    # a NaN noise level used to pass the config, write truth.csv and an
    # all-NaN measurements.csv, and fail only in the first EKF frame
    cfg = tmp_path / "exp.yaml"
    out_dir = tmp_path / "results"
    cfg.write_text(
        "case: wecc9\n"
        "scenario:\n"
        "  fault_bus: 8\n"
        "  cleared_line: [8, 9]\n"
        "  t_end: 2.0\n"
        "noise:\n"
        "  sigma_p: .nan\n"
        f"out_dir: {out_dir}\n"
    )
    result = runner.invoke(main, ["run", str(cfg)])
    assert result.exit_code == 1
    lines = result.output.splitlines()
    assert len(lines) == 1, result.output
    assert lines[0] == ("Error: noise levels must be finite and at least 0: "
                        "sigma_p=nan")
    assert not out_dir.exists()


def test_run_overflowing_noise_sd_is_one_line(runner, tmp_path):
    # an sd of 1e200 used to pass the config, write nothing, and die with a
    # bare OverflowError from squaring it for the filters
    cfg = tmp_path / "exp.yaml"
    out_dir = tmp_path / "results"
    cfg.write_text(
        "case: wecc9\n"
        "scenario: {fault_bus: 8, cleared_line: [8, 9], t_end: 2.0}\n"
        "noise: {sigma_p: 1.0e+200}\n"
        f"out_dir: {out_dir}\n"
    )
    result = runner.invoke(main, ["run", str(cfg)])
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        "Error: noise sds must square to a finite float: sigma_p=1e+200"]
    assert not out_dir.exists()


def test_run_negative_seed_is_one_line(runner, tmp_path):
    out_dir = tmp_path / "results"
    result = runner.invoke(main, ["run", "wecc9-fault8", "--seed", "-1",
                                  "--out", str(out_dir)])
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        "Error: config key 'seed' must be a whole number >= 0, got -1"]
    assert not out_dir.exists()


def test_run_missing_scenario_key_is_named(runner, tmp_path):
    # used to print only "Error: 'cleared_line'", from a bare KeyError
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("case: wecc9\n"
                   "scenario:\n"
                   "  fault_bus: 8\n")
    result = runner.invoke(main, ["run", str(cfg)])
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        "Error: config key 'scenario.cleared_line' is required"]


@pytest.mark.parametrize("scenario,noise,message", [
    ("scenario: null\n", "", "'scenario' must be a mapping, got None"),
    ("scenario: {fault_bus: 8, cleared_line: [8, 9]}\n", "noise: null\n",
     "'noise' must be a mapping, got None"),
    ("scenario: {fault_bus: 8, cleared_line: 8}\n", "",
     "'scenario.cleared_line' must be a list of two whole numbers, got 8"),
    ("scenario: {fault_bus: 8, cleared_line: [8, 9, 10]}\n", "",
     "'scenario.cleared_line' must be a list of two whole numbers, "
     "got [8, 9, 10]"),
], ids=["scenario-null", "noise-null", "line-scalar", "line-three-buses"])
def test_run_malformed_section_is_named(runner, tmp_path, scenario, noise,
                                        message):
    # each used to fail as a bare TypeError, or (three buses) run on the
    # first two
    cfg = tmp_path / "exp.yaml"
    out_dir = tmp_path / "results"
    cfg.write_text(f"case: wecc9\n{scenario}{noise}out_dir: {out_dir}\n")
    result = runner.invoke(main, ["run", str(cfg)])
    assert result.exit_code == 1
    assert result.output.splitlines() == [f"Error: config key {message}"]
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("key", ["case", "out_dir"])
def test_run_null_path_is_one_line(runner, tmp_path, monkeypatch, key):
    # str() used to read a null as 'None': case null loaded the case 'None',
    # and out_dir null wrote into ./None
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "exp.yaml"
    values = {"case": "wecc9", "out_dir": tmp_path / "results", key: "null"}
    cfg.write_text(f"case: {values['case']}\n"
                   "scenario: {fault_bus: 8, cleared_line: [8, 9]}\n"
                   f"out_dir: {values['out_dir']}\n")
    result = runner.invoke(main, ["run", str(cfg)])
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        f"Error: config key '{key}' must be a string, got None"]
    assert list(tmp_path.iterdir()) == [cfg]
