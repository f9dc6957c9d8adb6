"""Each output check accepts a correct job and rejects a corrupted one.

    python3 -m pytest bench
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import powerdse
from probe import Probe

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def job(tmp_path_factory):
    """One traced wecc9 preset job, its captured outputs and references."""
    out = tmp_path_factory.mktemp("wecc9")
    probe = Probe(powerdse, trace=True)
    try:
        cfg = replace(powerdse.preset("wecc9-fault8"), out_dir=str(out))
        probe.run_job(0, powerdse.run_experiment, cfg)
    finally:
        probe.restore()
    res = probe.results
    case, pf = res["cases.load_case"], res["powerflow.solve_power_flow"]
    grid = checks.ReferenceGrid(case, pf.v_mag, pf.v_ang)
    truth = res["dynamics.simulate"]
    return SimpleNamespace(
        cfg=cfg, case=case, pf=pf, grid=grid, truth=truth,
        reference=grid.trajectory(cfg.scenario, truth.times),
        frames=res["measurement.synthesize"],
        estimates={k: res[f"filters.{k}"] for k in ("ekf", "ukf")},
        nets=res["reduction.scenario_networks"], out=out, probe=probe)


def with_state(truth, k: int, delta=None, omega=None):
    """A copy of the truth with sample k's angles or speeds replaced."""
    states = list(truth.states)
    states[k] = powerdse.DynamicState(
        delta=states[k].delta if delta is None else delta,
        omega=states[k].omega if omega is None else omega)
    return powerdse.Trajectory(times=truth.times, states=states,
                               regime=list(truth.regime))


def test_correct_job_passes_every_check(job):
    scen, freq = job.cfg.scenario, job.case.frequency
    t_clear = scen.t_clear(freq)
    assert checks.check_power_flow(job.grid) == []
    assert checks.check_networks(job.grid, scen, job.nets) == []
    assert checks.check_truth(job.truth, job.reference, scen, freq) == []
    assert checks.check_measurements(job.frames, job.truth, job.grid, scen,
                                     job.cfg.noise) == []
    for estimate, beliefs in job.estimates.values():
        assert checks.check_estimates(job.truth, estimate, beliefs, t_clear) == []
    assert checks.check_artifacts(job.out, job.truth, job.frames, job.estimates) == []
    assert checks.check_identical(checks.digests(job.out), checks.digests(job.out)) == []


def test_power_flow_check_rejects_moved_voltage(job):
    v_ang = job.pf.v_ang.copy()
    v_ang[4] += 1e-4
    grid = checks.ReferenceGrid(job.case, job.pf.v_mag, v_ang)
    assert checks.check_power_flow(grid)


def test_network_check_rejects_changed_admittance(job):
    post = job.nets.post
    y_red = post.y_red.copy()
    y_red[0, 1] *= 1.0 + 1e-6
    nets = replace(job.nets, post=replace(post, y_red=y_red))
    assert checks.check_networks(job.grid, job.cfg.scenario, nets)


def test_truth_check_rejects_perturbed_sample(job):
    k = 500
    truth = with_state(job.truth, k, delta=job.truth.states[k].delta + [0, 1e-3, 0])
    problems = checks.check_truth(truth, job.reference, job.cfg.scenario,
                                  job.case.frequency)
    assert any("DOP853" in p for p in problems)


def test_truth_check_rejects_pre_fault_drift(job):
    k = 50
    truth = with_state(job.truth, k, delta=job.truth.states[k].delta + 1e-7)
    problems = checks.check_truth(truth, job.reference, job.cfg.scenario,
                                  job.case.frequency)
    assert any("pre-fault" in p for p in problems)


def test_truth_check_rejects_speed_outside_band(job):
    k = 300
    truth = with_state(job.truth, k, omega=job.truth.states[k].omega + [0, 0, 0.06])
    problems = checks.check_truth(truth, job.reference, job.cfg.scenario,
                                  job.case.frequency)
    assert any("stable band" in p for p in problems)


def test_measurement_check_rejects_noise_scaled_twice(job):
    scen = job.cfg.scenario
    regimes = checks.regimes_at(scen, job.case.frequency, job.truth.times)
    frames = []
    for fr, regime, delta in zip(job.frames, regimes, job.truth.delta_matrix()):
        clean = job.grid.outputs(regime, scen, delta[None, :])[0][0, 0]
        p_g = fr.p_g.copy()
        p_g[0] = clean + 2.0 * (p_g[0] - clean)
        frames.append(replace(fr, p_g=p_g))
    problems = checks.check_measurements(frames, job.truth, job.grid, scen,
                                         job.cfg.noise)
    assert problems and all("p_g_1 noise std" in p for p in problems)


def test_measurement_check_rejects_faulted_bus_in_fault_on_frame(job):
    scen = job.cfg.scenario
    regimes = checks.regimes_at(scen, job.case.frequency, job.truth.times)
    k = int(np.flatnonzero(regimes == "fault")[0])
    frames = list(job.frames)
    frames[k] = replace(job.frames[0], t=frames[k].t)   # every bus present
    problems = checks.check_measurements(frames, job.truth, job.grid, scen,
                                         job.cfg.noise)
    assert any("layout" in p for p in problems)


def test_estimate_check_rejects_nan(job):
    estimate, beliefs = job.estimates["ekf"]
    beliefs = list(beliefs)
    x = beliefs[500].x_hat.copy()
    x[0] = np.nan
    beliefs[500] = replace(beliefs[500], x_hat=x)
    problems = checks.check_estimates(job.truth, estimate, beliefs,
                                      job.cfg.scenario.t_clear(job.case.frequency))
    assert problems == ["estimates: non-finite value from frame 500 on"]


def test_estimate_check_rejects_negative_variance(job):
    estimate, beliefs = job.estimates["ukf"]
    beliefs = list(beliefs)
    p = beliefs[700].p.copy()
    p[3, 3] = -1e-9
    beliefs[700] = replace(beliefs[700], p=p)
    problems = checks.check_estimates(job.truth, estimate, beliefs,
                                      job.cfg.scenario.t_clear(job.case.frequency))
    assert any("not positive" in p for p in problems)


def test_estimate_check_rejects_large_error(job):
    estimate, beliefs = job.estimates["ekf"]
    shifted = powerdse.Trajectory(
        times=estimate.times, regime=estimate.regime,
        states=[powerdse.DynamicState(delta=s.delta + 0.03, omega=s.omega)
                for s in estimate.states])
    problems = checks.check_estimates(job.truth, shifted, beliefs,
                                      job.cfg.scenario.t_clear(job.case.frequency))
    assert any("angle RMSE" in p for p in problems)


def changed_copy(src: Path, dst: Path, name: str) -> Path:
    """A copy of the artifacts with one digit of ``name`` changed."""
    shutil.copytree(src, dst)
    data = bytearray((dst / name).read_bytes())
    k = data.index(b"\n") + 10                  # inside the first data row
    while not chr(data[k]).isdigit():
        k += 1
    data[k] = ord("1") if data[k] != ord("1") else ord("2")
    (dst / name).write_bytes(bytes(data))
    return dst


@pytest.mark.parametrize("name", ["truth.csv", "measurements.csv",
                                  "estimate_ekf.csv", "estimate_ukf.csv"])
def test_artifact_check_rejects_changed_byte(job, tmp_path, name):
    out = changed_copy(job.out, tmp_path / "out", name)
    problems = checks.check_artifacts(out, job.truth, job.frames, job.estimates)
    assert any(name in p for p in problems)


def test_identity_check_rejects_changed_byte(job, tmp_path):
    out = changed_copy(job.out, tmp_path / "out", "report.txt")
    problems = checks.check_identical(checks.digests(job.out), checks.digests(out))
    assert problems == ["artifacts: report.txt differs between two runs of one seed"]


def test_reference_child_matches_in_process_integration(job):
    scen = job.cfg.scenario
    request = {"case": job.case.name, "v_mag": job.pf.v_mag.tolist(),
               "v_ang": job.pf.v_ang.tolist(), "times": job.truth.times.tolist(),
               "scenarios": [[scen.fault_bus, scen.t_fault, scen.clearing_cycles,
                              *scen.cleared_line]]}
    reply = subprocess.run([sys.executable, str(HERE / "reference.py")],
                           input=json.dumps(request).encode(),
                           capture_output=True, check=True, timeout=120).stdout
    with np.load(io.BytesIO(reply)) as arrays:
        assert np.array_equal(arrays["0"], job.reference)


def test_span_self_times_partition_the_job(job):
    spans = job.probe.self_times()[0]
    total = sum(seconds for seconds, _ in spans.values())
    name, _, _, start, end, _ = job.probe.spans[0]
    assert name == "job"
    assert total == pytest.approx(end - start, rel=1e-9)
    assert spans["dynamics.simulate"][1] == len(job.truth) - 1
    assert spans["filters.ekf"][1] == len(job.frames) - 1
