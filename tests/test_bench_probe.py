"""The benchmark's per-layer figures come from spans that ``bench/probe.py``
puts around the program's stage functions.  A stage renamed or bypassed
would silently read 0 there, so one traced preset run must give every
stage a span and every counted stage a non-zero count, and one traced
screening job must give its stages theirs and pass the benchmark's network
check."""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import powerdse

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    """``bench/<name>.py``, loaded by file path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_spans_every_stage(tmp_path):
    bench_probe = load_bench("probe")
    cfg = replace(powerdse.preset("wecc9-fault8"), out_dir=str(tmp_path))
    probe = bench_probe.Probe(powerdse, trace=True)
    try:
        probe.run_job(0, powerdse.run_experiment, cfg)
    finally:
        probe.restore()

    spans = probe.self_times()[0]
    for _, _, name, count in bench_probe.STAGES:
        names = ([name((SimpleNamespace(kind=kind),)) for kind in cfg.filters]
                 if callable(name) else [name])
        for label in names:
            assert label in spans, f"no span for {label}"
            if count is not None:
                assert spans[label][1] > 0, f"{label} counted no work"


def test_probe_spans_screening_job():
    # The first contingency of the screening workload, run as
    # bench/run.py's Screening.job runs it: the networks, then simulate,
    # which asks for them again.
    bench_probe, checks = load_bench("probe"), load_bench("checks")
    spec = json.loads((BENCH / "contingencies.json").read_text())
    bus, a, b = spec["contingencies"][0]
    scenario = powerdse.FaultScenario(
        fault_bus=bus, t_fault=spec["t_fault"],
        clearing_cycles=spec["clearing_cycles"], cleared_line=(a, b),
        t_end=spec["t_end"], dt=spec["dt"])
    case = powerdse.load_case(spec["case"])
    pf = powerdse.solve_power_flow(case)

    def job():
        nets = powerdse.dynamics.scenario_networks(case, pf, scenario)
        return nets, powerdse.dynamics.simulate(case, pf, scenario)

    probe = bench_probe.Probe(powerdse, trace=True)
    try:
        nets, truth = probe.run_job(0, job)
    finally:
        probe.restore()

    names = [span[0] for span in probe.spans]
    assert names.count("reduction.scenario_networks") == 2
    assert names.count("dynamics.simulate") == 1
    assert probe.self_times()[0]["dynamics.simulate"][1] == 500
    grid = checks.ReferenceGrid(case, pf.v_mag, pf.v_ang)
    assert checks.check_networks(grid, scenario, nets) == []
