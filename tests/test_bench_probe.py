"""The benchmark's per-layer figures come from spans that ``bench/probe.py``
puts around the program's stage functions.  A stage renamed or bypassed
would silently read 0 there, so one traced preset run must give every
stage a span and every counted stage a non-zero count."""

import importlib.util
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import powerdse

PROBE = Path(__file__).resolve().parent.parent / "bench" / "probe.py"


def load_probe():
    spec = importlib.util.spec_from_file_location("bench_probe", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_spans_every_stage(tmp_path):
    bench_probe = load_probe()
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
