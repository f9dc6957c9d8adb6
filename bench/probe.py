"""Spans and results around the program's stage functions.

The probe replaces a stage function with a wrapper in every namespace the
pipeline looks it up from (``powerdse.dynamics.simulate``,
``powerdse.harness.simulate``, ``powerdse.filters.machine_init``, ...);
nothing inside ``powerdse`` changes.  The wrapper always
keeps the stage's latest result, which the output checks read.  With tracing
on it also records a span per call: name, job, parent span, start and end,
and the stage's work count.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _size(path) -> int:
    return Path(path).stat().st_size


# (defining module, public function, span name, work count from (args,
# result)).  The span name of run_filter depends on the filter kind, so it
# is built per call.
STAGES = [
    ("cases", "load_case", "cases.load_case", None),
    ("powerflow", "solve_power_flow", "powerflow.solve_power_flow",
     lambda a, r: r.iterations),
    ("dynamics", "scenario_networks", "reduction.scenario_networks", None),
    ("reduction", "machine_init", "reduction.machine_init", None),
    ("dynamics", "simulate", "dynamics.simulate", lambda a, r: len(r) - 1),
    ("measurement", "synthesize", "measurement.synthesize",
     lambda a, r: sum(fr.size for fr in r)),
    ("filters", "run_filter", lambda a: f"filters.{a[0].kind}",
     lambda a, r: len(a[4]) - 1),
    ("harness", "write_trajectory_csv", "harness.write_truth",
     lambda a, r: _size(a[-1])),
    ("harness", "write_measurements_csv", "harness.write_measurements",
     lambda a, r: _size(a[-1])),
    ("harness", "write_estimates_csv", "harness.write_estimates",
     lambda a, r: _size(a[-1])),
]


class Probe:
    """Wraps the stage functions of an imported ``powerdse`` wherever the
    package's modules hold them: the defining module, and every module
    that imported the function by name."""

    def __init__(self, package, trace: bool):
        self.trace = trace
        self.results: dict[str, object] = {}
        # [name, job, parent index, start, end, count]
        self.spans: list[list] = []
        self.job = "setup"
        self._open: list[int] = []
        self._undo = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package.__name__
                   or name.startswith(package.__name__ + ".")]
        for module_name, attr, name, count in STAGES:
            original = getattr(getattr(package, module_name), attr)
            wrapper = self._wrap(original, name, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def _wrap(self, fn, name, count):
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            if not self.trace:
                result = fn(*args, **kwargs)
                self.results[label] = result
                return result
            span = self._begin(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            self.results[label] = result
            if count is not None:
                self.spans[span][5] = count(args, result)
            return result
        return wrapper

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self.job, parent, 0.0, 0.0, None])
        self._open.append(len(self.spans) - 1)
        self.spans[-1][3] = time.perf_counter()
        return self._open[-1]

    def _end(self, span: int) -> None:
        self.spans[span][4] = time.perf_counter()
        self._open.pop()

    def run_job(self, job, fn, *args):
        """Call ``fn(*args)`` as job ``job``; with tracing on, under a
        ``job`` span that parents the stage spans."""
        self.job = job
        if not self.trace:
            return fn(*args)
        span = self._begin("job")
        try:
            return fn(*args)
        finally:
            self._end(span)

    def self_times(self) -> dict:
        """{job: {span name: (summed self seconds, summed count)}}.

        A span's self time is its duration less that of its direct children.
        """
        child = [0.0] * len(self.spans)
        for name, _, parent, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
        for (name, job, _, start, end, count), inner in zip(self.spans, child):
            entry = out[job][name]
            entry[0] += end - start - inner
            entry[1] += count or 0
        return out

    def dump(self, path: Path) -> None:
        keys = ("name", "job", "parent", "start", "end", "count")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))
