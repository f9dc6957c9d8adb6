"""Benchmark of the powerdse pipeline, end to end and per layer.

    python3 bench/run.py --workload wecc9-fault8 --seed 1 --seconds 20 --trace 0

One process runs one job at a time (a closed loop) with BLAS pinned to one
thread.  After an untimed warm-up job, the workload runs whole rounds of
jobs until ``--seconds`` have passed, and checks every job's outputs against
computations made apart from the program (``checks.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Per-layer figures come from spans
around the program's stage functions (``probe.py``).  Run outputs and span
files go to ``.bench_out/`` at the repository root.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread.  The jobs do small matrix work on a host shared with other
# processes, where more BLAS threads add contention and run-to-run noise but
# no speed.  This must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
from probe import Probe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("wecc9-fault8", "ne39-fault4", "ne39-screening")
# A preset run's accuracy averages over its first ACCURACY_JOBS timed jobs,
# so it repeats exactly at a fixed --seed; every run makes that many jobs.
ACCURACY_JOBS = 8


def import_program():
    """The checkout's own powerdse, never an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import powerdse
    except ImportError as exc:
        sys.exit(f"bench: cannot import powerdse from {ROOT / 'src'}: {exc}")
    if not Path(powerdse.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"bench: powerdse comes from {powerdse.__file__}, "
                 f"not from {ROOT / 'src'}")
    return powerdse


class Workload:
    """Shared bookkeeping: job timing, failures, check problems, references."""

    min_rounds = 1

    def __init__(self, dse, probe, workdir: Path):
        self.dse = dse
        self.probe = probe
        self.workdir = workdir
        self.job_seconds: list[float] = []
        self.ok_jobs: list[int] = []
        self.failed = 0
        self.problems: list[str] = []
        self.filter_accuracy: dict[str, list[float]] = {"ekf": [], "ukf": []}

    def load_references(self, case, pf, scenarios, times) -> None:
        """Set up the reference model, and integrate every scenario with
        DOP853 in a child process (see ``reference.py``)."""
        self.grid = checks.ReferenceGrid(case, pf.v_mag, pf.v_ang)
        request = {
            "case": case.name, "v_mag": pf.v_mag.tolist(),
            "v_ang": pf.v_ang.tolist(), "times": times.tolist(),
            "scenarios": [[s.fault_bus, s.t_fault, s.clearing_cycles,
                           *s.cleared_line] for s in scenarios]}
        reply = subprocess.run(
            [sys.executable, str(HERE / "reference.py")], cwd=ROOT,
            input=json.dumps(request).encode(), capture_output=True,
            check=True, timeout=150).stdout
        with np.load(io.BytesIO(reply)) as arrays:
            self.references = {s: arrays[str(k)] for k, s in enumerate(scenarios)}

    def timed(self, fn, *args):
        """One timed job, after a host-speed sample; its result, or None
        when it raised.  Jobs are numbered from 0 in the order run."""
        job = len(self.job_seconds)
        self.probe.results.clear()
        self.clock.calibrate()
        gc.collect()
        t0 = time.perf_counter()
        try:
            result = self.probe.run_job(job, fn, *args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            print(f"bench: job {job} failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return None
        finally:
            self.job_seconds.append(time.perf_counter() - t0)
        self.ok_jobs.append(job)
        return result

    def finish(self) -> None:
        pass


class Preset(Workload):
    """One ``run_experiment`` per job, each with a fresh noise seed."""

    min_rounds = ACCURACY_JOBS

    def __init__(self, dse, probe, workdir, name: str, seed: int):
        super().__init__(dse, probe, workdir)
        self.cfg = dse.preset(name)
        rng = random.Random(seed)
        self.next_seed = lambda: rng.randrange(1 << 31)
        self.scores: list[float] = []

    def experiment(self, folder: str, noise_seed: int):
        return self.dse.run_experiment(replace(
            self.cfg, seed=noise_seed, out_dir=str(self.workdir / folder)))

    def warm_up(self) -> None:
        self.first_seed = self.next_seed()
        self.probe.run_job("setup", self.experiment, "warmup", self.first_seed)

    def check_warm_up(self) -> None:
        res = self.probe.results
        self.load_references(res["cases.load_case"],
                             res["powerflow.solve_power_flow"],
                             [self.cfg.scenario], res["dynamics.simulate"].times)
        self.check("warmup")
        self.first_digests = checks.digests(self.workdir / "warmup")

    def round(self, index: int) -> None:
        if self.timed(self.experiment, "job", self.next_seed()) is not None:
            self.check("job", score=len(self.scores) < ACCURACY_JOBS)

    def check(self, folder: str, score: bool = False) -> None:
        res, scen = self.probe.results, self.cfg.scenario
        case = res["cases.load_case"]
        truth, frames = res["dynamics.simulate"], res["measurement.synthesize"]
        reference = self.references[scen]
        t_clear = scen.t_clear(case.frequency)
        estimates = {kind: res[f"filters.{kind}"] for kind in self.cfg.filters}
        pf = res["powerflow.solve_power_flow"]
        problems = checks.check_power_flow(
            checks.ReferenceGrid(case, pf.v_mag, pf.v_ang))
        problems += checks.check_networks(self.grid, scen,
                                          res["reduction.scenario_networks"])
        problems += checks.check_truth(truth, reference, scen, case.frequency)
        problems += checks.check_measurements(frames, truth, self.grid, scen,
                                              self.cfg.noise)
        for estimate, beliefs in estimates.values():
            problems += checks.check_estimates(truth, estimate, beliefs, t_clear)
        problems += checks.check_artifacts(self.workdir / folder, truth, frames,
                                           estimates)
        self.problems += problems
        if score and not problems:
            # Worst machine of the worse filter, against the DOP853 truth;
            # per filter, against the program's truth.
            mask = truth.times >= t_clear
            nm = len(case.machines)
            worst = 0.0
            for kind, (estimate, _) in estimates.items():
                delta = estimate.delta_matrix()
                worst = max(worst, float(checks.post_rmse(
                    reference[:, :nm], delta, mask).max()))
                self.filter_accuracy[kind].append(float(checks.post_rmse(
                    truth.delta_matrix(), delta, mask).max()))
            self.scores.append(worst)

    def finish(self) -> None:
        """Run the warm-up's seed again: the files must match byte for byte."""
        self.probe.run_job("rerun", self.experiment, "rerun", self.first_seed)
        self.problems += checks.check_identical(
            self.first_digests, checks.digests(self.workdir / "rerun"))

    def accuracy(self) -> float:
        return mean_or_zero(self.scores)


class Screening(Workload):
    """ne39 single-line contingencies; a job builds the scenario networks
    and simulates the fault.  A round is every contingency once, in an
    order drawn from the seed."""

    def __init__(self, dse, probe, workdir, seed: int):
        super().__init__(dse, probe, workdir)
        spec = json.loads((HERE / "contingencies.json").read_text())
        self.scenarios = [
            dse.FaultScenario(fault_bus=bus, t_fault=spec["t_fault"],
                              clearing_cycles=spec["clearing_cycles"],
                              cleared_line=(a, b), t_end=spec["t_end"],
                              dt=spec["dt"])
            for bus, a, b in spec["contingencies"]]
        self.case_name = spec["case"]
        self.scores: dict = {}
        self.rng = random.Random(seed)

    def shuffled(self) -> list:
        order = list(self.scenarios)
        self.rng.shuffle(order)
        return order

    def job(self, scenario):
        nets = self.dse.dynamics.scenario_networks(self.case, self.pf, scenario)
        return nets, self.dse.dynamics.simulate(self.case, self.pf, scenario)

    def warm_up(self) -> None:
        self.probe.run_job("setup", self.set_up)

    def set_up(self) -> None:
        self.case = self.dse.cases.load_case(self.case_name)
        self.pf = self.dse.powerflow.solve_power_flow(self.case)
        self.order = self.shuffled()
        self.warm = self.job(self.order[0])

    def check_warm_up(self) -> None:
        self.load_references(self.case, self.pf, self.scenarios,
                             self.warm[1].times)
        self.problems += checks.check_power_flow(self.grid)
        self.check(self.order[0], *self.warm)

    def round(self, index: int) -> None:
        order = self.order if index == 0 else self.shuffled()
        for scenario in order:
            result = self.timed(self.job, scenario)
            if result is not None:
                self.check(scenario, *result)

    def check(self, scenario, nets, truth) -> None:
        reference = self.references[scenario]
        problems = checks.check_networks(self.grid, scenario, nets)
        problems += checks.check_truth(truth, reference, scenario,
                                       self.case.frequency)
        self.problems += problems
        if not problems:
            mask = truth.times >= scenario.t_clear(self.case.frequency)
            nm = len(self.case.machines)
            self.scores[scenario] = float(checks.post_rmse(
                reference[:, :nm], truth.delta_matrix(), mask).max())

    def accuracy(self) -> float:
        """Worst machine per contingency, averaged in list order."""
        return mean_or_zero([self.scores[s] for s in self.scenarios
                             if s in self.scores])


WRITERS = ("harness.write_truth", "harness.write_measurements",
           "harness.write_estimates")


def layer_metrics(work: Workload) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the timed jobs' spans.

    A time is the median over jobs of the job's summed self time in that
    layer, at the reference host speed as ``job_s``; a count is per job and
    the same in every job.  A layer the jobs never call reads from the
    set-up spans (screening loads its case there; taken as they are), or
    else 0.
    """
    spans = work.probe.self_times()
    jobs = [(spans[j], work.clock.scale(j)) for j in work.ok_jobs]

    def rows(name: str) -> list:
        found = [(job[name][0] * scale, job[name][1])
                 for job, scale in jobs if name in job]
        if not found and name in spans["setup"]:
            found = [tuple(spans["setup"][name])]
        return found

    def median(values) -> float:
        values = list(values)
        return statistics.median(values) if values else 0.0

    def seconds(name: str) -> float:
        return median(s for s, _ in rows(name))

    def count(name: str) -> int:
        return max((c for _, c in rows(name)), default=0)

    def micros_per(name: str) -> float:
        return median(1e6 * s / c for s, c in rows(name) if c)

    writes = [(scale * sum(job[w][0] for w in WRITERS if w in job),
               sum(job[w][1] for w in WRITERS if w in job)) for job, scale in jobs]
    # What run_experiment spends beyond its traced stages.
    own = [job["job"][0] * scale for job, scale in jobs] if isinstance(work, Preset) else []
    return {
        "cases.load_case_s": (seconds("cases.load_case"), "s"),
        "powerflow.solve_power_flow_s": (seconds("powerflow.solve_power_flow"), "s"),
        "powerflow.iterations": (count("powerflow.solve_power_flow"), "count"),
        "reduction.scenario_networks_s": (seconds("reduction.scenario_networks"), "s"),
        "reduction.machine_init_s": (seconds("reduction.machine_init"), "s"),
        "dynamics.simulate_s": (seconds("dynamics.simulate"), "s"),
        "dynamics.simulate_us_per_interval": (micros_per("dynamics.simulate"), "us"),
        "dynamics.sample_intervals": (count("dynamics.simulate"), "count"),
        "measurement.synthesize_s": (seconds("measurement.synthesize"), "s"),
        "measurement.values": (count("measurement.synthesize"), "count"),
        "filters.ekf_s": (seconds("filters.ekf"), "s"),
        "filters.ukf_s": (seconds("filters.ukf"), "s"),
        "filters.ekf_us_per_frame": (micros_per("filters.ekf"), "us"),
        "filters.ukf_us_per_frame": (micros_per("filters.ukf"), "us"),
        "filters.frames": (count("filters.ekf"), "count"),
        "filters.ekf_post_rmse_delta_rad": (mean_or_zero(work.filter_accuracy["ekf"]), "rad"),
        "filters.ukf_post_rmse_delta_rad": (mean_or_zero(work.filter_accuracy["ukf"]), "rad"),
        "harness.write_truth_s": (seconds("harness.write_truth"), "s"),
        "harness.write_measurements_s": (seconds("harness.write_measurements"), "s"),
        "harness.write_estimates_s": (seconds("harness.write_estimates"), "s"),
        "harness.artifact_bytes": (max((b for _, b in writes), default=0), "bytes"),
        "harness.write_mb_per_s": (median(b / s / 1e6 for s, b in writes if s), "MB/s"),
        "harness.unattributed_s": (median(own), "s"),
    }


def mean_or_zero(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    dse = import_program()
    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    probe = Probe(dse, trace=bool(args.trace))
    try:
        if args.workload == "ne39-screening":
            work = Screening(dse, probe, workdir, args.seed)
        else:
            work = Preset(dse, probe, workdir, args.workload, args.seed)
        work.warm_up()
        setup_s = time.perf_counter() - _START
        work.clock = hostspeed.Clock()
        work.check_warm_up()

        loop_start = time.perf_counter()
        rounds = 0
        while (rounds < work.min_rounds
               or time.perf_counter() - loop_start < args.seconds):
            work.round(rounds)
            rounds += 1
        work.clock.calibrate()
        work.finish()
    finally:
        probe.restore()
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        probe.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = layer_metrics(work)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "job_s": (statistics.median(work.job_seconds[k] * work.clock.scale(k)
                                        for k in work.ok_jobs), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "post_rmse_delta_rad": (work.accuracy(), "rad"),
        }
    for problem in work.problems[:20]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not work.problems,
        "attempted": len(work.job_seconds),
        "failed": work.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
