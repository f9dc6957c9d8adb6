"""End-to-end experiments: case -> power flow -> truth -> measurements -> estimates.

An experiment is described by an ExperimentConfig (buildable from a YAML
mapping), runs every configured filter over one fault scenario, writes CSVs
plus a text report into the output directory, and returns the error metrics.
All outputs are deterministic for a fixed seed; wall-clock time is reported
in memory only, never written to disk.
"""

from __future__ import annotations

import time
from dataclasses import MISSING, dataclass, fields, replace
from functools import partial
from numbers import Integral
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .cases import load_case
from .dynamics import (
    FaultScenario,
    Trajectory,
    _joined_rows,
    scenario_networks,
    simulate,
)
from .filters import (
    FILTER_KINDS,
    FilterConfig,
    GaussianBelief,
    init_belief,
    run_filter,
)
from .measurement import (
    MeasurementFrame,
    NoiseSpec,
    channel_names,
    check_frame_sizes,
    measurement_indices,
    measurement_variances,
    process_variances,
    synthesize,
)
from .powerflow import solve_power_flow


class ExperimentError(RuntimeError):
    """Failure in one pipeline stage, tagged with the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment.

    ``case`` is a file path or a bundled case name.  ``seed`` is the one
    seed of the noise draws, a whole number from 0; a negative seed, and an
    unknown or repeated filter kind, are rejected here.  The prior belief is
    the equilibrium with ``prior_angle_shift`` added to the first machine's
    angle and covariance ``prior_cov`` times the identity.
    """

    case: str
    scenario: FaultScenario
    noise: NoiseSpec = NoiseSpec()
    filters: tuple[str, ...] = ("ekf", "ukf")
    out_dir: str = "out"
    seed: int = 0
    prior_angle_shift: float = 0.05
    prior_cov: float = 1e-2

    def __post_init__(self):
        if (isinstance(self.seed, bool) or not isinstance(self.seed, Integral)
                or self.seed < 0):
            raise ValueError(f"config key 'seed' must be a whole number "
                             f">= 0, got {self.seed!r}")
        unknown = [kind for kind in self.filters if kind not in FILTER_KINDS]
        if unknown:
            raise ValueError(f"config key 'filters' names unknown filter "
                             f"kinds {unknown} (known: "
                             f"{', '.join(FILTER_KINDS)})")
        repeated = sorted({kind for i, kind in enumerate(self.filters)
                           if kind in self.filters[:i]})
        if repeated:
            raise ValueError(f"config key 'filters' names filter kinds more "
                             f"than once: {repeated}")


PRESETS: dict[str, ExperimentConfig] = {
    "wecc9-fault8": ExperimentConfig(
        case="wecc9",
        scenario=FaultScenario(fault_bus=8, t_fault=1.0, clearing_cycles=2.0,
                               cleared_line=(8, 9), t_end=10.0, dt=0.01),
        out_dir="out/wecc9-fault8",
    ),
    "ne39-fault4": ExperimentConfig(
        case="ne39",
        scenario=FaultScenario(fault_bus=4, t_fault=1.0, clearing_cycles=2.0,
                               cleared_line=(4, 14), t_end=10.0, dt=0.01),
        out_dir="out/ne39-fault4",
    ),
}


def preset(name: str) -> ExperimentConfig:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {name!r} (known: {known})") from None


@dataclass(frozen=True)
class FilterMetrics:
    """Per-machine estimation errors for one filter, full window and
    restricted to samples at or after the clearing instant."""

    rmse_delta: np.ndarray
    rmse_omega: np.ndarray
    post_rmse_delta: np.ndarray
    post_rmse_omega: np.ndarray
    post_max_delta: float
    post_max_omega: float


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    case_name: str
    n_samples: int
    metrics: dict[str, FilterMetrics]
    out_dir: Path
    wall_seconds: float
    """Wall-clock seconds spent in the whole of ``run_experiment``: case load,
    power flow, reduction, simulation, synthesis, every filter, and the
    writing of all artifacts, the CSV files and ``report.txt`` included.
    Acceptance criteria 6 and 7 bound this number."""
    stage_seconds: dict[str, float]
    """Wall-clock seconds summed per stage tag (``load-case``,
    ``power-flow``, ``reduction``, ``simulate``, ``synthesize``, ``prior``,
    ``filter-<kind>``, ``write``), the tags that name a failed stage; their
    sum is at most ``wall_seconds``."""
    pf_iterations: int
    """Newton iterations the power flow took to converge."""
    pf_max_mismatch: float
    """Largest power mismatch (pu) left at the converged power flow."""


def _metrics(truth: Trajectory, x_hat: np.ndarray,
             t_clear: float) -> FilterMetrics:
    """Errors of the stacked estimates ``x_hat`` (samples, angles then
    speeds) against the truth on the same samples."""
    nm = x_hat.shape[1] // 2
    err = truth.state_matrix() - x_hat
    post = err[truth.times >= t_clear]
    full_rms = np.sqrt(np.mean(err ** 2, axis=0))
    post_rms = np.sqrt(np.mean(post ** 2, axis=0))
    return FilterMetrics(
        rmse_delta=full_rms[:nm], rmse_omega=full_rms[nm:],
        post_rmse_delta=post_rms[:nm], post_rmse_omega=post_rms[nm:],
        post_max_delta=float(np.abs(post[:, :nm]).max()),
        post_max_omega=float(np.abs(post[:, nm:]).max()),
    )


def default_prior(init_delta: np.ndarray, angle_shift: float,
                  cov_scale: float) -> GaussianBelief:
    """Equilibrium-anchored prior with a deliberate first-machine angle offset."""
    x0 = np.concatenate([init_delta, np.ones_like(init_delta)])
    x0[0] += angle_shift
    return init_belief(x0, cov_scale * np.eye(x0.size))


def _stage(seconds: dict[str, float], name: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, its failure tagged ``name`` and its wall
    time added to ``seconds[name]``."""
    t0 = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    except ExperimentError:
        raise
    except Exception as exc:
        raise ExperimentError(name, str(exc)) from exc
    finally:
        seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - t0


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the full pipeline and write all artifacts under ``cfg.out_dir``.

    A bad prior fails before any file is written, so it leaves no file
    behind.
    """
    t0 = time.perf_counter()
    stage_seconds: dict[str, float] = {}
    stage = partial(_stage, stage_seconds)

    case = stage("load-case", load_case, cfg.case)
    clear_time = cfg.scenario.t_clear(case.frequency)
    if clear_time >= cfg.scenario.t_end:
        raise ExperimentError(
            "scenario",
            f"window ends at t={cfg.scenario.t_end:g}s but the fault clears "
            f"at t={clear_time:.4f}s; nothing to score after clearing")
    pf = stage("power-flow", solve_power_flow, case)
    nets = stage("reduction", scenario_networks, case, pf, cfg.scenario)
    truth = stage("simulate", simulate, case, pf, cfg.scenario)
    frames = stage("synthesize", synthesize, truth, nets, cfg.noise, cfg.seed)

    nm = nets.params.n_machines
    all_bus_ids = nets.pre.bus_order
    prior = stage("prior", default_prior, nets.params.delta0,
                  cfg.prior_angle_shift, cfg.prior_cov)
    # Floor at a tiny variance so all-zero noise settings stay invertible.
    q = np.diag(np.maximum(process_variances(cfg.noise, nm), 1e-12))
    r = np.diag(np.maximum(
        measurement_variances(cfg.noise, nm, len(all_bus_ids)), 1e-12))

    out_dir = Path(cfg.out_dir)
    stage("write", out_dir.mkdir, parents=True, exist_ok=True)
    stage("write", write_trajectory_csv, truth, out_dir / "truth.csv")
    stage("write", write_measurements_csv, frames, all_bus_ids,
          out_dir / "measurements.csv")

    metrics: dict[str, FilterMetrics] = {}
    for kind in cfg.filters:
        estimate, beliefs = stage(f"filter-{kind}", run_filter,
                                  FilterConfig(kind=kind, q=q, r=r), case,
                                  pf, cfg.scenario, frames, prior)
        x_hat = estimate.state_matrix()
        metrics[kind] = _metrics(truth, x_hat, clear_time)
        p_diag = np.array([b.p.diagonal() for b in beliefs])
        stage("write", write_estimates_csv, truth, x_hat, p_diag,
              out_dir / f"estimate_{kind}.csv")

    report = ExperimentReport(
        config=cfg, case_name=case.name, n_samples=len(truth),
        metrics=metrics, out_dir=out_dir, wall_seconds=0.0, stage_seconds={},
        pf_iterations=pf.iterations, pf_max_mismatch=pf.max_mismatch,
    )
    # report.txt holds no timing, so the clock stops once it is written.
    stage("write", (out_dir / "report.txt").write_text, format_report(report))
    return replace(report, wall_seconds=time.perf_counter() - t0,
                   stage_seconds=stage_seconds)


def format_report(report: ExperimentReport) -> str:
    """Human-readable metrics summary.  Contains no timing, so repeated runs
    with the same seed produce identical bytes."""
    cfg = report.config
    s = cfg.scenario
    lines = [
        f"case: {report.case_name}",
        f"scenario: fault at bus {s.fault_bus} at t={s.t_fault:g}s, "
        f"cleared after {s.clearing_cycles:g} cycles by opening line "
        f"{s.cleared_line[0]}-{s.cleared_line[1]}",
        f"window: {s.t_end:g}s at dt={s.dt:g}s ({report.n_samples} samples)",
        f"noise seed: {cfg.seed}",
        "",
    ]
    for kind, m in report.metrics.items():
        lines.append(f"filter {kind}:")
        lines.append("  full-window rmse, angle (rad):    "
                     + " ".join(f"{v:.6e}" for v in m.rmse_delta))
        lines.append("  full-window rmse, speed (pu):     "
                     + " ".join(f"{v:.6e}" for v in m.rmse_omega))
        lines.append("  post-clearing rmse, angle (rad):  "
                     + " ".join(f"{v:.6e}" for v in m.post_rmse_delta))
        lines.append("  post-clearing rmse, speed (pu):   "
                     + " ".join(f"{v:.6e}" for v in m.post_rmse_omega))
        lines.append(f"  post-clearing max abs error: "
                     f"angle {m.post_max_delta:.6e} rad, "
                     f"speed {m.post_max_omega:.6e} pu")
        lines.append("")
    return "\n".join(lines)


# The writers join cells themselves.  Their bytes equal those of csv.writer
# with its default dialect: no cell holds a comma, a quote or a line break
# (floats are written by repr, the labels are fixed), so none is quoted, and
# each row ends in csv.writer's "\r\n".


def _write_rows(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row + "\r\n" for row in rows)


def write_trajectory_csv(traj: Trajectory, path: Path) -> None:
    """Columns: t, per-machine angles, per-machine speeds, regime."""
    nm = traj.delta_matrix().shape[1]
    header = (["t"]
              + [f"delta_{i + 1}" for i in range(nm)]
              + [f"omega_{i + 1}" for i in range(nm)]
              + ["regime"])
    _write_rows(path, header, map(",".join, zip(
        *traj.cells, (regime.value for regime in traj.regime), strict=True)))


def write_measurements_csv(frames: list[MeasurementFrame],
                           all_bus_ids: tuple[int, ...], path: Path) -> None:
    """Columns: t, machine powers, then voltage magnitude/angle per bus id.

    Buses absent from a frame's layout leave their cells empty.  An empty
    frame list is an error: the frames give the machine count.  So are a
    malformed frame (``check_frame_sizes``) and a bus not in ``all_bus_ids``,
    raised as ValueError naming the frame before the file is opened.
    """
    if not frames:
        raise ValueError("write_measurements_csv needs at least one frame")
    nm = frames[0].p_g.size
    check_frame_sizes(frames, nm)
    header = channel_names(nm, all_bus_ids)
    # Per layout: a row template with a blank for every absent bus, and the
    # order that puts the frame vector in column order.
    layouts: dict[tuple[int, ...], tuple[str, np.ndarray]] = {}
    rows = []
    for k, fr in enumerate(frames):
        if fr.bus_ids not in layouts:
            unknown = [b for b in fr.bus_ids if b not in all_bus_ids]
            if unknown:
                raise ValueError(f"frame {k} (t={fr.t:.4f}s): buses {unknown}"
                                 f" are not among the buses {all_bus_ids}")
            cols = measurement_indices(all_bus_ids, fr.bus_ids, nm)
            cells = np.full(len(header), "", dtype=object)
            cells[0] = cells[1 + cols] = "%r"
            layouts[fr.bus_ids] = (",".join(cells), np.argsort(cols))
        template, take = layouts[fr.bus_ids]
        rows.append(template % (float(fr.t), *fr.z_vector()[take].tolist()))
    _write_rows(path, header, rows)


def write_estimates_csv(truth: Trajectory, x_hat: np.ndarray,
                        p_diag: np.ndarray, path: Path) -> None:
    """Columns: t, per-machine true and estimated angles, true and estimated
    speeds, then the belief covariance diagonal (angle block, speed block).

    ``x_hat`` and ``p_diag`` hold one row per truth sample: the estimate
    (angles then speeds) and its covariance diagonal.
    """
    nm = truth.delta_matrix().shape[1]
    header = (["t"]
              + [f"delta_true_{i + 1}" for i in range(nm)]
              + [f"delta_est_{i + 1}" for i in range(nm)]
              + [f"omega_true_{i + 1}" for i in range(nm)]
              + [f"omega_est_{i + 1}" for i in range(nm)]
              + [f"p_delta_{i + 1}" for i in range(nm)]
              + [f"p_omega_{i + 1}" for i in range(nm)])
    times, delta, omega = truth.cells
    if not len(times) == len(x_hat) == len(p_diag):
        raise ValueError(f"{len(times)} truth samples, but {len(x_hat)} estimate "
                         f"rows and {len(p_diag)} covariance rows")
    _write_rows(path, header, map(",".join, zip(
        times, delta, _joined_rows(x_hat[:, :nm]), omega,
        _joined_rows(np.column_stack([x_hat[:, nm:], p_diag])))))


def _number(key: str, value) -> float:
    """``value`` as a float; a value ``float`` cannot read is an error, and
    so is a boolean, which ``float`` would read as 0 or 1.  Text is read:
    PyYAML loads an unquoted ``1e-6`` (no dot in the mantissa) as a string."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"config key {key!r} must be a number, got {value!r}")


def _whole(key: str, value) -> int:
    """``value`` as an int, from an integer or a float without a fraction;
    a fractional number is an error, not truncated, and so are a boolean
    and text."""
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"config key {key!r} must be a whole number, "
                     f"got {value!r}")


def _text(key: str, value) -> str:
    """``value`` as a string; ``str`` would read a YAML null as 'None'."""
    if not isinstance(value, str):
        raise ValueError(f"config key {key!r} must be a string, got {value!r}")
    return value


def _line(key: str, value) -> tuple[int, int]:
    """``value`` as the two end buses of a line, neither more nor fewer."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"config key {key!r} must be a list of two whole "
                         f"numbers, got {value!r}")
    return _whole(key, value[0]), _whole(key, value[1])


def _kinds(key: str, value) -> tuple[str, ...]:
    """``value`` as filter kinds; a YAML scalar would split into letters."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"config key {key!r} must be a list, got {value!r}")
    return tuple(value)


def _section(cls, key: str, data):
    """The mapping ``data`` under the config key ``key`` ("" at the top
    level) read as a ``cls``: each value by its field's type, a field
    without a default required, and every error naming the key at fault."""
    if not isinstance(data, dict):
        where = f"config key {key!r}" if key else "config"
        raise ValueError(f"{where} must be a mapping, got {data!r}")
    extra = set(data) - {f.name for f in fields(cls)}
    if extra:
        raise ValueError(f"unknown {key or 'config'} keys: {sorted(extra)}")
    types = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        name = f"{key}.{f.name}" if key else f.name
        if f.name in data:
            values[f.name] = _READERS[types[f.name]](name, data[f.name])
        elif f.default is MISSING:
            raise ValueError(f"config key {name!r} is required")
    return cls(**values)


_READERS = {
    int: _whole, float: _number, str: _text,
    tuple[int, int]: _line, tuple[str, ...]: _kinds,
    FaultScenario: partial(_section, FaultScenario),
    NoiseSpec: partial(_section, NoiseSpec),
}


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from a parsed YAML mapping, rejecting unknown keys.

    Each key given is read as its field's type, and a value that cannot be
    is an error naming the key; a key left out takes the default of its
    dataclass field.
    """
    return _section(ExperimentConfig, "", data)


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Parse a YAML experiment config file."""
    import yaml  # only config files need it; keeps it out of `import powerdse`

    return config_from_dict(yaml.safe_load(Path(path).read_text()))
