"""End-to-end experiments: case -> power flow -> truth -> measurements -> estimates.

An experiment is described by an ExperimentConfig (buildable from a YAML
mapping), runs every configured filter over one fault scenario, writes CSVs
plus a text report into the output directory, and returns the error metrics.
All outputs are deterministic for a fixed seed; wall-clock time is reported
in memory only, never written to disk.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

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
    measurement_indices,
    measurement_variances,
    process_variances,
    synthesize,
)
from .powerflow import solve_power_flow
from .reduction import machine_init


class ExperimentError(RuntimeError):
    """Failure in one pipeline stage, tagged with the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment.

    ``case`` is a file path or a bundled case name.  ``seed`` overrides the
    noise seed when set.  The prior belief is the equilibrium with
    ``prior_angle_shift`` added to the first machine's angle and covariance
    ``prior_cov`` times the identity.
    """

    case: str
    scenario: FaultScenario
    noise: NoiseSpec = NoiseSpec()
    filters: tuple[str, ...] = ("ekf", "ukf")
    out_dir: str = "out"
    seed: int | None = None
    prior_angle_shift: float = 0.05
    prior_cov: float = 1e-2


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


def _rms_by_machine(d_err: np.ndarray, o_err: np.ndarray) -> dict[str, np.ndarray]:
    return {
        "delta": np.sqrt(np.mean(d_err ** 2, axis=0)),
        "omega": np.sqrt(np.mean(o_err ** 2, axis=0)),
    }


def _metrics(truth: Trajectory, x_hat: np.ndarray,
             t_clear: float) -> FilterMetrics:
    """Errors of the stacked estimates ``x_hat`` (samples, angles then
    speeds) against the truth on the same samples."""
    delta = truth.delta_matrix()
    nm = delta.shape[1]
    d_err = delta - x_hat[:, :nm]
    o_err = truth.omega_matrix() - x_hat[:, nm:]
    mask = truth.times >= t_clear
    full = _rms_by_machine(d_err, o_err)
    post = _rms_by_machine(d_err[mask], o_err[mask])
    return FilterMetrics(
        rmse_delta=full["delta"], rmse_omega=full["omega"],
        post_rmse_delta=post["delta"], post_rmse_omega=post["omega"],
        post_max_delta=float(np.abs(d_err[mask]).max()),
        post_max_omega=float(np.abs(o_err[mask]).max()),
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

    An unknown or repeated filter kind fails before any stage runs, and a
    bad prior before any file is written, so neither leaves a file behind.
    """
    t0 = time.perf_counter()
    for i, kind in enumerate(cfg.filters):
        if kind not in FILTER_KINDS:
            raise ExperimentError(f"filter-{kind}",
                                  f"unknown filter kind {kind!r}")
        if kind in cfg.filters[:i]:
            raise ExperimentError(f"filter-{kind}",
                                  f"filter kind {kind!r} is repeated")
    noise = cfg.noise if cfg.seed is None else replace(cfg.noise, seed=cfg.seed)
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
    params = stage("reduction", machine_init, case, pf, nets.pre)
    truth = stage("simulate", simulate, case, pf, cfg.scenario)
    frames = stage("synthesize", synthesize, truth, nets, params, noise)

    nm = params.n_machines
    all_bus_ids = tuple(b.id for b in case.buses)
    t_clear = cfg.scenario.t_clear(case.frequency)
    prior = stage("prior", default_prior, params.delta0,
                  cfg.prior_angle_shift, cfg.prior_cov)
    # Floor at a tiny variance so all-zero noise settings stay invertible.
    q = np.diag(np.maximum(process_variances(noise, nm), 1e-12))
    r = np.diag(np.maximum(
        measurement_variances(noise, nm, len(all_bus_ids)), 1e-12))

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
        metrics[kind] = _metrics(truth, x_hat, t_clear)
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
        f"noise seed: {cfg.seed if cfg.seed is not None else cfg.noise.seed}",
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
        *traj.cells, (regime.value for regime in traj.regime))))


def write_measurements_csv(frames: list[MeasurementFrame],
                           all_bus_ids: tuple[int, ...], path: Path) -> None:
    """Columns: t, machine powers, then voltage magnitude/angle per bus id.

    Buses absent from a frame's layout leave their cells empty.
    """
    nm = frames[0].p_g.size
    header = channel_names(nm, all_bus_ids)
    # Per layout: a row template with a blank for every absent bus, and the
    # order that puts the frame vector in column order.
    layouts: dict[tuple[int, ...], tuple[str, np.ndarray]] = {}

    def rows():
        for fr in frames:
            if fr.bus_ids not in layouts:
                cols = measurement_indices(all_bus_ids, fr.bus_ids, nm)
                cells = np.full(len(header), "", dtype=object)
                cells[0] = cells[1 + cols] = "%r"
                layouts[fr.bus_ids] = (",".join(cells), np.argsort(cols))
            template, take = layouts[fr.bus_ids]
            yield template % (float(fr.t), *fr.z_vector()[take].tolist())

    _write_rows(path, header, rows())


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
    _write_rows(path, header, map(",".join, zip(
        times, delta, _joined_rows(x_hat[:, :nm]), omega,
        _joined_rows(np.column_stack([x_hat[:, nm:], p_diag])))))


def _whole(key: str, value) -> int:
    """``value`` as an int; a fractional number is an error, not truncated."""
    if isinstance(value, int):
        return int(value)
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not number.is_integer():
        raise ValueError(f"config key {key!r} must be a whole number, "
                         f"got {value!r}")
    return int(number)


def _known(cls, section: str, data: dict) -> dict:
    """``data`` as a dict, after rejecting keys that are not fields of
    ``cls``."""
    data = dict(data)
    extra = set(data) - {f.name for f in fields(cls)}
    if extra:
        raise ValueError(f"unknown {section} keys: {sorted(extra)}")
    return data


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from a parsed YAML mapping, rejecting unknown keys.

    Each key given is coerced to its field's type; a key left out takes the
    default of its dataclass field.
    """
    _known(ExperimentConfig, "config", data)
    if "case" not in data or "scenario" not in data:
        raise ValueError("config needs at least 'case' and 'scenario'")
    filters = data.get("filters", ExperimentConfig.filters)
    if not isinstance(filters, (list, tuple)):
        raise ValueError(f"config key 'filters' must be a list, got {filters!r}")
    unknown = [kind for kind in filters if kind not in FILTER_KINDS]
    if unknown:
        raise ValueError(f"config key 'filters' names unknown filter kinds "
                         f"{unknown} (known: {', '.join(FILTER_KINDS)})")
    repeated = sorted({kind for i, kind in enumerate(filters)
                       if kind in filters[:i]})
    if repeated:
        raise ValueError(f"config key 'filters' names filter kinds more than "
                         f"once: {repeated}")

    scen = _known(FaultScenario, "scenario", data["scenario"])
    for key in ("cleared_line", "fault_bus"):
        if key not in scen:
            raise ValueError(f"config key 'scenario.{key}' is required")
    scen_types = {
        "fault_bus": lambda bus: _whole("scenario.fault_bus", bus),
        "cleared_line": lambda line: (_whole("scenario.cleared_line", line[0]),
                                      _whole("scenario.cleared_line", line[1])),
    }
    scenario = FaultScenario(**{
        f.name: scen_types.get(f.name, float)(scen[f.name])
        for f in fields(FaultScenario) if f.name in scen})

    noise = NoiseSpec(**{
        key: (_whole("noise.seed", v) if key == "seed" else float(v))
        for key, v in _known(NoiseSpec, "noise", data.get("noise", {})).items()
    })

    top_types = {
        "case": str, "filters": tuple, "out_dir": str,
        "seed": lambda seed: None if seed is None else _whole("seed", seed),
        "prior_angle_shift": float, "prior_cov": float,
    }
    return ExperimentConfig(scenario=scenario, noise=noise, **{
        key: to_type(data[key]) for key, to_type in top_types.items()
        if key in data})


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Parse a YAML experiment config file."""
    import yaml  # only config files need it; keeps it out of `import powerdse`

    data = yaml.safe_load(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a mapping at the top level")
    return config_from_dict(data)
