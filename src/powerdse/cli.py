"""Command line entry points for experiments, power flow, simulation, reduction."""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from .cases import load_case, total_load
from .dynamics import FaultScenario, _joined_rows
from .dynamics import simulate as run_simulation
from .harness import (
    PRESETS,
    ExperimentError,
    _write_rows,
    format_report,
    load_experiment_config,
    preset,
    run_experiment,
    write_trajectory_csv,
)
from .powerflow import solve_power_flow
from .reduction import extend_network, kron_reduce


@click.group()
def main():
    """Transient simulation and rotor-state estimation for multi-machine grids."""


@main.command()
@click.argument("config")
@click.option("--seed", type=int, default=None, help="Override the seed.")
@click.option("--out", default=None, help="Override the output directory.")
@click.option("--repeat", type=click.IntRange(min=1), default=1,
              show_default=True,
              help="Run N noise seeds, seed .. seed+N-1, into <out>/seed<k>.")
def run(config: str, seed: int | None, out: str | None, repeat: int):
    """Run an experiment from a preset name or a YAML config file.

    Known presets: wecc9-fault8, ne39-fault4.  With --repeat, the mean and
    std over the seeds of each machine's post-clearing angle RMSE follow.
    """
    try:
        cfg = preset(config) if config in PRESETS else load_experiment_config(config)
        if seed is not None:
            cfg = replace(cfg, seed=seed)
    except Exception as exc:
        raise click.ClickException(str(exc)) from exc
    if out is not None:
        cfg = replace(cfg, out_dir=out)
    runs = [cfg] if repeat == 1 else [
        replace(cfg, seed=k, out_dir=f"{cfg.out_dir}/seed{k}")
        for k in range(cfg.seed, cfg.seed + repeat)]
    metrics = []
    for run_cfg in runs:
        try:
            report = run_experiment(run_cfg)
        except ExperimentError as exc:
            raise click.ClickException(str(exc)) from exc
        click.echo(format_report(report), nl=False)
        click.echo(f"wall time: {report.wall_seconds:.2f}s")
        click.echo(f"outputs written to {report.out_dir}")
        metrics.append(report.metrics)
    if repeat > 1:
        click.echo(f"post-clearing angle rmse (rad) over {repeat} seeds "
                   f"({cfg.seed}..{cfg.seed + repeat - 1}):")
        for kind in metrics[0]:
            rows = np.array([m[kind].post_rmse_delta for m in metrics])
            click.echo(f"  {kind} mean: " + " ".join(
                f"{v:.6e}" for v in rows.mean(axis=0)))
            click.echo(f"  {kind} std:  " + " ".join(
                f"{v:.6e}" for v in rows.std(axis=0)))


@main.command()
@click.argument("case_ref")
@click.option("--tol", type=float, default=1e-8, show_default=True,
              help="Convergence threshold on the largest mismatch entry.")
@click.option("--max-iter", type=click.IntRange(min=1), default=20,
              show_default=True)
@click.option("--out", default=None, help="Also write the solution as CSV.")
def powerflow(case_ref: str, tol: float, max_iter: int, out: str | None):
    """Solve the steady-state power flow of a case (bundled name or path)."""
    try:
        case = load_case(case_ref)
        sol = solve_power_flow(case, tol=tol, max_iter=max_iter)
    except Exception as exc:
        raise click.ClickException(str(exc)) from exc

    click.echo(f"converged in {sol.iterations} iterations "
               f"(max mismatch {sol.max_mismatch:.3e})")
    click.echo(f"{'bus':>4} {'kind':>5} {'v_mag':>8} {'v_ang_deg':>10} "
               f"{'p_inj':>9} {'q_inj':>9}")
    for pos, bus in enumerate(case.buses):
        click.echo(f"{bus.id:>4} {bus.kind.value:>5} {sol.v_mag[pos]:8.4f} "
                   f"{math.degrees(sol.v_ang[pos]):10.4f} "
                   f"{sol.p_inj[pos]:9.4f} {sol.q_inj[pos]:9.4f}")
    mw, mvar = total_load(case)
    click.echo(f"total load: {mw:g} MW, {mvar:g} MVar")

    if out is not None:
        values = _joined_rows(np.column_stack(
            [sol.v_mag, sol.v_ang, sol.p_inj, sol.q_inj]))
        _write_rows(Path(out), ["bus", "kind", "v_mag", "v_ang", "p_inj",
                                "q_inj"],
                    (f"{bus.id},{bus.kind.value},{cells}"
                     for bus, cells in zip(case.buses, values)))
        click.echo(f"solution written to {out}")


@main.command()
@click.argument("case_ref")
@click.option("--fault-bus", type=int, required=True)
@click.option("--t-fault", type=float, default=FaultScenario.t_fault,
              show_default=True)
@click.option("--cycles", type=float, default=FaultScenario.clearing_cycles,
              show_default=True,
              help="Fault duration in cycles before the line opens.")
@click.option("--clear-line", nargs=2, type=int, required=True,
              help="End buses of the line opened to clear the fault.")
@click.option("--t-end", type=float, default=FaultScenario.t_end,
              show_default=True)
@click.option("--dt", type=float, default=FaultScenario.dt,
              show_default=True)
@click.option("--out", default=None, help="Write the trajectory CSV here.")
def simulate(case_ref: str, fault_bus: int, t_fault: float, cycles: float,
             clear_line: tuple[int, int], t_end: float, dt: float,
             out: str | None):
    """Simulate a fault scenario and report the rotor swing."""
    scenario = FaultScenario(fault_bus=fault_bus, t_fault=t_fault,
                             clearing_cycles=cycles,
                             cleared_line=(clear_line[0], clear_line[1]),
                             t_end=t_end, dt=dt)
    try:
        case = load_case(case_ref)
        pf = solve_power_flow(case)
        traj = run_simulation(case, pf, scenario)
    except Exception as exc:
        raise click.ClickException(str(exc)) from exc

    delta, omega = traj.delta_matrix(), traj.omega_matrix()
    click.echo(f"simulated {len(traj)} samples over {t_end:g}s")
    for i in range(delta.shape[1]):
        click.echo(f"machine {i + 1}: angle [{delta[:, i].min():+.4f}, "
                   f"{delta[:, i].max():+.4f}] rad, "
                   f"speed [{omega[:, i].min():.6f}, {omega[:, i].max():.6f}] pu")
    if out is not None:
        write_trajectory_csv(traj, Path(out))
        click.echo(f"trajectory written to {out}")


@main.command()
@click.argument("case_ref")
@click.option("--out-dir", default=None,
              help="Write the reduced admittance and the voltage "
                   "reconstruction map as CSVs.")
def reduce(case_ref: str, out_dir: str | None):
    """Reduce a case to its machine internal nodes."""
    try:
        case = load_case(case_ref)
        pf = solve_power_flow(case)
        net = kron_reduce(extend_network(case, pf))
    except Exception as exc:
        raise click.ClickException(str(exc)) from exc

    nm = net.n_machines
    y_mag, y_ang = np.abs(net.y_red), np.angle(net.y_red)
    click.echo(f"reduced {len(case.buses)} buses to {nm} machine nodes")
    click.echo("admittance magnitude (row per machine):")
    for i in range(nm):
        click.echo("  " + " ".join(f"{y_mag[i, j]:9.4f}" for j in range(nm)))

    if out_dir is not None:
        target = Path(out_dir)
        target.mkdir(parents=True, exist_ok=True)
        admittance = _joined_rows(np.column_stack(
            [net.y_red.real.ravel(), net.y_red.imag.ravel(), y_mag.ravel(),
             y_ang.ravel()]))
        _write_rows(target / "reduced_admittance.csv",
                    ["machine_i", "machine_j", "real", "imag", "magnitude",
                     "angle"],
                    (f"{i // nm + 1},{i % nm + 1},{cells}"
                     for i, cells in enumerate(admittance)))
        recon = _joined_rows(np.column_stack(
            [net.r_v.real.ravel(), net.r_v.imag.ravel()]))
        _write_rows(target / "voltage_reconstruction.csv",
                    ["bus", "machine", "real", "imag"],
                    (f"{net.bus_order[i // nm]},{i % nm + 1},{cells}"
                     for i, cells in enumerate(recon)))
        click.echo(f"matrices written to {target}")


if __name__ == "__main__":
    main()
