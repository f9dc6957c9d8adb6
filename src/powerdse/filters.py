"""Gaussian state estimators: an extended and an unscented Kalman filter.

Both filters are generic over a process model and a measurement model, each
a map on flat state vectors and its linearization, so the same code runs the
rotor estimation problem and ordinary linear-Gaussian systems.  Swing-specific
bindings build those models from machine parameters and a reduced network.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import numpy as np

from .cases import NetworkCase
from .dynamics import (
    FaultScenario,
    Trajectory,
    euler_step,
    scenario_networks,
)
from .measurement import (
    MeasurementFrame,
    channel_names,
    machine_outputs,
    machine_outputs_linearized,
    measurement_indices,
)
from .powerflow import PowerFlowSolution
from .reduction import (
    MachineParams,
    ReducedNetwork,
    complex_power,
    electrical_power,
    machine_init,
    power_sensitivity,
)

FILTER_KINDS = ("ekf", "ukf")
# Added once to the diagonal of a covariance whose square root fails.
_JITTER = 1e-9


class FilterNumericsError(RuntimeError):
    """A covariance factorization or solve broke down, or a frame is unusable."""


@dataclass(frozen=True)
class GaussianBelief:
    """State estimate with covariance."""

    x_hat: np.ndarray
    p: np.ndarray


@dataclass(frozen=True)
class ProcessModel:
    """One-step state transition: ``step`` maps one state (n,) or a (k, n)
    stack of them to the next; ``linearize`` gives ``step(x)`` and its
    derivative at one state x."""

    step: Callable[[np.ndarray], np.ndarray]
    linearize: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class MeasurementModel:
    """Observation map: ``observe`` maps one state (n,) or a (k, n) stack of
    them to the predicted measurements; ``linearize`` gives ``observe(x)``
    and its derivative at one state x."""

    observe: Callable[[np.ndarray], np.ndarray]
    linearize: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class FilterConfig:
    """Which filter to run, one of ``FILTER_KINDS``, and its covariances.

    ``q`` and ``r`` are the process and measurement covariances; ``r`` spans
    the intact measurement layout and is subset per frame.
    """

    kind: str
    q: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise ValueError(f"unknown filter kind {self.kind!r}")


def _symmetrize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def init_belief(x0: np.ndarray, p0: np.ndarray) -> GaussianBelief:
    """Validated initial belief: x0 and p0 must be finite, p0 symmetric
    positive semidefinite."""
    x0 = np.asarray(x0, dtype=float).copy()
    p0 = np.asarray(p0, dtype=float).copy()
    if x0.ndim != 1 or p0.shape != (x0.size, x0.size):
        raise ValueError(f"shape mismatch: state {x0.shape}, covariance {p0.shape}")
    for name, value in (("mean x0", x0), ("covariance p0", p0)):
        bad = value.size - np.count_nonzero(np.isfinite(value))
        if bad:
            raise ValueError(f"initial {name} is not finite "
                             f"({bad} of {value.size} entries)")
    if np.max(np.abs(p0 - p0.T)) > 1e-9:
        raise ValueError("initial covariance is not symmetric")
    eigs = np.linalg.eigvalsh(_symmetrize(p0))
    if eigs.min() < -1e-10:
        raise ValueError(f"initial covariance has negative eigenvalue {eigs.min():.3e}")
    return GaussianBelief(x_hat=x0, p=_symmetrize(p0))


# --- extended filter ---------------------------------------------------------


def ekf_predict(belief: GaussianBelief, model: ProcessModel,
                q: np.ndarray) -> GaussianBelief:
    """Propagate the belief through the process model and inflate by q."""
    x, jac = model.linearize(belief.x_hat)
    p = jac.dot(belief.p).dot(jac.T) + q
    return GaussianBelief(x_hat=x, p=_symmetrize(p))


def ekf_update(belief: GaussianBelief, z: np.ndarray, model: MeasurementModel,
               r: np.ndarray) -> GaussianBelief:
    """Condition the belief on one measurement via the linearized gain."""
    z_hat, jac = model.linearize(belief.x_hat)
    jp = jac.dot(belief.p)
    s = jp.dot(jac.T) + r
    try:
        gain = np.linalg.solve(s, jp).T
    except np.linalg.LinAlgError as exc:
        raise FilterNumericsError(
            f"singular innovation covariance (cond {np.linalg.cond(s):.3e})") from exc
    x = belief.x_hat + gain.dot(z - z_hat)
    p = belief.p - gain.dot(jp)
    return GaussianBelief(x_hat=x, p=_symmetrize(p))


# --- unscented filter --------------------------------------------------------


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Lower-triangular factor of a nominally PSD matrix, with one retry."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        pass
    try:
        return np.linalg.cholesky(mat + _JITTER * np.eye(mat.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise FilterNumericsError(
            "covariance is not positive semidefinite within jitter") from exc


def sigma_points(belief: GaussianBelief) -> np.ndarray:
    """Symmetric equal-weight point set: 2n points at x +- the columns of a
    factor of n P, each carrying weight 1/(2n).  No point sits at the mean."""
    n = belief.x_hat.size
    root = _psd_sqrt(n * belief.p)
    return np.concatenate([belief.x_hat + root.T, belief.x_hat - root.T])


def ukf_predict(belief: GaussianBelief, model: ProcessModel,
                q: np.ndarray) -> GaussianBelief:
    """Propagate sigma points through the process model and inflate by q."""
    pts = sigma_points(belief)
    w = np.full(len(pts), 1.0 / len(pts))
    prop = model.step(pts)
    x = w.dot(prop)
    dev = prop - x
    p = (dev * w[:, None]).T.dot(dev) + q
    return GaussianBelief(x_hat=x, p=_symmetrize(p))


def ukf_update(belief: GaussianBelief, z: np.ndarray, model: MeasurementModel,
               r: np.ndarray) -> GaussianBelief:
    """Condition the predicted belief on a measurement via fresh sigma points."""
    pts = sigma_points(belief)
    w = np.full(len(pts), 1.0 / len(pts))
    obs = model.observe(pts)
    z_hat = w.dot(obs)
    dz = obs - z_hat
    dx = pts - belief.x_hat
    wdz = dz * w[:, None]
    p_zz = wdz.T.dot(dz) + r
    p_xz = dx.T.dot(wdz)
    try:
        gain = np.linalg.solve(p_zz, p_xz.T).T
    except np.linalg.LinAlgError as exc:
        raise FilterNumericsError(
            f"singular innovation covariance (cond {np.linalg.cond(p_zz):.3e})") from exc
    x = belief.x_hat + gain.dot(z - z_hat)
    p = belief.p - p_xz.dot(gain.T)   # K P_zz K^T with K = P_xz P_zz^-1
    return GaussianBelief(x_hat=x, p=_symmetrize(p))


# --- swing-model bindings ----------------------------------------------------


def swing_process_model(params: MachineParams, net: ReducedNetwork,
                        dt: float) -> ProcessModel:
    """Forward-Euler rotor transition bound to one network topology.

    ``step`` takes one state vector or a (k, 2n) stack of them.  In
    ``linearize`` one ``complex_power`` evaluation gives the electrical power
    of the step and, through ``power_sensitivity``, its part of the Jacobian.
    """
    nm = params.n_machines

    def step(vec: np.ndarray) -> np.ndarray:
        delta = vec[..., :nm]
        p_e = electrical_power(delta, params.e_mag, net)
        return np.concatenate(euler_step(delta, vec[..., nm:], p_e, params, dt),
                              axis=-1)

    # The state-independent part of the Jacobian, and the row scaling that
    # carries the power sensitivity into the speed rows.
    base = np.zeros((2 * nm, 2 * nm))
    base[:nm, :nm] = np.eye(nm)
    base[:nm, nm:] = dt * params.omega0 * np.eye(nm)
    base[nm:, nm:] = np.diag(1.0 - dt * params.d / (2.0 * params.h))
    coupling = (-dt / (2.0 * params.h))[:, None]

    def linearize(vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        delta = vec[:nm]
        _, emf, power = complex_power(delta, params.e_mag, net)
        jac = base.copy()
        jac[nm:, :nm] = coupling * power_sensitivity(emf, power, net).real
        return np.concatenate(
            euler_step(delta, vec[nm:], power.real, params, dt)), jac

    return ProcessModel(step=step, linearize=linearize)


def swing_measurement_model(params: MachineParams,
                            net: ReducedNetwork) -> MeasurementModel:
    """Power-and-voltage observation map bound to one network topology.

    Voltage angles use the continuous convention of ``machine_outputs``,
    which ``synthesize`` builds the frames from, so a prediction and its
    frame differ by the noise alone.  ``observe`` takes one state vector or
    a (k, 2n) stack of them and is ``machine_outputs``.  ``linearize`` takes
    the Jacobian from the same emfs, powers and voltages as the prediction,
    and raises ValueError where a reconstructed bus voltage is zero.
    """
    nm = params.n_machines

    def observe(vec: np.ndarray) -> np.ndarray:
        return np.concatenate(
            machine_outputs(vec[..., :nm], params.e_mag, net), axis=-1)

    speed_cols = np.zeros((2 * nm + 2 * len(net.bus_order), nm))

    def linearize(vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z, angle_cols = machine_outputs_linearized(vec[:nm], params.e_mag, net)
        return z, np.concatenate([angle_cols, speed_cols], axis=1)

    return MeasurementModel(observe=observe, linearize=linearize)


# --- full scenario run -------------------------------------------------------


def _check_frames(frames: list[MeasurementFrame], times: np.ndarray,
                  flat: np.ndarray, ends: list[int], n_machines: int,
                  dt: float) -> None:
    """Raise FilterNumericsError naming the first frame, its time and its
    channel (the column name of ``measurements.csv``) that is not finite,
    else the first frame k stamped off k * dt by more than 1e-9 relative.
    Frame k's vector is ``flat[ends[k - 1]:ends[k]]``."""
    if np.isfinite(times).all() and np.isfinite(flat).all():
        grid = np.arange(times.size) * dt
        off = np.flatnonzero(np.abs(times - grid) > 1e-9 * np.maximum(grid, dt))
        if off.size:
            k = int(off[0])
            raise FilterNumericsError(
                f"frame {k} (t={times[k]:.4f}s): stamp is off the sample "
                f"grid, {k} * dt = {grid[k]:g}s")
        return
    for k, (fr, start, stop) in enumerate(zip(frames, [0, *ends], ends)):
        bad = np.flatnonzero(~np.isfinite(np.concatenate([[fr.t],
                                                          flat[start:stop]])))
        if bad.size:
            name = channel_names(n_machines, fr.bus_ids)[bad[0]]
            raise FilterNumericsError(
                f"frame {k} (t={fr.t:.4f}s): measurement {name} "
                "is not finite")


def run_filter(cfg: FilterConfig, case: NetworkCase, pf: PowerFlowSolution,
               scenario: FaultScenario, frames: list[MeasurementFrame],
               b0: GaussianBelief) -> tuple[Trajectory, list[GaussianBelief]]:
    """Run the configured filter over a scenario's measurement frames.

    The first frame seeds nothing: the estimate at its time is ``b0``.  Each
    later frame triggers one predict with the topology in force at the start
    of the interval, then one update with the topology at the frame time.
    Frame k must be stamped k * ``scenario.dt``, so the process models are
    one per regime.  Every frame is checked before the first step: a
    non-finite value or an off-grid stamp raises FilterNumericsError naming
    the frame and its time.  Returns the estimate trajectory and the belief
    after every frame.
    """
    nets = scenario_networks(case, pf, scenario)
    params = machine_init(case, pf, nets.pre)
    nm = params.n_machines
    all_bus_ids = tuple(b.id for b in case.buses)

    stamps = np.array([fr.t for fr in frames])
    # every frame's vector as one array, frame k's ending at ends[k]
    arrays = [a for fr in frames for a in (fr.p_g, fr.q_g, fr.v_mag, fr.v_ang)]
    flat = np.concatenate(arrays)
    ends = list(accumulate(map(len, arrays)))[3::4]
    _check_frames(frames, stamps, flat, ends, nm, scenario.dt)
    regimes = scenario.regimes(stamps, case.frequency)

    # The plan: per frame, the process model of the regime at the start of
    # the interval before it, the measurement model of the regime at the
    # frame and the covariance block of its layout, and its vector.
    processes: dict = {}
    observers: dict = {}
    r_blocks: dict = {}
    plan = []
    for k in range(1, len(frames)):
        before, regime = regimes[k - 1], regimes[k]
        if before not in processes:
            processes[before] = swing_process_model(
                params, nets.for_regime(before), scenario.dt)
        if regime not in observers:
            observers[regime] = swing_measurement_model(
                params, nets.for_regime(regime))
        layout = frames[k].bus_ids
        if layout not in r_blocks:
            idx = measurement_indices(all_bus_ids, layout, nm)
            r_blocks[layout] = cfg.r[np.ix_(idx, idx)]
        plan.append((processes[before], observers[regime], r_blocks[layout],
                     flat[ends[k - 1]:ends[k]]))

    if cfg.kind == "ekf":
        def advance(belief, process, measure, r, z):
            return ekf_update(ekf_predict(belief, process, cfg.q), z, measure, r)
    else:
        def advance(belief, process, measure, r, z):
            return ukf_update(ukf_predict(belief, process, cfg.q), z,
                              measure, r)

    belief = b0
    beliefs = [belief]
    for k, step in enumerate(plan, start=1):
        try:
            belief = advance(belief, *step)
        except FilterNumericsError as exc:
            raise FilterNumericsError(
                f"frame {k} (t={stamps[k]:.4f}s): {exc}") from exc
        beliefs.append(belief)

    x = np.array([b.x_hat for b in beliefs])
    return Trajectory(times=stamps, states=x, regime=regimes), beliefs
