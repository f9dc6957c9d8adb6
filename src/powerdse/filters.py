"""Gaussian state estimators: an extended and an unscented Kalman filter.

Both filters are generic over a process model and a measurement model, each
a map on flat state vectors and its linearization, so the same code runs the
rotor estimation problem and ordinary linear-Gaussian systems.  Swing-specific
bindings build those models from machine parameters and a reduced network.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from typing import Callable

import numpy as np
from numpy.linalg import _umath_linalg

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
    power_sensitivity,
)

FILTER_KINDS = ("ekf", "ukf")
# Added once to the diagonal of a covariance whose square root fails.
_JITTER = 1e-9
# The error state of every public frame function, entered once per call.
# The frames factorize and solve with the LAPACK gufuncs that np.linalg
# wraps, without its per-call checks and conversions; under this state a
# failed factorization or a singular solve raises FloatingPointError, as
# does any NaN that the frame's arithmetic makes from numbers.
_raise_invalid = np.errstate(invalid="raise")


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
    the intact measurement layout and is subset per frame.  The EKF updates
    in information form, so each block of ``r`` it uses must be invertible.
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


@_raise_invalid
def ekf_predict(belief: GaussianBelief, model: ProcessModel,
                q: np.ndarray) -> GaussianBelief:
    """Propagate the belief through the process model and inflate by q."""
    x, jac = model.linearize(belief.x_hat)
    p = jac.dot(belief.p).dot(jac.T) + q
    return GaussianBelief(x_hat=x, p=_symmetrize(p))


@_raise_invalid
def ekf_update(belief: GaussianBelief, z: np.ndarray, model: MeasurementModel,
               r_inv: np.ndarray) -> GaussianBelief:
    """Condition the belief on one measurement in information form.

    ``r_inv`` is the inverse of the measurement covariance R.  With H the
    measurement Jacobian, P+ = (I + P H^T R^-1 H)^-1 P and
    x+ = x + P+ H^T R^-1 (z - z_hat): an n x n solve for a state of n,
    whatever the number of measurements, and no subtraction from P.
    """
    z_hat, jac = model.linearize(belief.x_hat)
    rh = r_inv.dot(jac)
    info = belief.p.dot(jac.T.dot(rh))
    info.ravel()[::info.shape[0] + 1] += 1.0
    try:
        p = _umath_linalg.solve(info, belief.p)
    except FloatingPointError as exc:
        raise FilterNumericsError(
            f"singular information matrix (cond {np.linalg.cond(info):.3e})"
        ) from exc
    p = _symmetrize(p)
    x = belief.x_hat + p.dot(rh.T.dot(z - z_hat))
    return GaussianBelief(x_hat=x, p=p)


def _inverse(r: np.ndarray) -> np.ndarray:
    """Inverse of a finite measurement covariance block, or
    FilterNumericsError if it cannot be inverted."""
    try:
        r_inv = np.linalg.inv(r)
        if np.isfinite(r_inv).all():
            return r_inv
    except np.linalg.LinAlgError:
        pass
    raise FilterNumericsError("measurement covariance block is singular "
                              f"(cond {np.linalg.cond(r):.3e})")


# --- unscented filter --------------------------------------------------------


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Lower-triangular factor of a nominally PSD matrix, with one retry.
    Called under ``_raise_invalid``, where a failed factorization raises."""
    try:
        return _umath_linalg.cholesky_lo(mat)
    except FloatingPointError:
        pass
    try:
        return _umath_linalg.cholesky_lo(mat + _JITTER * np.eye(mat.shape[0]))
    except FloatingPointError as exc:
        raise FilterNumericsError(
            "covariance is not positive semidefinite within jitter") from exc


@cache
def _equal_weights(count: int) -> np.ndarray:
    """The weight 1/count of each of ``count`` sigma points, built once per
    count and read-only."""
    w = np.full(count, 1.0 / count)
    w.flags.writeable = False
    return w


@_raise_invalid
def sigma_points(belief: GaussianBelief) -> np.ndarray:
    """Symmetric equal-weight point set: 2n points at x +- the columns of a
    factor of n P, each carrying weight 1/(2n).  No point sits at the mean."""
    return _sigma_points(belief)


def _sigma_points(belief: GaussianBelief) -> np.ndarray:
    """``sigma_points`` without its error state, for the frame functions
    that are already in it."""
    n = belief.x_hat.size
    root = _psd_sqrt(n * belief.p)
    return np.concatenate([belief.x_hat + root.T, belief.x_hat - root.T])


@_raise_invalid
def ukf_predict(belief: GaussianBelief, model: ProcessModel,
                q: np.ndarray) -> GaussianBelief:
    """Propagate sigma points through the process model and inflate by q."""
    pts = _sigma_points(belief)
    w = _equal_weights(len(pts))
    prop = model.step(pts)
    x = w.dot(prop)
    dev = prop - x
    p = (dev * w[:, None]).T.dot(dev) + q
    return GaussianBelief(x_hat=x, p=_symmetrize(p))


@_raise_invalid
def ukf_update(belief: GaussianBelief, z: np.ndarray, model: MeasurementModel,
               r: np.ndarray) -> GaussianBelief:
    """Condition the predicted belief on a measurement via fresh sigma points."""
    pts = _sigma_points(belief)
    w = _equal_weights(len(pts))
    obs = model.observe(pts)
    z_hat = w.dot(obs)
    dz = obs - z_hat
    dx = pts - belief.x_hat
    wdz = dz * w[:, None]
    p_zz = wdz.T.dot(dz) + r
    p_xz = dx.T.dot(wdz)
    try:
        gain = _umath_linalg.solve(p_zz, p_xz.T).T
    except FloatingPointError as exc:
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


def _check_inputs(cfg: FilterConfig, b0: GaussianBelief, n_states: int,
                  n_channels: int) -> None:
    """Raise FilterNumericsError naming the first of q, R, the prior mean and
    the prior covariance whose shape is wrong or that is not finite."""
    for name, value, shape in (
            ("process covariance q", cfg.q, (n_states, n_states)),
            ("measurement covariance r", cfg.r, (n_channels, n_channels)),
            ("prior mean", b0.x_hat, (n_states,)),
            ("prior covariance", b0.p, (n_states, n_states))):
        value = np.asarray(value, dtype=float)
        if value.shape != shape:
            raise FilterNumericsError(
                f"{name} has shape {value.shape}, expected {shape}")
        bad = value.size - np.count_nonzero(np.isfinite(value))
        if bad:
            raise FilterNumericsError(
                f"{name} is not finite ({bad} of {value.size} entries)")


def run_filter(cfg: FilterConfig, case: NetworkCase, pf: PowerFlowSolution,
               scenario: FaultScenario, frames: list[MeasurementFrame],
               b0: GaussianBelief) -> tuple[Trajectory, list[GaussianBelief]]:
    """Run the configured filter over a scenario's measurement frames.

    The first frame seeds nothing: the estimate at its time is ``b0``.  Each
    later frame triggers one predict with the topology in force at the start
    of the interval, then one update with the topology at the frame time.
    Every input is checked once, before the first step, the same for both
    kinds: an empty frame list, a q, intact-layout ``cfg.r`` or ``b0`` of the
    wrong size or not finite, a frame not finite or not stamped k *
    ``scenario.dt``, and an R layout block the EKF cannot invert raise
    FilterNumericsError, the last two naming the first frame at fault and
    its time.  A step that breaks down, by a failed factorization or solve or
    by a NaN its arithmetic makes, raises FilterNumericsError naming its
    frame the same way.  Returns the estimate trajectory and the belief after
    every frame.
    """
    if not frames:
        raise FilterNumericsError("run_filter needs at least one frame")
    nets = scenario_networks(case, pf, scenario)
    params = nets.params
    nm = params.n_machines
    all_bus_ids = tuple(b.id for b in case.buses)
    _check_inputs(cfg, b0, 2 * nm, 2 * nm + 2 * len(all_bus_ids))

    stamps = np.array([fr.t for fr in frames])
    # every frame's vector as one array, frame k's ending at ends[k]
    arrays = [a for fr in frames for a in (fr.p_g, fr.q_g, fr.v_mag, fr.v_ang)]
    flat = np.concatenate(arrays)
    ends = list(accumulate(map(len, arrays)))[3::4]
    _check_frames(frames, stamps, flat, ends, nm, scenario.dt)
    regimes = scenario.regimes(stamps, case.frequency)

    # The EKF updates in information form, on the inverse of each R block;
    # the UKF conditions on the block itself.
    if cfg.kind == "ekf":
        predict, update, r_form = ekf_predict, ekf_update, _inverse
    else:
        predict, update, r_form = ukf_predict, ukf_update, np.asarray
    # Every interval is one dt, so one process model per regime that starts
    # an interval, and one measurement model per regime of a frame.
    processes = {reg: swing_process_model(params, nets.for_regime(reg), scenario.dt)
                 for reg in dict.fromkeys(regimes[:-1])}
    observers = {reg: swing_measurement_model(params, nets.for_regime(reg))
                 for reg in dict.fromkeys(regimes[1:])}

    try:
        r_blocks = {}
        for k in range(1, len(frames)):
            layout = frames[k].bus_ids
            if layout not in r_blocks:
                idx = measurement_indices(all_bus_ids, layout, nm)
                r_blocks[layout] = r_form(cfg.r[np.ix_(idx, idx)])
        belief, beliefs = b0, [b0]
        for k in range(1, len(frames)):
            belief = update(predict(belief, processes[regimes[k - 1]], cfg.q),
                            flat[ends[k - 1]:ends[k]], observers[regimes[k]],
                            r_blocks[frames[k].bus_ids])
            beliefs.append(belief)
    except (FilterNumericsError, FloatingPointError) as exc:
        raise FilterNumericsError(
            f"frame {k} (t={stamps[k]:.4f}s): {exc}") from exc

    x = np.array([b.x_hat for b in beliefs])
    return Trajectory(times=stamps, states=x, regime=regimes), beliefs
