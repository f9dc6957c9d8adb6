"""Synthetic sensor model: machine powers and bus voltages from rotor states.

A frame stacks generator active power, generator reactive power, then bus
voltage magnitude and angle for the buses present in its layout.  While a
fault is on, the faulted bus is simply absent from the layout, so frame
length varies with the network regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import groupby

import numpy as np

from .dynamics import ScenarioNetworks, Trajectory
from .reduction import (
    ReducedNetwork,
    _apply,
    complex_power,
    power_sensitivity,
)


@dataclass(frozen=True)
class NoiseSpec:
    """Standard deviations of the sensor noise and variances of the process
    disturbance.  The seed of the draws is not a noise level: it is passed to
    ``synthesize`` on its own."""

    sigma_p: float = 0.01
    sigma_q: float = 0.01
    sigma_vmag: float = 0.005
    sigma_vang: float = 0.005
    q_delta: float = 1e-6
    q_omega: float = 1e-6

    def __post_init__(self):
        levels = {f.name: getattr(self, f.name) for f in fields(self)}
        bad = [f"{name}={value!r}" for name, value in levels.items()
               if not (math.isfinite(value) and value >= 0)]
        if bad:
            raise ValueError("noise levels must be finite and at least 0: "
                             + ", ".join(bad))


@dataclass(frozen=True)
class MeasurementFrame:
    """One measurement sample; voltage entries follow ``bus_ids`` order."""

    t: float
    p_g: np.ndarray
    q_g: np.ndarray
    v_mag: np.ndarray
    v_ang: np.ndarray
    bus_ids: tuple[int, ...]

    def z_vector(self) -> np.ndarray:
        return np.concatenate([self.p_g, self.q_g, self.v_mag, self.v_ang])

    @property
    def size(self) -> int:
        return 2 * self.p_g.size + 2 * len(self.bus_ids)


def check_frame_sizes(frames: list[MeasurementFrame], n_machines: int) -> None:
    """Raise ValueError naming the first frame, and its time, whose p_g and
    q_g do not hold ``n_machines`` entries each, or whose v_mag and v_ang do
    not hold one entry per bus of its ``bus_ids``."""
    for k, fr in enumerate(frames):
        sizes = [len(fr.p_g), len(fr.q_g), len(fr.v_mag), len(fr.v_ang)]
        want = [n_machines, n_machines, len(fr.bus_ids), len(fr.bus_ids)]
        if sizes != want:
            raise ValueError(f"frame {k} (t={fr.t:.4f}s): p_g, q_g, v_mag "
                             f"and v_ang hold {sizes} entries, expected {want}")


def channel_names(n_machines: int, bus_ids: tuple[int, ...]) -> list[str]:
    """The time and the channels of a frame with the buses ``bus_ids``, in
    frame order: the column names of ``measurements.csv``."""
    return (["t"]
            + [f"p_g_{i + 1}" for i in range(n_machines)]
            + [f"q_g_{i + 1}" for i in range(n_machines)]
            + [f"v_mag_{b}" for b in bus_ids]
            + [f"v_ang_{b}" for b in bus_ids])


def machine_outputs(delta: np.ndarray, e_mag: np.ndarray, net: ReducedNetwork
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Machine powers and bus voltages for rotor angles (..., n).

    Returns active power, reactive power (..., n), then voltage magnitude and
    continuous voltage angle (..., buses).  Plain ``np.angle`` folds angles
    into (-pi, pi], which breaks the series once the rotors drift a full
    turn; referencing the emfs to the mean rotor angle first keeps each bus
    angle a continuous function of the state, equal to ``np.angle`` modulo
    2pi and with the same Jacobian, and leaves powers and magnitudes as they
    are.  Each row of a stack is bitwise the value that row gives alone.
    """
    ref, emf, power = complex_power(delta, e_mag, net)
    v = _apply(net.r_v, emf)
    return power.real, power.imag, np.abs(v), ref + np.arctan2(v.imag, v.real)


def machine_outputs_linearized(delta: np.ndarray, e_mag: np.ndarray,
                               net: ReducedNetwork
                               ) -> tuple[np.ndarray, np.ndarray]:
    """The outputs of ``machine_outputs`` at one angle vector (n,), stacked
    in frame order and bitwise equal to it, with their derivative with
    respect to the angles, (2n + 2 buses, n).

    Both come from one set of emfs, powers and bus voltages.  The common
    rotation of the emfs cancels in every product the derivative uses.
    Raises ValueError if a reconstructed bus voltage is zero, where the
    angle derivative is undefined.
    """
    ref, emf, power = complex_power(delta, e_mag, net)
    v = _apply(net.r_v, emf)
    vm = np.abs(v)
    if np.minimum.reduce(vm) < 1e-12:
        bus = net.bus_order[int(np.flatnonzero(vm < 1e-12)[0])]
        raise ValueError(f"reconstructed voltage at bus {bus} is zero; "
                         "angle derivative undefined")
    ds = power_sensitivity(emf, power, net)
    # (dV/d delta) / V = d ln|V| + j d(angle V)
    dv = net.r_v * (1j * emf) / v[:, None]
    outputs = np.concatenate([power.real, power.imag, vm,
                              ref + np.arctan2(v.imag, v.real)])
    return outputs, np.concatenate([ds.real, ds.imag, vm[:, None] * dv.real,
                                    dv.imag])


def synthesize(traj: Trajectory, nets: ScenarioNetworks, noise: NoiseSpec,
               seed: int) -> list[MeasurementFrame]:
    """Noisy measurement frames along a trajectory, one per sample.

    Each run of samples in one regime is evaluated as one stack by
    ``machine_outputs`` on that regime's network with the emf magnitudes of
    ``nets.params``, so with zero noise every frame equals the measurement
    model of its state alone exactly, angles included.  One generator
    seeded from ``seed`` draws the runs in frame order (per frame: active
    powers, reactive powers, magnitudes, angles), so equal seeds give
    identical frames.
    """
    nm, e_mag = nets.params.n_machines, nets.params.e_mag
    delta = traj.delta_matrix()
    rng = np.random.default_rng(seed)
    frames: list[MeasurementFrame] = []
    start = 0
    for regime, run in groupby(traj.regime):
        stop = start + len(list(run))
        net = nets.for_regime(regime)
        ids, nb = net.bus_order, len(net.bus_order)
        z = np.concatenate(
            machine_outputs(delta[start:stop], e_mag, net), axis=1)
        sigma = np.repeat([noise.sigma_p, noise.sigma_q, noise.sigma_vmag,
                           noise.sigma_vang], [nm, nm, nb, nb])
        z += sigma * rng.standard_normal(z.shape)
        frames.extend(
            MeasurementFrame(t=t, p_g=zk[:nm], q_g=zk[nm:2 * nm],
                             v_mag=zk[2 * nm:2 * nm + nb],
                             v_ang=zk[2 * nm + nb:], bus_ids=ids)
            for t, zk in zip(traj.times[start:stop].tolist(), z))
        start = stop
    return frames


def measurement_variances(noise: NoiseSpec, n_machines: int,
                          n_buses: int) -> np.ndarray:
    """Diagonal of the measurement covariance for a given frame layout."""
    return np.concatenate([
        np.full(n_machines, noise.sigma_p ** 2),
        np.full(n_machines, noise.sigma_q ** 2),
        np.full(n_buses, noise.sigma_vmag ** 2),
        np.full(n_buses, noise.sigma_vang ** 2),
    ])


def process_variances(noise: NoiseSpec, n_machines: int) -> np.ndarray:
    """Diagonal of the process covariance (angles then speeds)."""
    return np.concatenate([
        np.full(n_machines, noise.q_delta),
        np.full(n_machines, noise.q_omega),
    ])


def measurement_indices(all_bus_ids: tuple[int, ...],
                        frame_bus_ids: tuple[int, ...],
                        n_machines: int) -> np.ndarray:
    """Positions of a frame's entries inside the full intact-layout vector.

    Lets a covariance defined over the intact layout be subset to a frame
    whose bus list is smaller (fault-on frames).
    """
    pos = {bus: i for i, bus in enumerate(all_bus_ids)}
    nb = len(all_bus_ids)
    keep = list(range(2 * n_machines))
    keep += [2 * n_machines + pos[b] for b in frame_bus_ids]
    keep += [2 * n_machines + nb + pos[b] for b in frame_bus_ids]
    return np.array(keep, dtype=int)
