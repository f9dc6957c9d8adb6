"""Classical-model rotor dynamics and fault-scenario simulation.

State per machine is the internal emf angle (rad, machine order) and the
per-unit rotor speed, nominally 1.  A scenario is a solid three-phase fault
at one bus, cleared after a fixed number of cycles by opening one line, so
three network topologies govern the trajectory in sequence.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .cases import NetworkCase, without_branch
from .powerflow import PowerFlowSolution
from .reduction import (
    MachineInit,
    ReducedNetwork,
    electrical_power,
    extend_network,
    kron_reduce,
    machine_init,
    remove_bus,
)

SPEED_LIMIT = 0.2  # per-unit speed deviation treated as loss of synchronism


class ScenarioError(ValueError):
    """The fault scenario is inconsistent with the case."""


class InstabilityError(RuntimeError):
    """A machine left the stable speed band during simulation."""

    def __init__(self, machine: int, t: float, omega: float):
        super().__init__(
            f"machine {machine} lost synchronism at t={t:.4f}s "
            f"(speed {omega:.4f} pu)")
        self.machine = machine
        self.t = t
        self.omega = omega


@dataclass(frozen=True)
class DynamicState:
    """Rotor angles (rad) and per-unit speeds for all machines."""

    delta: np.ndarray
    omega: np.ndarray

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.delta, self.omega])

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "DynamicState":
        vec = np.asarray(vec, dtype=float)
        n = vec.size // 2
        return cls(delta=vec[:n].copy(), omega=vec[n:].copy())


@dataclass(frozen=True)
class MachineParams:
    """Per-machine constants for the swing dynamics."""

    h: np.ndarray
    d: np.ndarray
    e_mag: np.ndarray
    p_mech: np.ndarray
    omega0: float

    @classmethod
    def from_case(cls, case: NetworkCase, init: MachineInit) -> "MachineParams":
        return cls(
            h=np.array([m.h for m in case.machines]),
            d=np.array([m.d for m in case.machines]),
            e_mag=init.e_mag.copy(),
            p_mech=init.p_mech.copy(),
            omega0=2.0 * math.pi * case.frequency,
        )

    @property
    def n_machines(self) -> int:
        return self.h.size


def swing_rates(delta: np.ndarray, omega: np.ndarray, p_e: np.ndarray,
                params: MachineParams) -> tuple[np.ndarray, np.ndarray]:
    """Angle and speed rates at electrical power ``p_e``, on (..., n) arrays.

    Angles advance with the speed deviation scaled to electrical rad/s;
    speeds accelerate with the per-unit power imbalance over twice the
    inertia constant, less speed-proportional damping.
    """
    dev = omega - 1.0
    return (params.omega0 * dev,
            (params.p_mech - p_e - params.d * dev) / (2.0 * params.h))


def swing_derivatives(x: DynamicState, params: MachineParams,
                      net: ReducedNetwork) -> DynamicState:
    """Time derivatives of the rotor states (see ``swing_rates``)."""
    p_e = electrical_power(x.delta, params.e_mag, net)
    rate_delta, rate_omega = swing_rates(x.delta, x.omega, p_e, params)
    return DynamicState(delta=rate_delta, omega=rate_omega)


def euler_step(delta: np.ndarray, omega: np.ndarray, p_e: np.ndarray,
               params: MachineParams, dt: float
               ) -> tuple[np.ndarray, np.ndarray]:
    """One forward-Euler step of the swing dynamics from (..., n) angles
    and speeds, given the electrical power ``p_e`` at those angles."""
    rate_delta, rate_omega = swing_rates(delta, omega, p_e, params)
    return delta + dt * rate_delta, omega + dt * rate_omega


def step_process(x: DynamicState, params: MachineParams, net: ReducedNetwork,
                 dt: float, noise: np.ndarray | None = None) -> DynamicState:
    """One forward-Euler step of the swing dynamics, the estimators' model.

    ``noise`` is an optional stacked (angles, speeds) additive disturbance.
    """
    delta, omega = euler_step(x.delta, x.omega,
                              electrical_power(x.delta, params.e_mag, net),
                              params, dt)
    if noise is not None:
        w = np.asarray(noise, dtype=float)
        n = delta.size
        delta = delta + w[:n]
        omega = omega + w[n:]
    return DynamicState(delta=delta, omega=omega)


class Regime(Enum):
    PreFault = "pre_fault"
    FaultOn = "fault_on"
    PostFault = "post_fault"


@dataclass(frozen=True)
class FaultScenario:
    """Solid fault at ``fault_bus`` at ``t_fault``, cleared after
    ``clearing_cycles`` cycles by opening ``cleared_line``."""

    fault_bus: int
    t_fault: float
    clearing_cycles: float
    cleared_line: tuple[int, int]
    t_end: float
    dt: float

    def t_clear(self, frequency: float) -> float:
        return self.t_fault + self.clearing_cycles / frequency

    def regime(self, t: float, frequency: float) -> Regime:
        if t < self.t_fault:
            return Regime.PreFault
        if t < self.t_clear(frequency):
            return Regime.FaultOn
        return Regime.PostFault


def validate_scenario(case: NetworkCase, scenario: FaultScenario) -> None:
    problems: list[str] = []
    if scenario.fault_bus not in {b.id for b in case.buses}:
        problems.append(f"fault bus {scenario.fault_bus} not in case")
    if not case.has_branch(*scenario.cleared_line):
        problems.append(f"cleared line {scenario.cleared_line} not in case")
    if not scenario.t_fault > 0:
        problems.append("fault time must be positive")
    if not scenario.clearing_cycles > 0:
        problems.append("clearing time must be positive")
    if not scenario.dt > 0:
        problems.append("sample interval must be positive")
    if (scenario.t_fault < scenario.t_end
            and scenario.t_clear(case.frequency) > scenario.t_end):
        problems.append("fault must clear before the end of the window")
    if problems:
        raise ScenarioError("; ".join(problems))


@dataclass(frozen=True)
class ScenarioNetworks:
    """Reduced networks for the three scenario topologies."""

    pre: ReducedNetwork
    fault: ReducedNetwork
    post: ReducedNetwork

    def for_regime(self, regime: Regime) -> ReducedNetwork:
        if regime is Regime.PreFault:
            return self.pre
        if regime is Regime.FaultOn:
            return self.fault
        return self.post


def _machine_islanded(case: NetworkCase) -> bool:
    """True when the machine terminal buses no longer share one component."""
    adjacency: dict[int, set[int]] = {b.id: set() for b in case.buses}
    for br in case.branches:
        adjacency[br.from_bus].add(br.to_bus)
        adjacency[br.to_bus].add(br.from_bus)
    terminals = set(case.machine_buses())
    start = next(iter(terminals))
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for other in adjacency[node]:
            if other not in seen:
                seen.add(other)
                queue.append(other)
    return not terminals <= seen


def scenario_networks(case: NetworkCase, pf: PowerFlowSolution,
                      scenario: FaultScenario) -> ScenarioNetworks:
    """Build the pre-fault, fault-on, and post-clearing reduced networks.

    The fault-on network deletes the faulted bus from the extended system
    (its voltage is pinned to zero); the post network rebuilds the system
    without the cleared line, keeping load admittances at pre-fault voltages.
    """
    validate_scenario(case, scenario)
    ext = extend_network(case, pf)
    pre = kron_reduce(ext)
    fault = kron_reduce(remove_bus(ext, scenario.fault_bus))
    post_case = without_branch(case, *scenario.cleared_line)
    if _machine_islanded(post_case):
        raise ScenarioError(
            f"clearing line {scenario.cleared_line} islands a machine")
    post = kron_reduce(extend_network(post_case, pf))
    return ScenarioNetworks(pre=pre, fault=fault, post=post)


@dataclass
class Trajectory:
    """Sampled rotor states with the regime active at each sample."""

    times: np.ndarray
    states: list[DynamicState]
    regime: list[Regime]

    def delta_matrix(self) -> np.ndarray:
        return np.stack([s.delta for s in self.states])

    def omega_matrix(self) -> np.ndarray:
        return np.stack([s.omega for s in self.states])

    def __len__(self) -> int:
        return len(self.states)


# Classical RK4: stage coefficients a_ij and weights b_i.
_RK4_STAGES = ((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0))
_RK4_WEIGHTS = (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0)


def _rk4_stepper(params: MachineParams, net: ReducedNetwork,
                 h: float) -> Callable[[np.ndarray, int], np.ndarray]:
    """Classical RK4 substeps of length ``h`` on one topology.

    On y = (angles, speed deviations) the swing right-hand side is
    semilinear:

        f(y) = L (y, 1) + D g,   g = c * (R c),   c = cos(A (y, 1)),

    with c the pair (cos delta, sin delta).  L holds the angle rate, the
    damping and the mechanical power.  R is the admittance pre-scaled to
    M_ij = (E/2H)_i Y_ij E_j, in real form, so the two halves of g add up to
    Re(u_i conj((M u)_i)) = P_e,i / 2H_i with u = exp(j delta); D subtracts
    that sum from the speed rows.  This is the cosine sum to rounding.

    Each stage argument A (y_i, 1) and the update are therefore linear in
    z = (y, 1, g_1, .., g_4), and those maps are built here once.  A substep
    is then four (product, cosine, product) stage evaluations and one
    update: on a few machines numpy's per-call dispatch, not arithmetic, is
    the cost.  Returns ``advance(y, n_sub)``, which runs ``n_sub`` substeps.
    """
    n = params.n_machines
    m = 2 * n
    inv_2h = 0.5 / params.h
    scaled = (params.e_mag * inv_2h)[:, None] * net.y_red * params.e_mag
    eye, zero = np.eye(n), np.zeros((n, n))
    rotate = np.block([[scaled.real, -scaled.imag],
                       [scaled.imag, scaled.real]])
    drain = np.block([[zero, zero], [-eye, -eye]])
    lin = np.zeros((m, m + 1))
    lin[:n, n:m] = params.omega0 * eye
    lin[n:, n:m] = np.diag(-params.d * inv_2h)
    lin[n:, m] = params.p_mech * inv_2h
    pick = np.zeros((m, m + 1))
    pick[:, :n] = np.vstack([eye, eye])
    pick[n:, m] = -0.5 * np.pi   # cos(delta - pi/2) = sin(delta)

    width = m + 1 + 4 * m
    home = np.eye(m + 1, width)   # (y, 1) read off z
    slots = [slice(m + 1 + i * m, m + 1 + (i + 1) * m) for i in range(4)]
    stages: list[tuple[np.ndarray, slice]] = []
    slopes: list[np.ndarray] = []
    for coeffs, slot in zip(_RK4_STAGES, slots):
        state = home.copy()
        for a, slope in zip(coeffs, slopes):
            state[:m] += (a * h) * slope
        stages.append((pick @ state, slot))
        slope = lin @ state
        slope[:, slot] += drain
        slopes.append(slope)
    update = home[:m].copy()
    for b, slope in zip(_RK4_WEIGHTS, slopes):
        update += (b * h) * slope

    def advance(y: np.ndarray, n_sub: int) -> np.ndarray:
        z = np.zeros(width)
        z[:m] = y
        z[m] = 1.0
        # each stage writes its powers in place, through a view into z
        powers = [(arg, z[slot]) for arg, slot in stages]
        for _ in range(n_sub):
            for arg, power in powers:
                c = np.cos(arg.dot(z))
                np.multiply(c, rotate.dot(c), out=power)
            z[:m] = update.dot(z)
        return z[:m].copy()

    return advance


def simulate(case: NetworkCase, pf: PowerFlowSolution, scenario: FaultScenario,
             substeps: int = 10) -> Trajectory:
    """Reference trajectory through the fault, sampled every ``scenario.dt``.

    Integrates with classical RK4 using ``substeps`` substeps per sample
    interval, splitting any interval that contains the fault or clearing
    instant so every integration span sees a single topology.  Raises
    InstabilityError if any machine's speed leaves the stable band.
    """
    nets = scenario_networks(case, pf, scenario)
    init = machine_init(case, pf, net=nets.pre)
    params = MachineParams.from_case(case, init)
    n = params.n_machines
    # Sample intervals differ from dt only in their last bits, so a handful
    # of distinct (topology, span) pairs recur; build each stepper once.
    steppers: dict[tuple[Regime, float], tuple[int, Callable]] = {}

    n_steps = int(round(scenario.t_end / scenario.dt))
    times = np.arange(n_steps + 1) * scenario.dt
    switch_times = (scenario.t_fault, scenario.t_clear(case.frequency))

    # Integrate the speed deviation: at rest it is exactly zero, so the
    # equilibrium loses nothing to cancellation against the nominal speed.
    y = np.concatenate([init.delta0, np.zeros_like(init.delta0)])
    states = [DynamicState(delta=y[:n], omega=1.0 + y[n:])]
    regimes = [scenario.regime(float(times[0]), case.frequency)]

    for k in range(n_steps):
        t0, t1 = float(times[k]), float(times[k + 1])
        cuts = [t0] + [s for s in switch_times if t0 < s < t1] + [t1]
        for a, b in zip(cuts[:-1], cuts[1:]):
            key = (scenario.regime(a, case.frequency), b - a)
            if key not in steppers:
                n_sub = max(1, math.ceil(substeps * (b - a) / scenario.dt))
                steppers[key] = (n_sub, _rk4_stepper(
                    params, nets.for_regime(key[0]), (b - a) / n_sub))
            n_sub, advance = steppers[key]
            y = advance(y, n_sub)
        omega = 1.0 + y[n:]
        if np.max(np.abs(y[n:])) > SPEED_LIMIT:
            worst = int(np.argmax(np.abs(y[n:])))
            raise InstabilityError(machine=worst + 1, t=t1,
                                   omega=float(omega[worst]))
        states.append(DynamicState(delta=y[:n], omega=omega))
        regimes.append(scenario.regime(t1, case.frequency))

    return Trajectory(times=times, states=states, regime=regimes)
