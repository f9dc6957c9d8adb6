"""Classical-model rotor dynamics and fault-scenario simulation.

State per machine is the internal emf angle (rad, machine order) and the
per-unit rotor speed, nominally 1.  A scenario is a solid three-phase fault
at one bus, cleared after a fixed number of cycles by opening one line, so
three network topologies govern the trajectory in sequence.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .cases import NetworkCase
from .powerflow import PowerFlowSolution
from .reduction import (
    ExtendedAdmittance,
    MachineParams,
    ReducedNetwork,
    ReductionError,
    extend_network,
    ground_bus,
    kron_reduce,
    machine_init,
    open_branch,
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


def euler_step(delta: np.ndarray, omega: np.ndarray, p_e: np.ndarray,
               params: MachineParams, dt: float
               ) -> tuple[np.ndarray, np.ndarray]:
    """One forward-Euler step of the swing dynamics from (..., n) angles
    and speeds, given the electrical power ``p_e`` at those angles."""
    rate_delta, rate_omega = swing_rates(delta, omega, p_e, params)
    return delta + dt * rate_delta, omega + dt * rate_omega


class Regime(Enum):
    PreFault = "pre_fault"
    FaultOn = "fault_on"
    PostFault = "post_fault"


@dataclass(frozen=True, kw_only=True)
class FaultScenario:
    """Solid fault at ``fault_bus`` at ``t_fault``, cleared after
    ``clearing_cycles`` cycles by opening ``cleared_line``."""

    fault_bus: int
    t_fault: float = 1.0
    clearing_cycles: float = 2.0
    cleared_line: tuple[int, int]
    t_end: float = 10.0
    dt: float = 0.01

    def t_clear(self, frequency: float) -> float:
        return self.t_fault + self.clearing_cycles / frequency

    def regimes(self, times: np.ndarray, frequency: float) -> list[Regime]:
        """The regime at each of the ascending ``times``: pre-fault before
        ``t_fault``, fault-on before ``t_clear``, post-fault from then on,
        from the counts of times before the fault and before clearing."""
        fault = int(np.searchsorted(times, self.t_fault, side="left"))
        clear = max(fault, int(np.searchsorted(times, self.t_clear(frequency),
                                               side="left")))
        return ([Regime.PreFault] * fault + [Regime.FaultOn] * (clear - fault)
                + [Regime.PostFault] * (len(times) - clear))


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
    if not scenario.t_end > 0:
        problems.append(f"window t_end={scenario.t_end}s must be positive")
    if not scenario.dt > 0:
        problems.append("sample interval must be positive")
    else:
        samples = scenario.t_end / scenario.dt
        if not (math.isfinite(samples)
                and abs(samples - round(samples)) <= 1e-9 * abs(samples)):
            problems.append(f"window t_end={scenario.t_end}s is not a whole "
                            f"number of dt={scenario.dt}s samples")
    if (scenario.t_fault < scenario.t_end
            and scenario.t_clear(case.frequency) > scenario.t_end):
        problems.append("fault must clear before the end of the window")
    if problems:
        raise ScenarioError("; ".join(problems))


@dataclass(frozen=True)
class ScenarioNetworks:
    """The three scenario topologies' reduced networks and machine constants."""

    pre: ReducedNetwork
    fault: ReducedNetwork
    post: ReducedNetwork
    params: MachineParams

    def for_regime(self, regime: Regime) -> ReducedNetwork:
        if regime is Regime.PreFault:
            return self.pre
        if regime is Regime.FaultOn:
            return self.fault
        return self.post


def _machine_islanded(case: NetworkCase, opened: int) -> bool:
    """True when, with branch number ``opened`` open, the machine terminal
    buses no longer share one component."""
    adjacency: dict[int, set[int]] = {b.id: set() for b in case.buses}
    for pos, br in enumerate(case.branches):
        if pos != opened:
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


# The last scenario_networks call: (case, bytes of pf.v_mag, v_ang, p_inj and
# q_inj, the extended system, pre-fault network and machine constants of that
# pair, scenario, result); the last two are None when that scenario failed.
# Holding the case keeps its id from being reused.
_last_networks: tuple | None = None


def scenario_networks(case: NetworkCase, pf: PowerFlowSolution,
                      scenario: FaultScenario) -> ScenarioNetworks:
    """Build the pre-fault, fault-on, and post-clearing reduced networks,
    with the machine constants of the operating point.

    Each network is one ``kron_reduce``: of the extended system, of it with
    the faulted bus grounded (``ground_bus``) and of it with the cleared
    line open (``open_branch``).  A ReductionError names the topology.

    One entry is kept, the last call's: the same case object and the same
    ``pf.v_mag``, ``v_ang``, ``p_inj`` and ``q_inj`` (the fields the networks
    and the constants read) reuse its extended system, pre-fault network and
    constants, and an equal scenario besides returns its result again.  All
    their arrays are read-only.  A failed scenario is not kept, so it is
    raised again on every call.
    """
    global _last_networks
    key = tuple(a.tobytes() for a in (pf.v_mag, pf.v_ang, pf.p_inj, pf.q_inj))
    last = _last_networks
    same_point = last is not None and last[0] is case and last[1] == key
    if same_point and last[5] == scenario:
        return last[6]
    validate_scenario(case, scenario)
    if same_point:
        ext, pre, params = last[2:5]
    else:
        ext = extend_network(case, pf)
        pre = _reduce(ext, "intact network")
        params = machine_init(case, pf, pre)
        for array in (ext.y11, ext.y12, ext.y22, params.h, params.d,
                      params.e_mag, params.p_mech, params.delta0):
            array.flags.writeable = False
    _last_networks = (case, key, ext, pre, params, None, None)
    nets = ScenarioNetworks(pre, *_build_networks(case, ext, scenario), params)
    _last_networks = (case, key, ext, pre, params, scenario, nets)
    return nets


def _reduce(ext: ExtendedAdmittance, topology: str) -> ReducedNetwork:
    """``kron_reduce(ext)`` with read-only arrays, its ReductionError
    naming ``topology``."""
    try:
        net = kron_reduce(ext)
    except ReductionError as exc:
        raise ReductionError(f"{topology}: {exc}") from exc
    net.y_red.flags.writeable = False
    net.r_v.flags.writeable = False
    return net


def _build_networks(case: NetworkCase, ext: ExtendedAdmittance,
                    scenario: FaultScenario) -> tuple[ReducedNetwork, ...]:
    """The fault-on and post networks of a validated scenario, from its
    case's extended system."""
    fault = _reduce(ground_bus(ext, scenario.fault_bus),
                    f"network without faulted bus {scenario.fault_bus}")
    ends = set(scenario.cleared_line)
    opened = next(pos for pos, br in enumerate(case.branches)
                  if {br.from_bus, br.to_bus} == ends)
    if _machine_islanded(case, opened):
        raise ScenarioError(
            f"clearing line {scenario.cleared_line} islands a machine")
    post = _reduce(open_branch(ext, case.branches[opened]),
                   f"network with line {scenario.cleared_line} open")
    return fault, post


def _joined_rows(table: np.ndarray) -> list[str]:
    """Each row of a float table as its ``repr`` cells joined by commas, so
    files round-trip exactly."""
    fmt = ",".join(["%r"] * table.shape[1])
    return [fmt % row for row in map(tuple, table.tolist())]


class Trajectory:
    """Sampled rotor states with the regime active at each sample.

    The states are one read-only (samples, 2n) array, each row the angles
    then the speeds.  ``states`` may be given as that array, which is held
    and not copied, or as a sequence of ``DynamicState``, which is stacked
    once.  ``times`` and ``regime`` hold one entry per row.  ``states``
    reads the rows back as a tuple of ``DynamicState`` of read-only views,
    built on first use; ``state_matrix`` returns the array, and
    ``delta_matrix`` and ``omega_matrix`` views of it.
    """

    def __init__(self, times: np.ndarray,
                 states: np.ndarray | Sequence[DynamicState],
                 regime: list[Regime]):
        if isinstance(states, np.ndarray):
            array = states.view()
        else:
            array = np.stack([s.as_vector() for s in states])
        if array.ndim != 2 or array.shape[1] % 2:
            raise ValueError(f"states must be (samples, 2n) rows, "
                             f"got shape {array.shape}")
        if len(times) != len(array) or len(regime) != len(array):
            raise ValueError(f"{len(array)} state rows, but {len(times)} "
                             f"times and {len(regime)} regimes")
        array.flags.writeable = False
        n = array.shape[1] // 2
        self.times = times
        self.regime = regime
        self._states = array
        self._delta = array[:, :n]
        self._omega = array[:, n:]

    @functools.cached_property
    def states(self) -> tuple[DynamicState, ...]:
        return tuple(map(DynamicState, self._delta, self._omega))

    def state_matrix(self) -> np.ndarray:
        """States (samples, 2n), angles then speeds, read-only."""
        return self._states

    def delta_matrix(self) -> np.ndarray:
        """Angles (samples, n), a read-only view."""
        return self._delta

    def omega_matrix(self) -> np.ndarray:
        """Speeds (samples, n), a read-only view."""
        return self._omega

    def __len__(self) -> int:
        return len(self._delta)

    @functools.cached_property
    def cells(self) -> tuple[list[str], list[str], list[str]]:
        """Per sample, the CSV cells of the time, of the angles and of the
        speeds, each group joined by commas; formatted on first use, then
        shared by every file that has these columns."""
        return (list(map(repr, self.times.tolist())),
                _joined_rows(self._delta), _joined_rows(self._omega))


# Cooper and Verner's eleven-stage eighth-order Runge-Kutta ("Some explicit
# Runge-Kutta methods of high order", SIAM J. Numer. Anal. 9(3), 1972):
# stage coefficients a_ij and weights b_i, in terms of sqrt(21).
_S21 = math.sqrt(21.0)
_RK_STAGES = (
    (),
    (1 / 2,),
    (1 / 4, 1 / 4),
    (1 / 7, (-7 - 3 * _S21) / 98, (21 + 5 * _S21) / 49),
    ((11 + _S21) / 84, 0.0, (18 + 4 * _S21) / 63, (21 - _S21) / 252),
    ((5 + _S21) / 48, 0.0, (9 + _S21) / 36, (-231 + 14 * _S21) / 360,
     (63 - 7 * _S21) / 80),
    ((10 - _S21) / 42, 0.0, (-432 + 92 * _S21) / 315,
     (633 - 145 * _S21) / 90, (-504 + 115 * _S21) / 70,
     (63 - 13 * _S21) / 35),
    (1 / 14, 0.0, 0.0, 0.0, (14 - 3 * _S21) / 126, (13 - 3 * _S21) / 63,
     1 / 9),
    (1 / 32, 0.0, 0.0, 0.0, (91 - 21 * _S21) / 576, 11 / 72,
     (-385 - 75 * _S21) / 1152, (63 + 13 * _S21) / 128),
    (1 / 14, 0.0, 0.0, 0.0, 1 / 9, (-733 - 147 * _S21) / 2205,
     (515 + 111 * _S21) / 504, (-51 - 11 * _S21) / 56,
     (132 + 28 * _S21) / 245),
    (0.0, 0.0, 0.0, 0.0, (-42 + 7 * _S21) / 18, (-18 + 28 * _S21) / 45,
     (-273 - 53 * _S21) / 72, (301 + 53 * _S21) / 72,
     (28 - 28 * _S21) / 45, (49 - 7 * _S21) / 18),
)
_RK_WEIGHTS = (1 / 20, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 49 / 180, 16 / 45,
               49 / 180, 1 / 20)

# A step's linear maps over z: the argument map of each group of stages
# that run together, cut to the prefix of z its last stage reads, and the
# update map.
_RKMaps = tuple[tuple[np.ndarray, ...], np.ndarray]


def _rk_maps(params: MachineParams, h: float) -> _RKMaps:
    """The linear maps of one Runge-Kutta step of length ``h`` with the
    ``_RK_STAGES``/``_RK_WEIGHTS`` tableau; see ``_rk_stepper``.

    They read the machines' ``omega0``, inertia ``h``, damping ``d`` and
    ``p_mech`` and the step length, but no admittance and no scenario, so
    every topology and every contingency on one machine set shares them.
    They are built once per machine set and step length and kept in a small
    cache keyed on those values; the cached arrays are read-only.
    """
    return _stage_maps(h, params.omega0, params.h.tobytes(),
                       params.d.tobytes(), params.p_mech.tobytes())


@functools.lru_cache(maxsize=8)
def _stage_maps(step: float, omega0: float, inertia: bytes, damping: bytes,
                p_mech: bytes) -> _RKMaps:
    """``_rk_maps`` for the machine arrays given by their float64 bytes.

    Stage i's angles read (y, 1) and the powers of the stages before
    i - 1: a power enters a speed rate first, and the angles one stage
    later.  Stages 2g and 2g + 1 therefore read no power that either of
    them writes, and run as one group.  A group's map stacks the two
    stages' rows over the prefix of z that stage 2g + 1 reads, and stage
    2g's rows are zero over the one power block it does not read.  With an
    odd stage count the last stage is a group of its own.
    """
    inv_2h = 0.5 / np.frombuffer(inertia)
    n = inv_2h.size
    m = 2 * n
    lin = np.zeros((m, m + 1))
    lin[:n, n:m] = omega0 * np.eye(n)
    lin[n:, n:m] = np.diag(-np.frombuffer(damping) * inv_2h)
    lin[n:, m] = np.frombuffer(p_mech) * inv_2h
    drain = -np.hstack([np.eye(n), np.eye(n)])
    s = len(_RK_STAGES)
    steps = np.zeros((s + 1, s))   # h a_i per stage, then h b
    for i, coeffs in enumerate(_RK_STAGES):
        steps[i, :i] = coeffs
    steps[s] = _RK_WEIGHTS
    steps *= step

    width = m + 1 + s * m
    home = np.eye(m + 1, width)   # (y, 1) read off z
    state = home.copy()
    # row i: stage i's slope L (y_i, 1) + D g_i as a map on z, flattened
    slopes = np.zeros((s, m * width))
    angles: list[np.ndarray] = []   # stage i's angle map, cut to what it reads
    for i in range(s):
        reads = m + 1 + i * m   # (y, 1) and the i powers before stage i
        state[:m] = home[:m] + (steps[i, :i] @ slopes[:i]).reshape(m, width)
        angles.append(state[:n, :m + 1 + max(i - 1, 0) * m].copy())
        slope = slopes[i].reshape(m, width)
        slope[:, :reads] = lin @ state[:, :reads]
        slope[n:, reads:reads + m] = drain
    # Per stage, (angles, angles - pi/2), whose cosines are (cos, sin).  Each
    # group's map is a new array: ndarray.dot copies a strided view on every
    # call.
    groups = []
    for g in range(0, s, 2):
        pair = angles[g:g + 2]
        arg = np.zeros((len(pair), 2, n, pair[-1].shape[1]))
        for block, angle in zip(arg, pair):
            block[:, :, :angle.shape[1]] = angle
            block[1, :, m] -= 0.5 * np.pi
        groups.append(arg.reshape(len(pair) * m, -1))
    update = home[:m] + (steps[s] @ slopes).reshape(m, width)
    for array in (*groups, update):
        array.flags.writeable = False
    return tuple(groups), update


def _rk_stepper(params: MachineParams, net: ReducedNetwork
                ) -> Callable[[np.ndarray, np.ndarray, _RKMaps], None]:
    """Runge-Kutta steps on one topology, Cooper and Verner's eighth-order
    method, with the step maps of each call's step length from ``_rk_maps``.

    On y = (angles, speed deviations) the swing right-hand side is
    semilinear:

        f(y) = L (y, 1) + D g,   g = c * (R c),   c = cos(A (y, 1)),

    with c the pair (cos delta, sin delta).  L holds the angle rate, the
    damping and the mechanical power.  R is the admittance pre-scaled to
    M_ij = (E/2H)_i Y_ij E_j, in real form, so the two halves of g add up to
    Re(u_i conj((M u)_i)) = P_e,i / 2H_i with u = exp(j delta); D subtracts
    that sum from the speed rows.  This is ``electrical_power`` to rounding.

    Each stage argument A (y_i, 1) and the update are therefore linear in
    z = (y, 1, g_1, .., g_s).  Those maps depend on the step length but not
    on the topology, which enters only through R, so R is built once here
    and the maps are passed per call: ``simulate`` builds one stepper per
    topology it steps on and hands each call its step length's maps.
    Stages 2g and 2g + 1 read only the powers of stages before 2g (see
    ``_rk_maps``), so both arguments come from z before either stage
    writes, and the pair is evaluated at once: one product for both
    arguments into the group's cosine buffer, one cosine in place, one
    product with R for the k = 1 or 2 stages as the rows of a (k, m) buffer,
    and one multiply into their power slots, which are adjacent in z.  A
    step is six such groups of 4 numpy calls, then one product of the update
    map into the output row and one copy of that row back into z: 26 calls,
    none of which allocates.  On a few machines numpy's per-call dispatch,
    not arithmetic, is the cost, so ``advance`` binds each call's method
    and operands once and passes every output by position.

    Returns ``advance(y0, out, maps)``, which takes ``len(out)`` steps from
    ``y0`` with ``maps`` and writes the state after each into the rows of
    ``out``, a C-contiguous float64 array.  Every call starts from ``y0``
    alone: each power a step reads it has written earlier in that step.
    """
    n = params.n_machines
    m = 2 * n
    inv_2h = 0.5 / params.h
    scaled = (params.e_mag * inv_2h)[:, None] * net.y_red * params.e_mag
    # R c for the rows of a (k, m) array is c R^T, with R the real form
    # [[Re, -Im], [Im, Re]]; contiguous, because ndarray.dot copies a strided
    # view on every call
    rotate_t = np.empty((m, m))
    rotate_t[:n, :n] = rotate_t[n:, n:] = scaled.real.T
    rotate_t[:n, n:] = scaled.imag.T
    rotate_t[n:, :n] = -scaled.imag.T

    s = len(_RK_STAGES)
    z = np.zeros(m + 1 + s * m)
    z[m] = 1.0
    y = z[:m]
    c = np.empty(2 * m)
    rotated = np.empty((2, m))
    # Per group of k = 1 or 2 stages, as ``_rk_maps`` groups them: its
    # cosine buffer flat and as (k, m) rows, its rows times R^T, and its
    # power slots in z.  Each group writes its powers in place.
    views = []
    first = m + 1   # z column of the next group's first power
    for g in range(0, s, 2):
        k = min(2, s - g)
        rows = c[:k * m].reshape(k, m)
        views.append((c[:k * m], rows, rows.dot, rotated[:k],
                      z[first:first + k * m].reshape(k, m)))
        first += k * m

    def advance(y0: np.ndarray, out: np.ndarray, maps: _RKMaps) -> None:
        groups, update = maps
        # each group reads the prefix of z as wide as its map
        plan = [(arg.dot, z[:arg.shape[1]], *view)
                for arg, view in zip(groups, views)]
        cos, multiply, update_dot = np.cos, np.multiply, update.dot
        y[:] = y0
        for row in out:
            for arg_dot, read, c_flat, c_rows, rows_dot, rows_t, power in plan:
                arg_dot(read, c_flat)
                cos(c_flat, c_flat)
                rows_dot(rotate_t, rows_t)
                multiply(c_rows, rows_t, power)
            update_dot(z, row)
            y[:] = row

    return advance


def simulate(case: NetworkCase, pf: PowerFlowSolution,
             scenario: FaultScenario) -> Trajectory:
    """Reference trajectory through the fault, sampled every ``scenario.dt``.

    Before the fault the state is the equilibrium (delta0, 1): ``p_mech``
    is the electrical power at delta0 on the pre-fault network, so the exact
    solution stays there, and those samples are written, not integrated.
    From the fault on, integrates with Cooper and Verner's eighth-order
    Runge-Kutta (``_rk_stepper``) at one step per sample interval; a finer
    truth takes a smaller ``dt``.  The integration walks two segments, each
    on one topology with its own stepper: fault-on from the fault to the
    clearing instant, then post-clearing to the last sample.  From an
    instant off the sample grid a segment takes one step to the next sample
    (or to its end, if that comes first), then one stepper call of whole
    ``dt`` steps, then one step to its end if that is off the grid, so an
    interval holding a switching instant is split there.  Raises
    InstabilityError at the first sample where a machine's speed leaves the
    stable band, checked after each segment.
    """
    nets = scenario_networks(case, pf, scenario)
    params = nets.params
    n = params.n_machines
    freq = case.frequency

    n_steps = round(scenario.t_end / scenario.dt)   # whole, as validated
    times = np.arange(n_steps + 1) * scenario.dt
    regimes = scenario.regimes(times, freq)
    grid = times.tolist()
    last = grid[-1]
    segments = ((_rk_stepper(params, nets.fault),
                 min(scenario.t_clear(freq), last)),
                (_rk_stepper(params, nets.post), last))

    # Integrate the speed deviation: at rest it is exactly zero, so the
    # equilibrium loses nothing to cancellation against the nominal speed.
    # The state at an instant t is in row bisect_left(grid, t), the first
    # sample at or after t; the held rows run to the fault's.
    ys = np.empty((n_steps + 1, 2 * n))
    t = scenario.t_fault
    held = bisect.bisect_left(grid, t) + 1
    ys[:held, :n] = params.delta0
    ys[:held, n:] = 0.0
    checked = 0   # rows whose speeds are checked
    for advance, stop in segments:
        if t < stop:
            a = bisect.bisect_left(grid, t)
            b = bisect.bisect_right(grid, stop) - 1   # last sample <= stop
            if t < grid[a]:   # off the grid
                t1 = min(grid[a], stop)
                advance(ys[a], ys[a:a + 1], _rk_maps(params, t1 - t))
                t = t1
            if b > a:
                advance(ys[a], ys[a + 1:b + 1], _rk_maps(params, scenario.dt))
                t = grid[b]
            if t < stop:
                advance(ys[b], ys[b + 1:b + 2], _rk_maps(params, stop - t))
                t = stop
        done = bisect.bisect_right(grid, t)   # rows that hold their sample
        dev = ys[checked:done, n:]
        over = np.flatnonzero(np.abs(dev).max(axis=1) > SPEED_LIMIT)
        if over.size:
            j = int(over[0])
            worst = int(np.argmax(np.abs(dev[j])))
            raise InstabilityError(machine=worst + 1, t=grid[checked + j],
                                   omega=float(1.0 + dev[j, worst]))
        checked = done

    ys[:, n:] += 1.0   # the speeds
    return Trajectory(times=times, states=ys, regime=regimes)
