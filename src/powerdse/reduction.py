"""Reduction of the network to machine internal nodes.

Loads become constant admittances at their power-flow voltages, every machine
adds an internal emf node behind its transient reactance, and all network
buses are then eliminated, leaving a dense machine-to-machine admittance plus
a linear map that reconstructs network bus voltages from the internal emfs.
Every topology of a scenario is one ``kron_reduce`` of its extended system:
the intact one, the one with the faulted bus grounded (``ground_bus``) and
the one with the cleared line open (``open_branch``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cases import Branch, NetworkCase
from .powerflow import PowerFlowSolution, branch_stamp, build_ybus


class ReductionError(RuntimeError):
    """The network block to eliminate is singular or disconnected."""


@dataclass(frozen=True)
class ExtendedAdmittance:
    """Block admittance of the network augmented with machine internal nodes.

    Block rows/columns are (network buses, machine nodes): y11 couples buses,
    y22 couples machine nodes, y12 buses to machines (``y12.T`` the reverse).
    """

    y11: np.ndarray
    y12: np.ndarray
    y22: np.ndarray
    bus_order: tuple[int, ...]


@dataclass(frozen=True)
class ReducedNetwork:
    """Machine-node equivalent left after eliminating all network buses."""

    y_red: np.ndarray
    r_v: np.ndarray
    bus_order: tuple[int, ...]

    @property
    def n_machines(self) -> int:
        return self.y_red.shape[0]


def extend_network(case: NetworkCase, pf: PowerFlowSolution) -> ExtendedAdmittance:
    """Augment the bus admittance matrix with loads and machine internal nodes.

    Loads enter as fixed shunt admittances conj(S_load)/|V|^2 at their
    power-flow voltage magnitudes; each machine contributes 1/(j xd') between
    its internal node and its terminal bus.  Loads sharing a machine's
    terminal bus stay on the bus side.
    """
    idx = case.bus_index()
    nb = len(case.buses)
    nm = len(case.machines)

    y11 = build_ybus(case)
    for pos, bus in enumerate(case.buses):
        if bus.p_load != 0.0 or bus.q_load != 0.0:
            vm = pf.v_mag[pos]
            y11[pos, pos] += complex(bus.p_load, -bus.q_load) / (vm * vm)

    y12 = np.zeros((nb, nm), dtype=complex)
    y22 = np.zeros((nm, nm), dtype=complex)
    for col, m in enumerate(case.machines):
        ym = 1.0 / complex(0.0, m.xd_prime)
        pos = idx[m.bus]
        y11[pos, pos] += ym
        y22[col, col] = ym
        y12[pos, col] = -ym

    return ExtendedAdmittance(
        y11=y11, y12=y12, y22=y22,
        bus_order=tuple(b.id for b in case.buses),
    )


def kron_reduce(ext: ExtendedAdmittance) -> ReducedNetwork:
    """Eliminate all network buses, keeping only machine internal nodes.

    Also returns the reconstruction matrix r_v mapping internal emfs to the
    eliminated bus voltages.  Raises ReductionError when the bus block is
    numerically singular: its 1-norm condition number is not finite or
    exceeds 1e12.
    """
    try:
        inv = np.linalg.inv(ext.y11)
    except np.linalg.LinAlgError:
        cond = math.inf
    else:
        # the 1-norm condition number, from the inverse already in hand
        cond = np.linalg.norm(ext.y11, 1) * np.linalg.norm(inv, 1)
    if not np.isfinite(cond) or cond > 1e12:
        raise ReductionError(
            f"bus admittance block is numerically singular (cond {cond:.3e})")
    solved = inv @ ext.y12
    return ReducedNetwork(
        y_red=ext.y22 - ext.y12.T @ solved,
        r_v=-solved,
        bus_order=ext.bus_order,
    )


def ground_bus(ext: ExtendedAdmittance, bus_id: int) -> ExtendedAdmittance:
    """The extended system with bus ``bus_id`` grounded by a solid fault:
    its row and column deleted, as its voltage is pinned to zero."""
    if bus_id not in ext.bus_order:
        raise ReductionError(f"bus {bus_id} is not part of the extended network")
    k = ext.bus_order.index(bus_id)
    keep = np.delete(np.arange(len(ext.bus_order)), k)
    return replace(ext, y11=ext.y11[np.ix_(keep, keep)], y12=ext.y12[keep],
                   bus_order=ext.bus_order[:k] + ext.bus_order[k + 1:])


def open_branch(ext: ExtendedAdmittance, br: Branch) -> ExtendedAdmittance:
    """The extended system with branch ``br`` open: its bus block less the
    branch's ``branch_stamp``, the rest shared with ``ext``."""
    f = ext.bus_order.index(br.from_bus)
    t = ext.bus_order.index(br.to_bus)
    y_ff, y_tt, y_ft = branch_stamp(br)
    y11 = ext.y11.copy()
    y11[f, f] -= y_ff
    y11[t, t] -= y_tt
    y11[f, t] -= y_ft
    y11[t, f] -= y_ft
    return replace(ext, y11=y11)


def _apply(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """``mat @ vec`` for each row of a (..., n) stack.

    Each row is its own (1, n) by (n, r) product in one batched matmul, so
    every row takes the same matrix-vector kernel whatever the stack size
    and is bitwise the row evaluated alone.  A plain ``vec @ mat.T`` would
    not be: BLAS takes a different kernel for one row than for many
    (``test_stacked_outputs_match_single_states`` pins this).
    """
    return np.matmul(vec[..., None, :], mat.T)[..., 0, :]


def complex_power(delta: np.ndarray, e_mag: np.ndarray, net: ReducedNetwork
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean rotor angle, emfs referenced to it and complex machine powers
    S = E conj(Y E) for rotor angles (..., n).

    The one expression of the machine power: the swing process model,
    ``machine_init`` and the measurement model all evaluate it.  The common
    rotation cancels in S.  Each row of a stack is bitwise the value that row
    gives alone.
    """
    ref = np.add.reduce(delta, -1, keepdims=True) / delta.shape[-1]
    emf = e_mag * np.exp(1j * (delta - ref))
    return ref, emf, emf * np.conj(_apply(net.y_red, emf))


def electrical_power(delta: np.ndarray, e_mag: np.ndarray,
                     net: ReducedNetwork) -> np.ndarray:
    """Per-machine electrical power over the reduced network, in per unit:
    the real part of ``complex_power``, on (..., n) angles."""
    return complex_power(delta, e_mag, net)[2].real


def power_sensitivity(emf: np.ndarray, power: np.ndarray,
                      net: ReducedNetwork) -> np.ndarray:
    """dS_i/d delta_k (n, n) at one state, from its ``complex_power`` emfs
    and powers: j (delta_ik S_i - emf_i conj(Y_ik emf_k)).  Its real and
    imaginary parts are the derivatives of P and Q."""
    ds = -1j * (emf[:, None] * np.conj(net.y_red * emf))
    ds.ravel()[::ds.shape[0] + 1] += 1j * power
    return ds


@dataclass(frozen=True)
class MachineParams:
    """Per-machine swing-dynamics constants and equilibrium rotor angles."""

    h: np.ndarray
    d: np.ndarray
    e_mag: np.ndarray
    p_mech: np.ndarray
    omega0: float
    delta0: np.ndarray

    @property
    def n_machines(self) -> int:
        return self.h.size


def machine_init(case: NetworkCase, pf: PowerFlowSolution,
                 net: ReducedNetwork) -> MachineParams:
    """Machine constants and internal states from a converged power flow.

    The emf is the terminal voltage plus the transient-reactance drop at the
    machine's net generated power (bus injection plus local load).  Mechanical
    power is set to the electrical power over the pre-fault network ``net`` at
    the equilibrium angles, so an unfaulted simulation started here stays put.
    """
    idx = case.bus_index()
    emf = np.zeros(len(case.machines), dtype=complex)
    for k, m in enumerate(case.machines):
        pos = idx[m.bus]
        v = pf.v_mag[pos] * np.exp(1j * pf.v_ang[pos])
        bus = case.buses[pos]
        s_gen = complex(pf.p_inj[pos] + bus.p_load, pf.q_inj[pos] + bus.q_load)
        current = np.conj(s_gen / v)
        emf[k] = v + 1j * m.xd_prime * current
    delta0 = np.angle(emf)
    e_mag = np.abs(emf)
    # Evaluated at the polar (delta0, e_mag) pair with the process model's own
    # expression: the equilibrium is then a bitwise fixed point of it.
    p_mech = electrical_power(delta0, e_mag, net)
    return MachineParams(h=np.array([m.h for m in case.machines]),
                         d=np.array([m.d for m in case.machines]),
                         e_mag=e_mag, p_mech=p_mech,
                         omega0=2.0 * math.pi * case.frequency, delta0=delta0)
