"""Reduction of the network to machine internal nodes.

Loads become constant admittances at their power-flow voltages, every machine
adds an internal emf node behind its transient reactance, and all network
buses are then eliminated, leaving a dense machine-to-machine admittance plus
a linear map that reconstructs network bus voltages from the internal emfs.
The contingencies of one case share one ``reduction_base``: each fault-on
network is a rank-one update of it, and each post network one reduction of
its bus block less a branch stamp.
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
    y22 couples machine nodes, y12/y21 tie each machine to its terminal bus.
    """

    y11: np.ndarray
    y12: np.ndarray
    y21: np.ndarray
    y22: np.ndarray
    bus_order: tuple[int, ...]
    machine_order: tuple[int, ...]


@dataclass(frozen=True)
class ReducedNetwork:
    """Machine-node equivalent left after eliminating all network buses."""

    y_red: np.ndarray
    r_v: np.ndarray
    bus_order: tuple[int, ...]
    machine_order: tuple[int, ...]

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
        y11=y11, y12=y12, y21=y12.T.copy(), y22=y22,
        bus_order=tuple(b.id for b in case.buses),
        machine_order=case.machine_buses(),
    )


def _check_conditioning(cond: float, block: str) -> None:
    """Raise ReductionError naming ``block`` when its 1-norm condition
    number ``cond`` is not finite or exceeds 1e12."""
    if not np.isfinite(cond) or cond > 1e12:
        raise ReductionError(
            f"{block} is numerically singular (cond {cond:.3e})")


def _inverse(y11: np.ndarray) -> np.ndarray:
    """Inverse of a bus block that passes ``_check_conditioning``."""
    try:
        inv = np.linalg.inv(y11)
    except np.linalg.LinAlgError:
        cond = math.inf
    else:
        # the 1-norm condition number, from the inverse already in hand
        cond = np.linalg.norm(y11, 1) * np.linalg.norm(inv, 1)
    _check_conditioning(cond, "bus admittance block")
    return inv


def _reduced(ext: ExtendedAdmittance, inv: np.ndarray) -> ReducedNetwork:
    """The machine-node equivalent of ``ext``, given the inverse of its bus
    block."""
    solved = inv @ ext.y12
    return ReducedNetwork(
        y_red=ext.y22 - ext.y21 @ solved,
        r_v=-solved,
        bus_order=ext.bus_order,
        machine_order=ext.machine_order,
    )


def kron_reduce(ext: ExtendedAdmittance) -> ReducedNetwork:
    """Eliminate all network buses, keeping only machine internal nodes.

    Also returns the reconstruction matrix r_v mapping internal emfs to the
    eliminated bus voltages.  Raises ReductionError when the bus block is
    numerically singular.
    """
    return _reduced(ext, _inverse(ext.y11))


@dataclass(frozen=True)
class ReductionBase:
    """What every contingency of one case at one operating point shares:
    the extended admittance, the inverse ``z`` of its bus block and the
    pre-fault reduction made with that inverse.  Its arrays are read-only."""

    ext: ExtendedAdmittance
    z: np.ndarray
    pre: ReducedNetwork


def reduction_base(ext: ExtendedAdmittance) -> ReductionBase:
    """Invert the bus block of ``ext`` once and reduce the intact network
    with it, as ``kron_reduce`` does; the fault-on and post networks of
    every contingency derive from the result."""
    z = _inverse(ext.y11)
    pre = _reduced(ext, z)
    for array in (ext.y11, ext.y12, ext.y21, ext.y22, z, pre.y_red, pre.r_v):
        array.flags.writeable = False
    return ReductionBase(ext=ext, z=z, pre=pre)


def _norm_without(mat: np.ndarray, k: int) -> float:
    """The 1-norm of ``mat`` with row and column k deleted."""
    mags = np.abs(mat)
    mags[k] = 0.0
    mags[:, k] = 0.0
    return float(mags.sum(axis=0).max())


def fault_network(base: ReductionBase, bus_id: int) -> ReducedNetwork:
    """The reduced network with bus ``bus_id`` grounded by a solid fault,
    derived from the base without a new inverse.

    Pinning the bus voltage V_k to zero takes an injection
    -r_v[k] E / Z_kk at bus k, with z_k the k-th column of the base's Z.
    The bus voltages become r_v - z_k r_v[k] / Z_kk, whose row k is zero
    and is dropped, and the machine admittance takes the rank-one update
    y_red - (Y21 z_k) r_v[k] / Z_kk: the Z-bus short-circuit update.

    The bus block without bus k has the inverse Z_keep - z_k Z_k,keep / Z_kk
    (z_k z_k^T / Z_kk, as Z is symmetric), so its 1-norm condition number
    comes without a new inverse too.  As in
    ``kron_reduce``, a block whose condition number is not finite or
    exceeds 1e12 raises ReductionError, which names the faulted bus.
    """
    ext, z, pre = base.ext, base.z, base.pre
    if bus_id not in ext.bus_order:
        raise ReductionError(f"bus {bus_id} is not part of the extended network")
    k = ext.bus_order.index(bus_id)
    z_k = z[:, k]
    z_kk = z_k[k]
    cond = math.inf
    if z_kk != 0.0:
        with np.errstate(all="ignore"):   # a huge downdate reads as inf
            down = z - np.outer(z_k, z[k] / z_kk)
            cond = _norm_without(ext.y11, k) * _norm_without(down, k)
    _check_conditioning(
        cond, f"bus admittance block without faulted bus {bus_id}")
    gain = pre.r_v[k] / z_kk
    return ReducedNetwork(
        y_red=pre.y_red - np.outer(ext.y21 @ z_k, gain),
        r_v=np.delete(pre.r_v - np.outer(z_k, gain), k, axis=0),
        bus_order=ext.bus_order[:k] + ext.bus_order[k + 1:],
        machine_order=ext.machine_order,
    )


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
