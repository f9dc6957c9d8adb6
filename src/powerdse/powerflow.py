"""Steady-state AC power flow: Y-bus assembly and a polar Newton solver."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cases import Branch, BusKind, NetworkCase


class PowerFlowError(RuntimeError):
    """Newton iteration failed to converge or hit a singular Jacobian."""


@dataclass(frozen=True)
class PowerFlowSolution:
    """Converged bus voltages and net complex injections, all in per unit."""

    v_mag: np.ndarray
    v_ang: np.ndarray
    p_inj: np.ndarray
    q_inj: np.ndarray
    iterations: int
    max_mismatch: float


def branch_stamp(br: Branch) -> tuple[complex, complex, complex]:
    """A branch's terms in the bus admittance matrix: its from diagonal, its
    to diagonal and the coupling, which sits at both (from, to) and (to, from).

    The series admittance carries half the total line charging at each end;
    an off-nominal tap sits on the from side, so the from diagonal sees the
    branch through 1/tap^2 and the coupling through 1/tap.
    """
    series = 1.0 / complex(br.r, br.x)
    charging = 0.5j * br.b_shunt
    return ((series + charging) / (br.tap * br.tap), series + charging,
            -series / br.tap)


def build_ybus(case: NetworkCase) -> np.ndarray:
    """Dense complex bus admittance matrix in case bus order: every
    ``branch_stamp``, then the fixed bus shunt admittances on the diagonal.
    """
    idx = case.bus_index()
    n = len(case.buses)
    ybus = np.zeros((n, n), dtype=complex)
    for br in case.branches:
        f, t = idx[br.from_bus], idx[br.to_bus]
        y_ff, y_tt, y_ft = branch_stamp(br)
        ybus[f, f] += y_ff
        ybus[t, t] += y_tt
        ybus[f, t] += y_ft
        ybus[t, f] += y_ft
    for pos, bus in enumerate(case.buses):
        ybus[pos, pos] += bus.shunt
    return ybus


def complex_injections(ybus: np.ndarray, v_mag: np.ndarray, v_ang: np.ndarray) -> np.ndarray:
    """Net complex power injected at every bus for the given voltage profile."""
    v = v_mag * np.exp(1j * v_ang)
    return v * np.conj(ybus @ v)


def _scheduled(case: NetworkCase) -> tuple[np.ndarray, np.ndarray]:
    """Scheduled net (p, q) injections: generation minus load, per bus."""
    idx = case.bus_index()
    p = np.zeros(len(case.buses))
    q = np.zeros(len(case.buses))
    for pos, bus in enumerate(case.buses):
        p[pos] -= bus.p_load
        q[pos] -= bus.q_load
    for m in case.machines:
        if m.p_gen is not None:
            p[idx[m.bus]] += m.p_gen
        if m.q_gen is not None:
            q[idx[m.bus]] += m.q_gen
    return p, q


def _bus_classes(case: NetworkCase) -> tuple[np.ndarray, np.ndarray]:
    """(pv+pq positions, pq positions) in case bus order."""
    kinds = [bus.kind for bus in case.buses]
    pvpq = np.array([i for i, k in enumerate(kinds) if k is not BusKind.SLACK], dtype=int)
    pq = np.array([i for i, k in enumerate(kinds) if k is BusKind.PQ], dtype=int)
    return pvpq, pq


def mismatch(case: NetworkCase, ybus: np.ndarray, v_mag: np.ndarray,
             v_ang: np.ndarray) -> np.ndarray:
    """Stacked power-balance residual: scheduled minus calculated.

    Layout is active-power entries for every non-slack bus followed by
    reactive-power entries for every load bus, both in case bus order.
    """
    pvpq, pq = _bus_classes(case)
    p_sched, q_sched = _scheduled(case)
    s = complex_injections(ybus, v_mag, v_ang)
    return np.concatenate([(p_sched - s.real)[pvpq], (q_sched - s.imag)[pq]])


def mismatch_jacobian(case: NetworkCase, ybus: np.ndarray, v_mag: np.ndarray,
                      v_ang: np.ndarray) -> np.ndarray:
    """Jacobian of ``mismatch`` with respect to [angles at non-slack, magnitudes at pq]."""
    pvpq, pq = _bus_classes(case)
    v = v_mag * np.exp(1j * v_ang)
    ibus = ybus @ v
    diag_v = np.diag(v)
    diag_i = np.diag(ibus)
    diag_unit = np.diag(np.exp(1j * v_ang))
    ds_dva = 1j * diag_v @ np.conj(diag_i - ybus @ diag_v)
    ds_dvm = diag_v @ np.conj(ybus @ diag_unit) + np.conj(diag_i) @ diag_unit
    top = np.hstack([ds_dva.real[np.ix_(pvpq, pvpq)], ds_dvm.real[np.ix_(pvpq, pq)]])
    bottom = np.hstack([ds_dva.imag[np.ix_(pq, pvpq)], ds_dvm.imag[np.ix_(pq, pq)]])
    return -np.vstack([top, bottom])


def solve_power_flow(case: NetworkCase, tol: float = 1e-8,
                     max_iter: int = 20) -> PowerFlowSolution:
    """Full-Jacobian Newton power flow from a flat start.

    Convergence means the largest absolute mismatch entry drops below ``tol``.
    ``iterations`` counts mismatch evaluations, so an already-balanced case
    reports 1.  Raises PowerFlowError on divergence, a singular Jacobian,
    ``max_iter`` below 1 or a ``tol`` that is not a positive finite number.
    """
    if max_iter < 1 or not 0 < tol < np.inf:
        raise PowerFlowError(f"power flow needs max_iter >= 1 and a positive "
                             f"finite tol, got max_iter={max_iter}, tol={tol}")
    ybus = build_ybus(case)
    pvpq, pq = _bus_classes(case)
    n_ang = pvpq.size

    v_mag = np.ones(len(case.buses))
    v_ang = np.zeros(len(case.buses))
    for pos, bus in enumerate(case.buses):
        if bus.v_setpoint is not None:
            v_mag[pos] = bus.v_setpoint

    for iteration in range(1, max_iter + 1):
        residual = mismatch(case, ybus, v_mag, v_ang)
        worst = float(np.max(np.abs(residual))) if residual.size else 0.0
        if worst < tol:
            s = complex_injections(ybus, v_mag, v_ang)
            return PowerFlowSolution(
                v_mag=v_mag, v_ang=v_ang, p_inj=s.real, q_inj=s.imag,
                iterations=iteration, max_mismatch=worst,
            )
        jac = mismatch_jacobian(case, ybus, v_mag, v_ang)
        try:
            step = np.linalg.solve(jac, residual)
        except np.linalg.LinAlgError as exc:
            raise PowerFlowError(
                f"singular power-flow Jacobian at iteration {iteration}") from exc
        v_ang[pvpq] -= step[:n_ang]
        v_mag[pq] -= step[n_ang:]

    raise PowerFlowError(
        f"power flow did not converge in {max_iter} iterations "
        f"(last max mismatch {worst:.3e})")
