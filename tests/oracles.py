"""Independently coded reference implementations the tests compare against.

Each oracle recomputes its quantity from first principles through a
different route than the package (Gauss-Seidel instead of Newton, direct
stamp summation instead of the builder loop, a textbook linear Kalman
recursion, dense block solves instead of the reduced matrix).  Only plain
data types are imported from the package; no computational code is shared.
The module also holds the case helpers that only the tests need:
``dump_case`` and ``without_branch``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import scipy.linalg
import scipy.optimize

from powerdse.cases import Branch, BusKind, CaseError, NetworkCase
from powerdse.reduction import ExtendedAdmittance, ReductionError


def ybus_direct(case: NetworkCase) -> np.ndarray:
    """Admittance matrix by direct per-entry summation over a stamp dict."""
    order = {bus.id: k for k, bus in enumerate(case.buses)}
    stamps: dict[tuple[int, int], complex] = {}

    def add(i: int, j: int, value: complex) -> None:
        stamps[(i, j)] = stamps.get((i, j), 0j) + value

    for br in case.branches:
        y_series = 1.0 / (br.r + 1j * br.x)
        y_half = 1j * br.b_shunt / 2.0
        a = br.tap
        f, t = order[br.from_bus], order[br.to_bus]
        add(f, f, (y_series + y_half) / a ** 2)
        add(t, t, y_series + y_half)
        add(f, t, -y_series / a)
        add(t, f, -y_series / a)
    for bus in case.buses:
        add(order[bus.id], order[bus.id], bus.shunt)

    n = len(case.buses)
    out = np.zeros((n, n), dtype=complex)
    for (i, j), value in stamps.items():
        out[i, j] = value
    return out


def gauss_seidel_power_flow(case: NetworkCase, tol: float = 1e-10,
                            max_sweeps: int = 200_000) -> np.ndarray:
    """Gauss-Seidel bus voltages, iterated until the largest per-sweep
    voltage change falls below ``tol``.  Returns the complex voltage vector.
    """
    ybus = ybus_direct(case)
    n = len(case.buses)
    kinds = [bus.kind for bus in case.buses]

    p_sched = np.zeros(n)
    q_sched = np.zeros(n)
    for k, bus in enumerate(case.buses):
        p_sched[k] -= bus.p_load
        q_sched[k] -= bus.q_load
    order = {bus.id: k for k, bus in enumerate(case.buses)}
    for m in case.machines:
        if m.p_gen is not None:
            p_sched[order[m.bus]] += m.p_gen
        if m.q_gen is not None:
            q_sched[order[m.bus]] += m.q_gen

    v = np.ones(n, dtype=complex)
    for k, bus in enumerate(case.buses):
        if bus.v_setpoint is not None:
            v[k] = bus.v_setpoint

    for _ in range(max_sweeps):
        worst = 0.0
        for k in range(n):
            if kinds[k] is BusKind.SLACK:
                continue
            i_calc = ybus[k] @ v
            if kinds[k] is BusKind.PV:
                q_k = (v[k] * np.conj(i_calc)).imag
            else:
                q_k = q_sched[k]
            s_k = p_sched[k] + 1j * q_k
            v_new = (np.conj(s_k / v[k]) - (i_calc - ybus[k, k] * v[k])) / ybus[k, k]
            if kinds[k] is BusKind.PV:
                v_new *= case.buses[k].v_setpoint / abs(v_new)
            worst = max(worst, abs(v_new - v[k]))
            v[k] = v_new
        if worst < tol:
            return v
    raise RuntimeError(f"gauss-seidel did not reach {tol} in {max_sweeps} sweeps")


def central_difference(func, x: np.ndarray, eps: float = 1e-7) -> np.ndarray:
    """Plain fixed-step central-difference Jacobian (no per-component scaling)."""
    x = np.asarray(x, dtype=float)
    columns = []
    for j in range(x.size):
        bump = np.zeros_like(x)
        bump[j] = eps
        columns.append((func(x + bump) - func(x - bump)) / (2.0 * eps))
    return np.column_stack(columns)


def linear_kalman(a: np.ndarray, c: np.ndarray, q: np.ndarray, r: np.ndarray,
                  x0: np.ndarray, p0: np.ndarray,
                  zs: list[np.ndarray]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Textbook Kalman recursion for x' = Ax + w, z = Cx + v.

    Returns posterior means and covariances after each measurement.
    """
    x = x0.copy()
    p = p0.copy()
    means, covs = [], []
    for z in zs:
        x = a @ x
        p = a @ p @ a.T + q
        s = c @ p @ c.T + r
        k = p @ c.T @ np.linalg.inv(s)
        x = x + k @ (z - c @ x)
        p = (np.eye(x.size) - k @ c) @ p
        p = 0.5 * (p + p.T)
        means.append(x.copy())
        covs.append(p.copy())
    return means, covs


def extended_system_currents(y11: np.ndarray, y12: np.ndarray,
                             y21: np.ndarray, y22: np.ndarray,
                             e: np.ndarray) -> np.ndarray:
    """Machine currents from the full block system, no reduced matrix.

    Solves the zero-injection network equations for the interior voltages
    and evaluates the machine-side block row directly.
    """
    v = scipy.linalg.solve(y11, -y12 @ e)
    return y21 @ v + y22 @ e


def remove_bus(ext: ExtendedAdmittance, bus_id: int) -> ExtendedAdmittance:
    """Extended system with one network bus deleted (a solid fault to
    ground): the fresh fault-on system that the rank-one update of
    ``reduction.fault_network`` must reduce to."""
    if bus_id not in ext.bus_order:
        raise ReductionError(f"bus {bus_id} is not part of the extended network")
    pos = ext.bus_order.index(bus_id)
    keep = [i for i in range(len(ext.bus_order)) if i != pos]
    return ExtendedAdmittance(
        y11=ext.y11[np.ix_(keep, keep)],
        y12=ext.y12[keep, :],
        y21=ext.y21[:, keep],
        y22=ext.y22,
        bus_order=tuple(b for b in ext.bus_order if b != bus_id),
        machine_order=ext.machine_order,
    )


def dump_case(case: NetworkCase) -> str:
    """Serialize a case to the text format.  parse_case inverts this exactly."""

    def opt(value: float | None) -> str:
        return "-" if value is None else repr(value)

    out = [
        f"name {case.name}",
        f"base_mva {case.base_mva!r}",
        f"frequency {case.frequency!r}",
        "",
        "[buses]",
    ]
    with_shunt = any(b.shunt != 0j for b in case.buses)
    for b in case.buses:
        row = f"{b.id} {b.kind.value} {b.p_load!r} {b.q_load!r} {opt(b.v_setpoint)}"
        if with_shunt:
            row += f" {b.shunt.real!r} {b.shunt.imag!r}"
        out.append(row)
    out.append("")
    out.append("[branches]")
    for br in case.branches:
        out.append(f"{br.from_bus} {br.to_bus} {br.r!r} {br.x!r} {br.b_shunt!r} {br.tap!r}")
    out.append("")
    out.append("[machines]")
    with_qgen = any(m.q_gen is not None for m in case.machines)
    for m in case.machines:
        row = f"{m.bus} {m.h!r} {m.d!r} {m.xd_prime!r} {opt(m.p_gen)}"
        if with_qgen:
            row += f" {opt(m.q_gen)}"
        out.append(row)
    out.append("")
    return "\n".join(out)


def without_branch(case: NetworkCase, from_bus: int, to_bus: int) -> NetworkCase:
    """Copy of the case with one branch removed (either end order accepted)."""
    ends = {from_bus, to_bus}
    kept: list[Branch] = []
    dropped = False
    for br in case.branches:
        if not dropped and {br.from_bus, br.to_bus} == ends:
            dropped = True
            continue
        kept.append(br)
    if not dropped:
        raise CaseError(f"no branch {from_bus}-{to_bus} in case {case.name!r}")
    return replace(case, branches=tuple(kept))


def static_angle_inversion(z: np.ndarray, observe, n_machines: int,
                           start: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-frame weighted nonlinear least squares over the rotor angles.

    ``observe`` maps a full state vector to a predicted measurement; speeds
    are pinned at synchronous since a single frame carries no speed
    information.  Returns the estimated angle vector.
    """

    def residual(delta: np.ndarray) -> np.ndarray:
        x = np.concatenate([delta, np.ones(n_machines)])
        return (observe(x) - z) * weights

    result = scipy.optimize.least_squares(residual, start, method="lm")
    return result.x


def reference_swing_trajectory(delta0: np.ndarray, omega0_state: np.ndarray,
                               h: np.ndarray, d: np.ndarray, e_mag: np.ndarray,
                               p_mech: np.ndarray, y_red: np.ndarray,
                               omega_base: float, t_span: tuple[float, float],
                               t_eval: np.ndarray) -> np.ndarray:
    """High-accuracy swing integration via an adaptive library integrator.

    Independent of the package's fixed-step scheme; used to bound its error
    over a single-topology window.  Returns states stacked (len(t_eval), 2n).
    """
    import scipy.integrate

    n = delta0.size

    def rhs(_t, y):
        delta, omega = y[:n], y[n:]
        emf = e_mag * np.exp(1j * delta)
        p_e = (emf * np.conj(y_red @ emf)).real
        dev = omega - 1.0
        return np.concatenate([
            omega_base * dev,
            (p_mech - p_e - d * dev) / (2.0 * h),
        ])

    sol = scipy.integrate.solve_ivp(
        rhs, t_span, np.concatenate([delta0, omega0_state]),
        t_eval=t_eval, rtol=1e-11, atol=1e-12, method="DOP853")
    return sol.y.T
