import numpy as np
import pytest

from powerdse import (
    Branch,
    Bus,
    BusKind,
    Machine,
    NetworkCase,
    PowerFlowError,
    build_ybus,
    complex_injections,
    mismatch,
    mismatch_jacobian,
    solve_power_flow,
)

from oracles import central_difference, gauss_seidel_power_flow, ybus_direct


def two_bus(p_load=0.0, q_load=0.0, setpoint=1.0):
    return NetworkCase(
        name="twobus", base_mva=100.0, frequency=60.0,
        buses=(Bus(1, BusKind.SLACK, v_setpoint=setpoint),
               Bus(2, BusKind.PQ, p_load=p_load, q_load=q_load)),
        branches=(Branch(1, 2, 0.0, 0.1),),
        machines=(Machine(1, 5.0, 0.0, 0.1),),
    )


def test_ybus_single_reactance():
    ybus = build_ybus(two_bus())
    expected = np.array([[-10j, 10j], [10j, -10j]])
    assert np.allclose(ybus, expected, atol=1e-12)


def test_ybus_isolated_bus_keeps_only_shunt():
    case = NetworkCase(
        name="island", base_mva=100.0, frequency=60.0,
        buses=(Bus(1, BusKind.SLACK, v_setpoint=1.0),
               Bus(2, BusKind.PQ),
               Bus(3, BusKind.PQ, shunt=0.2 + 0.05j)),
        branches=(Branch(1, 2, 0.0, 0.1),),
        machines=(Machine(1, 5.0, 0.0, 0.1),),
    )
    ybus = build_ybus(case)
    assert ybus[2, 2] == 0.2 + 0.05j
    assert np.all(ybus[2, :2] == 0) and np.all(ybus[:2, 2] == 0)


def test_wecc9_ybus_matches_direct_assembly(wecc9):
    assert np.max(np.abs(build_ybus(wecc9) - ybus_direct(wecc9))) < 1e-9


def test_ne39_ybus_matches_direct_assembly(ne39):
    assert np.max(np.abs(build_ybus(ne39) - ybus_direct(ne39))) < 1e-9


def test_ybus_row_sums_equal_shunts(wecc9):
    # All wecc9 taps are 1, so the series terms cancel in each row sum and
    # only the connected line-charging halves (plus bus shunts) remain.
    assert all(br.tap == 1.0 for br in wecc9.branches)
    idx = wecc9.bus_index()
    expected = np.array([bus.shunt for bus in wecc9.buses], dtype=complex)
    for br in wecc9.branches:
        expected[idx[br.from_bus]] += 1j * br.b_shunt / 2.0
        expected[idx[br.to_bus]] += 1j * br.b_shunt / 2.0
    assert np.allclose(build_ybus(wecc9).sum(axis=1), expected, atol=1e-12)


def test_zero_load_two_bus_flat():
    sol = solve_power_flow(two_bus())
    assert sol.iterations == 1
    assert np.allclose(sol.v_mag, [1.0, 1.0])
    assert np.allclose(sol.v_ang, [0.0, 0.0])


def test_wecc9_converges_quickly(wecc9):
    sol = solve_power_flow(wecc9, tol=1e-6, max_iter=10)
    assert sol.iterations <= 10
    assert sol.max_mismatch < 1e-6
    # PV magnitudes pinned at their setpoints
    for pos, bus in enumerate(wecc9.buses):
        if bus.v_setpoint is not None and bus.kind is not BusKind.PQ:
            assert sol.v_mag[pos] == bus.v_setpoint


def test_wecc9_matches_gauss_seidel(wecc9, wecc9_pf):
    v_ref = gauss_seidel_power_flow(wecc9, tol=1e-10)
    v = wecc9_pf.v_mag * np.exp(1j * wecc9_pf.v_ang)
    assert np.max(np.abs(v - v_ref)) < 1e-4


def test_wecc9_losses_nonnegative(wecc9, wecc9_pf):
    assert sum(b.p_load for b in wecc9.buses) == pytest.approx(3.15)
    # sum of net injections is generation minus load, i.e. the series losses
    assert np.sum(wecc9_pf.p_inj) >= 0.0
    assert np.sum(wecc9_pf.p_inj) < 0.1


def test_mismatch_small_at_solution(wecc9, wecc9_pf):
    ybus = build_ybus(wecc9)
    res = mismatch(wecc9, ybus, wecc9_pf.v_mag, wecc9_pf.v_ang)
    assert np.max(np.abs(res)) < 1e-8


def test_mismatch_at_flat_start(wecc9):
    ybus = build_ybus(wecc9)
    v_mag = np.ones(9)
    for pos, bus in enumerate(wecc9.buses):
        if bus.v_setpoint is not None:
            v_mag[pos] = bus.v_setpoint
    v_ang = np.zeros(9)
    res = mismatch(wecc9, ybus, v_mag, v_ang)

    p_sched = np.zeros(9)
    q_sched = np.zeros(9)
    idx = wecc9.bus_index()
    for pos, bus in enumerate(wecc9.buses):
        p_sched[pos] -= bus.p_load
        q_sched[pos] -= bus.q_load
    for m in wecc9.machines:
        if m.p_gen is not None:
            p_sched[idx[m.bus]] += m.p_gen
    s = complex_injections(ybus, v_mag, v_ang)
    kinds = [b.kind for b in wecc9.buses]
    pvpq = [i for i, k in enumerate(kinds) if k is not BusKind.SLACK]
    pq = [i for i, k in enumerate(kinds) if k is BusKind.PQ]
    expected = np.concatenate([(p_sched - s.real)[pvpq], (q_sched - s.imag)[pq]])
    assert np.array_equal(res, expected)
    assert np.max(np.abs(res)) > 0.1


def test_mismatch_zero_load_flat_start():
    case = two_bus()
    res = mismatch(case, build_ybus(case), np.ones(2), np.zeros(2))
    assert np.array_equal(res, np.zeros(2))


def test_jacobian_matches_finite_differences(wecc9, wecc9_pf, rng):
    ybus = build_ybus(wecc9)
    kinds = [b.kind for b in wecc9.buses]
    pvpq = np.array([i for i, k in enumerate(kinds) if k is not BusKind.SLACK])
    pq = np.array([i for i, k in enumerate(kinds) if k is BusKind.PQ])

    def residual_of(x):
        v_ang = wecc9_pf.v_ang.copy()
        v_mag = wecc9_pf.v_mag.copy()
        v_ang[pvpq] = x[:pvpq.size]
        v_mag[pq] = x[pvpq.size:]
        return mismatch(wecc9, ybus, v_mag, v_ang)

    for _ in range(5):
        x = np.concatenate([
            wecc9_pf.v_ang[pvpq] + rng.uniform(-0.3, 0.3, pvpq.size),
            wecc9_pf.v_mag[pq] + rng.uniform(-0.1, 0.1, pq.size),
        ])
        v_ang = wecc9_pf.v_ang.copy()
        v_mag = wecc9_pf.v_mag.copy()
        v_ang[pvpq] = x[:pvpq.size]
        v_mag[pq] = x[pvpq.size:]
        jac = mismatch_jacobian(wecc9, ybus, v_mag, v_ang)
        jac_fd = central_difference(residual_of, x, eps=1e-7)
        assert np.max(np.abs(jac - jac_fd)) / np.max(np.abs(jac_fd)) < 1e-6


def _independent_losses(case, v):
    """Complex power absorbed by branches and shunts, summed per element."""
    idx = case.bus_index()
    total = 0j
    for br in case.branches:
        y_series = 1.0 / (br.r + 1j * br.x)
        y_half = 1j * br.b_shunt / 2.0
        a = br.tap
        vf = v[idx[br.from_bus]]
        vt = v[idx[br.to_bus]]
        i_from = (y_series + y_half) / a ** 2 * vf - y_series / a * vt
        i_to = (y_series + y_half) * vt - y_series / a * vf
        total += vf * np.conj(i_from) + vt * np.conj(i_to)
    for pos, bus in enumerate(case.buses):
        total += abs(v[pos]) ** 2 * np.conj(bus.shunt)
    return total


@pytest.mark.parametrize("name", ["wecc9", "ne39"])
def test_complex_power_balance(name, request):
    case = request.getfixturevalue(name)
    sol = request.getfixturevalue(f"{name}_pf")
    v = sol.v_mag * np.exp(1j * sol.v_ang)
    injected = np.sum(sol.p_inj + 1j * sol.q_inj)
    assert abs(injected - _independent_losses(case, v)) < 10 * 1e-8


@pytest.mark.parametrize("setting", [
    {"max_iter": 0}, {"max_iter": -1}, {"tol": 0.0}, {"tol": -1e-8},
    {"tol": float("nan")}, {"tol": float("inf")},
], ids=["max_iter=0", "max_iter=-1", "tol=0", "tol<0", "tol=nan", "tol=inf"])
def test_solver_settings_rejected(setting, wecc9):
    # max_iter=0 raised UnboundLocalError on the unassigned last mismatch
    with pytest.raises(PowerFlowError, match="needs max_iter >= 1 and a "
                                             "positive finite tol"):
        solve_power_flow(wecc9, **setting)


def test_divergence_reported():
    with pytest.raises(PowerFlowError, match="did not converge|singular"):
        solve_power_flow(two_bus(p_load=100.0), max_iter=8)
