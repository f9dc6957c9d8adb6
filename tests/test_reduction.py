import numpy as np
import pytest

from powerdse import (
    Branch,
    Bus,
    BusKind,
    DynamicState,
    ExtendedAdmittance,
    FaultScenario,
    Machine,
    MachineParams,
    NetworkCase,
    PowerFlowSolution,
    ReductionError,
    build_ybus,
    extend_network,
    kron_reduce,
    machine_init,
    electrical_power,
    scenario_networks,
)
from powerdse import dynamics
from powerdse.dynamics import swing_rates
from powerdse.reduction import ground_bus

from oracles import extended_system_currents, remove_bus


def single_bus_case(p_load=1.0, q_load=0.0, xd=0.1):
    return NetworkCase(
        name="onebus", base_mva=100.0, frequency=60.0,
        buses=(Bus(1, BusKind.SLACK, p_load=p_load, q_load=q_load,
                   v_setpoint=1.0),),
        branches=(),
        machines=(Machine(1, 5.0, 0.0, xd),),
    )


def flat_solution(n, p_inj=None, q_inj=None):
    return PowerFlowSolution(
        v_mag=np.ones(n), v_ang=np.zeros(n),
        p_inj=np.zeros(n) if p_inj is None else np.asarray(p_inj, float),
        q_inj=np.zeros(n) if q_inj is None else np.asarray(q_inj, float),
        iterations=1, max_mismatch=0.0,
    )


def test_single_machine_blocks():
    ext = extend_network(single_bus_case(), flat_solution(1))
    assert np.allclose(ext.y11, [[1.0 - 10.0j]], atol=1e-12)
    assert np.allclose(ext.y12, [[10.0j]], atol=1e-12)
    assert np.allclose(ext.y22, [[-10.0j]], atol=1e-12)
    assert ext.bus_order == (1,)


def test_machine_free_blocks_empty(wecc9, wecc9_pf):
    bare = NetworkCase(name="nomachines", base_mva=100.0, frequency=60.0,
                       buses=wecc9.buses, branches=wecc9.branches, machines=())
    ext = extend_network(bare, wecc9_pf)
    assert ext.y12.shape == (9, 0)
    assert ext.y22.shape == (0, 0)
    expected = build_ybus(bare)
    for pos, bus in enumerate(bare.buses):
        if bus.p_load or bus.q_load:
            vm = wecc9_pf.v_mag[pos]
            expected[pos, pos] += complex(bus.p_load, -bus.q_load) / vm ** 2
    assert np.allclose(ext.y11, expected, atol=1e-12)


def test_wecc9_block_shapes(wecc9, wecc9_pf):
    ext = extend_network(wecc9, wecc9_pf)
    assert ext.y11.shape == (9, 9)
    assert ext.y12.shape == (9, 3)
    assert ext.y22.shape == (3, 3)


def test_network_rows_carry_no_injection_at_operating_point(wecc9, wecc9_pf,
                                                            wecc9_init):
    # With loads folded into y11, the network block rows see zero current
    # at the solved voltages and matching machine emfs.
    ext = extend_network(wecc9, wecc9_pf)
    v = wecc9_pf.v_mag * np.exp(1j * wecc9_pf.v_ang)
    e = wecc9_init.e_mag * np.exp(1j * wecc9_init.delta0)
    residual = ext.y11 @ v + ext.y12 @ e
    assert np.max(np.abs(residual)) < 1e-6


def scalar_ext():
    return ExtendedAdmittance(
        y11=np.array([[2.0 + 0j]]), y12=np.array([[-1.0 + 0j]]),
        y22=np.array([[1.0 + 0j]]), bus_order=(1,),
    )


def test_kron_scalar_elimination():
    net = kron_reduce(scalar_ext())
    assert np.allclose(net.y_red, [[0.5]], atol=1e-14)
    assert np.allclose(net.r_v, [[0.5]], atol=1e-14)


def test_kron_decoupled_blocks():
    ext = ExtendedAdmittance(
        y11=np.diag([2.0 + 1j, 3.0 - 1j]),
        y12=np.zeros((2, 2), dtype=complex),
        y22=np.array([[1.0 - 5j, 0.5j], [0.5j, 2.0 - 4j]]),
        bus_order=(1, 2),
    )
    net = kron_reduce(ext)
    assert np.array_equal(net.y_red, ext.y22)
    assert np.all(net.r_v == 0)


@pytest.mark.parametrize("name", ["wecc9", "ne39"])
def test_kron_equivalence_random_voltages(name, request, rng):
    case = request.getfixturevalue(name)
    pf = request.getfixturevalue(f"{name}_pf")
    ext = extend_network(case, pf)
    net = kron_reduce(ext)
    nm = len(case.machines)
    for _ in range(100):
        e = rng.normal(size=nm) + 1j * rng.normal(size=nm)
        direct = extended_system_currents(ext.y11, ext.y12, ext.y12.T,
                                          ext.y22, e)
        assert np.max(np.abs(net.y_red @ e - direct)) < 1e-9


@pytest.mark.parametrize("name", ["wecc9", "ne39"])
def test_reconstruction_residual(name, request, rng):
    case = request.getfixturevalue(name)
    pf = request.getfixturevalue(f"{name}_pf")
    ext = extend_network(case, pf)
    net = kron_reduce(ext)
    nm = len(case.machines)
    for _ in range(100):
        e = rng.normal(size=nm) + 1j * rng.normal(size=nm)
        residual = ext.y11 @ (net.r_v @ e) + ext.y12 @ e
        assert np.max(np.abs(residual)) < 1e-9


def test_reduced_matrix_symmetric(wecc9_net, ne39_net):
    for net in (wecc9_net, ne39_net):
        assert np.max(np.abs(net.y_red - net.y_red.T)) < 1e-9


def test_remove_bus(wecc9, wecc9_pf):
    ext = extend_network(wecc9, wecc9_pf)
    smaller = remove_bus(ext, 8)
    assert smaller.y11.shape == (8, 8)
    assert smaller.y12.shape == (8, 3)
    assert 8 not in smaller.bus_order
    # the faulted system still reduces cleanly
    net = kron_reduce(smaller)
    assert net.y_red.shape == (3, 3)
    with pytest.raises(ReductionError, match="17"):
        remove_bus(ext, 17)


def two_bus_block(y11):
    """Two network buses with bus block ``y11`` and one machine on bus 1."""
    return ExtendedAdmittance(
        y11=np.asarray(y11, dtype=complex),
        y12=np.array([[1.0 + 0j], [0.0]]),
        y22=np.array([[1.0 + 0j]]),
        bus_order=(1, 2),
    )


def test_kron_singular_block_rejected():
    with pytest.raises(ReductionError, match="singular"):
        kron_reduce(two_bus_block([[1.0, 1.0], [1.0, 1.0]]))


def test_kron_near_singular_block_rejected():
    # invertible, but with a 1-norm condition number near 1e14
    y11 = [[1.0, 1.0], [1.0, 1.0 + 4e-14]]
    assert 1e13 < np.linalg.cond(y11, 1) < 1e15
    with pytest.raises(ReductionError, match="singular"):
        kron_reduce(two_bus_block(y11))


def relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("name", ["wecc9", "ne39"])
def test_fault_network_matches_removed_bus(name, request, rng):
    # every bus grounded in turn, against dense block solves of the system
    # with that bus deleted
    case = request.getfixturevalue(name)
    ext = extend_network(case, request.getfixturevalue(f"{name}_pf"))
    nm = len(case.machines)
    emfs = rng.normal(size=(3, nm)) + 1j * rng.normal(size=(3, nm))
    for bus_id in ext.bus_order:
        got = kron_reduce(ground_bus(ext, bus_id))
        want = remove_bus(ext, bus_id)
        assert got.bus_order == want.bus_order
        for e in emfs:
            currents = extended_system_currents(want.y11, want.y12,
                                                want.y12.T, want.y22, e)
            assert relative_gap(got.y_red @ e, currents) <= 1e-12
            injected = want.y12 @ e
            residual = want.y11 @ (got.r_v @ e) + injected
            assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(injected))
    with pytest.raises(ReductionError, match="77"):
        ground_bus(ext, 77)


def three_bus_line():
    """Buses 1-2-3 in a line, one machine on bus 1."""
    return NetworkCase(
        name="threebus", base_mva=100.0, frequency=60.0,
        buses=(Bus(1, BusKind.SLACK, v_setpoint=1.0), Bus(2, BusKind.PQ),
               Bus(3, BusKind.PQ)),
        branches=(Branch(1, 2, 0.0, 0.1), Branch(2, 3, 0.0, 0.1)),
        machines=(Machine(1, 5.0, 0.0, 0.1),),
    )


@pytest.mark.parametrize("y22", [1.0, 1.0 + 4e-14])
def test_fault_network_singular_block_rejected(y22, monkeypatch):
    # The full bus block is invertible, but without bus 3 (or bus 1) the
    # two buses left are one node, or nearly (a condition number near
    # 1e14): the fault-on block is singular.
    y11 = [[1.0, 1.0, 0.0], [1.0, y22, 1.0], [0.0, 1.0, 1.0]]
    ext = ExtendedAdmittance(
        y11=np.asarray(y11, dtype=complex),
        y12=np.array([[1.0 + 0j], [0.0], [0.0]]),
        y22=np.array([[1.0 + 0j]]),
        bus_order=(1, 2, 3),
    )
    with pytest.raises(ReductionError, match="singular"):
        kron_reduce(ground_bus(ext, 3))
    # scenario_networks names the faulted bus, here on a three-bus case
    # whose extended system is this one
    monkeypatch.setattr(dynamics, "extend_network", lambda case, pf: ext)
    with pytest.raises(ReductionError,
                       match="without faulted bus 3: .*singular"):
        scenario_networks(three_bus_line(), flat_solution(3),
                          FaultScenario(fault_bus=3, cleared_line=(1, 2)))
    # without bus 2 the block is the identity
    want = remove_bus(ext, 2)
    e = np.array([0.8 + 0.6j])
    currents = extended_system_currents(want.y11, want.y12, want.y12.T,
                                        want.y22, e)
    assert np.allclose(kron_reduce(ground_bus(ext, 2)).y_red @ e, currents,
                       rtol=1e-12, atol=1e-12)


def test_reduction_base_read_only(wecc9, wecc9_pf):
    # every contingency of a case reads the same kept extended system and
    # pre-fault network, so none may change them
    first = scenario_networks(wecc9, wecc9_pf, FaultScenario(
        fault_bus=8, cleared_line=(8, 9)))
    ext = dynamics._last_networks[2]
    second = scenario_networks(wecc9, wecc9_pf, FaultScenario(
        fault_bus=5, cleared_line=(5, 7)))
    assert dynamics._last_networks[2] is ext
    assert second.pre is first.pre
    for array in (ext.y11, ext.y12, ext.y22,
                  first.pre.y_red, first.pre.r_v):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0.0


def test_machine_init_zero_current():
    case = single_bus_case(p_load=0.0)
    pf = PowerFlowSolution(v_mag=np.array([1.02]), v_ang=np.array([0.3]),
                           p_inj=np.zeros(1), q_inj=np.zeros(1),
                           iterations=1, max_mismatch=0.0)
    init = machine_init(case, pf, kron_reduce(extend_network(case, pf)))
    assert init.e_mag[0] == pytest.approx(1.02, abs=1e-12)
    assert init.delta0[0] == pytest.approx(0.3, abs=1e-12)


def test_machine_init_hand_arithmetic():
    # P = 1, Q = 0 at V = 1 angle 0 behind xd' = 0.1:
    # emf = 1 + 0.1j, magnitude sqrt(1.01), angle atan(0.1)
    case, pf = single_bus_case(), flat_solution(1)
    init = machine_init(case, pf, kron_reduce(extend_network(case, pf)))
    assert init.e_mag[0] == pytest.approx(1.00499, abs=1e-5)
    assert init.delta0[0] == pytest.approx(0.0997, abs=1e-4)


@pytest.mark.parametrize("name", ["wecc9", "ne39"])
def test_equilibrium_derivatives_vanish(name, request):
    init = request.getfixturevalue(f"{name}_init")
    net = request.getfixturevalue(f"{name}_net")
    params = request.getfixturevalue(f"{name}_params")
    x = DynamicState(delta=init.delta0, omega=np.ones_like(init.delta0))
    p_e = electrical_power(x.delta, params.e_mag, net)
    rate_delta, rate_omega = swing_rates(x.delta, x.omega, p_e, params)
    assert np.max(np.abs(rate_delta)) < 1e-9
    assert np.max(np.abs(rate_omega)) < 1e-9
