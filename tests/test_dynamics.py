import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import powerdse
from powerdse import dynamics, filters, harness, measurement, reduction
from powerdse import (
    DynamicState,
    FaultScenario,
    InstabilityError,
    MachineParams,
    ReducedNetwork,
    ReductionError,
    Regime,
    ScenarioError,
    Trajectory,
    electrical_power,
    extend_network,
    kron_reduce,
    load_case,
    machine_init,
    parse_case,
    preset,
    run_experiment,
    scenario_networks,
    simulate,
    solve_power_flow,
    swing_process_model,
    validate_scenario,
)
from powerdse.dynamics import swing_rates

from oracles import (
    reference_swing_trajectory,
    regime_at,
    remove_bus,
    without_branch,
)

OMEGA0 = 120.0 * math.pi
CONTINGENCIES = (Path(__file__).resolve().parent.parent / "bench"
                 / "contingencies.json")


def toy_net(y_red):
    y_red = np.asarray(y_red, dtype=complex)
    nm = y_red.shape[0]
    return ReducedNetwork(
        y_red=y_red, r_v=np.zeros((0, nm), dtype=complex), bus_order=(),
    )


def toy_params(n=1, h=5.0, d=0.0, e=1.0, p_mech=1.0):
    ones = np.ones(n)
    return MachineParams(h=h * ones, d=d * ones, e_mag=e * ones,
                         p_mech=p_mech * ones, omega0=OMEGA0,
                         delta0=np.zeros(n))


def test_power_self_term_only():
    net = toy_net([[1.0 + 0j]])
    for delta in (0.0, 0.7, -2.0, 9.9):
        p = electrical_power(np.array([delta]), np.ones(1), net)
        assert p[0] == pytest.approx(1.0, abs=1e-14)


def test_power_quadrature_coupling():
    net = toy_net([[0.0, 1.0j], [1.0j, 0.0]])
    p = electrical_power(np.zeros(2), np.ones(2), net)
    assert p[0] == pytest.approx(0.0, abs=1e-14)
    assert p[1] == pytest.approx(0.0, abs=1e-14)


def test_wecc9_equilibrium_power(wecc9_net, wecc9_init):
    p = electrical_power(wecc9_init.delta0, wecc9_init.e_mag, wecc9_net)
    assert np.max(np.abs(p - wecc9_init.p_mech)) < 1e-9


def rates(x, params, net):
    """Angle and speed rates of state ``x`` on ``net``."""
    p_e = electrical_power(x.delta, params.e_mag, net)
    return swing_rates(x.delta, x.omega, p_e, params)


def test_derivatives_vanish_at_equilibrium(wecc9_net, wecc9_init,
                                           wecc9_params):
    x = DynamicState(delta=wecc9_init.delta0.copy(),
                     omega=np.ones(3))
    rate_delta, rate_omega = rates(x, wecc9_params, wecc9_net)
    assert np.max(np.abs(rate_delta)) < 1e-12
    assert np.max(np.abs(rate_omega)) < 1e-12


def test_acceleration_hand_value():
    # excess power 0.1 pu over 2H = 47.28 gives 2.1151e-3 pu/s
    net = toy_net([[1.0 + 0j]])
    params = toy_params(h=23.64, p_mech=1.1)
    x = DynamicState(delta=np.zeros(1), omega=np.ones(1))
    rate_delta, rate_omega = rates(x, params, net)
    assert rate_omega[0] == pytest.approx(2.1151e-3, rel=1e-4)
    assert rate_delta[0] == 0.0


def test_angle_rate_hand_value():
    net = toy_net([[1.0 + 0j]])
    x = DynamicState(delta=np.zeros(1), omega=np.array([1.01]))
    rate_delta, _ = rates(x, toy_params(), net)
    assert rate_delta[0] == pytest.approx(3.7699, abs=1e-4)


@pytest.mark.parametrize("name", ["wecc9", "ne39"])
def test_discrete_step_fixed_point_exact(name, request):
    init = request.getfixturevalue(f"{name}_init")
    net = request.getfixturevalue(f"{name}_net")
    params = request.getfixturevalue(f"{name}_params")
    x = np.concatenate([init.delta0, np.ones_like(init.delta0)])
    stepped = swing_process_model(params, net, dt=0.01).step(x)
    assert np.array_equal(stepped, x)


def test_step_richardson(wecc9_net, wecc9_params, wecc9_init):
    x = np.concatenate([wecc9_init.delta0 + [0.2, -0.1, 0.3],
                        [1.001, 0.999, 1.002]])

    def gap(dt):
        full = swing_process_model(wecc9_params, wecc9_net, dt).step(x)
        half = swing_process_model(wecc9_params, wecc9_net, dt / 2).step
        return np.max(np.abs(full - half(half(x))))

    # the one-step-vs-two-half-steps gap is O(dt^2): quartering under halving
    ratio = gap(0.01) / gap(0.005)
    assert 3.0 < ratio < 5.0


def screening_scenarios():
    """The ne39 contingencies of the benchmark's screening workload."""
    spec = json.loads(CONTINGENCIES.read_text())
    return [FaultScenario(fault_bus=bus, t_fault=spec["t_fault"],
                          clearing_cycles=spec["clearing_cycles"],
                          cleared_line=(a, b), t_end=spec["t_end"],
                          dt=spec["dt"])
            for bus, a, b in spec["contingencies"]]


def wecc9_scenario(**overrides):
    base = dict(fault_bus=8, t_fault=1.0, clearing_cycles=2.0,
                cleared_line=(8, 9), t_end=10.0, dt=0.01)
    base.update(overrides)
    return FaultScenario(**base)


@pytest.mark.parametrize("t_end,dt", [(2.0, 0.03), (2.005, 0.01)])
def test_window_must_be_whole_samples(t_end, dt, wecc9, wecc9_pf):
    # these used to run silently: 2.0 s at 0.03 s ended at 2.01 s, and
    # 2.005 s at 0.01 s was cut to 2.0 s
    scen = wecc9_scenario(t_end=t_end, dt=dt)
    match = rf"t_end={t_end}s is not a whole number of dt={dt}s samples"
    with pytest.raises(ScenarioError, match=match):
        validate_scenario(wecc9, scen)
    with pytest.raises(ScenarioError, match=match):
        simulate(wecc9, wecc9_pf, scen)


@pytest.mark.parametrize("t_end", [-1.0, 0.0])
def test_window_must_be_positive(t_end, wecc9, wecc9_pf):
    # -1.0 used to pass validation and fail in numpy with "negative
    # dimensions are not allowed"
    scen = wecc9_scenario(t_end=t_end)
    match = rf"window t_end={t_end}s must be positive"
    with pytest.raises(ScenarioError, match=match):
        validate_scenario(wecc9, scen)
    with pytest.raises(ScenarioError, match=match):
        simulate(wecc9, wecc9_pf, scen)


def test_window_check_allows_rounded_ratios(wecc9):
    # 2.0 / 0.05 and 0.3 / 0.1 are whole but for rounding
    validate_scenario(wecc9, wecc9_scenario(t_end=2.0, dt=0.05))
    validate_scenario(wecc9, wecc9_scenario(t_fault=0.1, clearing_cycles=1.0,
                                            t_end=0.3, dt=0.1))


def test_scenario_networks_three_distinct(wecc9, wecc9_pf):
    nets = scenario_networks(wecc9, wecc9_pf, wecc9_scenario())
    for net in (nets.pre, nets.fault, nets.post):
        assert net.y_red.shape == (3, 3)
    assert np.max(np.abs(nets.pre.y_red - nets.fault.y_red)) > 1e-3
    assert np.max(np.abs(nets.pre.y_red - nets.post.y_red)) > 1e-3
    assert np.max(np.abs(nets.fault.y_red - nets.post.y_red)) > 1e-3


def test_scenario_networks_ne39(ne39, ne39_pf):
    scen = FaultScenario(fault_bus=4, t_fault=1.0, clearing_cycles=2.0,
                         cleared_line=(4, 14), t_end=10.0, dt=0.01)
    nets = scenario_networks(ne39, ne39_pf, scen)
    for net in (nets.pre, nets.fault, nets.post):
        assert net.y_red.shape == (10, 10)
    # fault-on network loses the faulted bus from the reconstruction map
    assert 4 not in nets.fault.bus_order
    assert len(nets.fault.bus_order) == 38


def test_fault_at_machine_terminal_runs(ne39, ne39_pf):
    # A solid fault may sit at a machine's terminal bus: on ne39, bus 39
    # (machine 1's) faulted and cleared by line 1-39 validates and stays in
    # the stable speed band.
    scen = FaultScenario(fault_bus=39, cleared_line=(1, 39), t_end=4.0)
    assert 39 in ne39.machine_buses()
    validate_scenario(ne39, scen)
    traj = simulate(ne39, ne39_pf, scen)
    assert np.max(np.abs(traj.omega_matrix() - 1.0)) < dynamics.SPEED_LIMIT


def test_scenario_islanding_machine_rejected(wecc9, wecc9_pf):
    scen = wecc9_scenario(fault_bus=5, cleared_line=(1, 4))
    with pytest.raises(ScenarioError, match="islands a machine"):
        scenario_networks(wecc9, wecc9_pf, scen)


def test_islanding_rejected_on_every_call(wecc9, wecc9_pf):
    # a failure is not kept: the second call builds and fails again
    scen = wecc9_scenario(fault_bus=5, cleared_line=(1, 4))
    for _ in range(2):
        with pytest.raises(ScenarioError, match="islands a machine"):
            scenario_networks(wecc9, wecc9_pf, scen)


def counted_builds(monkeypatch) -> dict[str, list]:
    """The calls ``scenario_networks`` makes from now on to build an
    extended system and a Kron reduction, by name."""
    calls: dict[str, list] = {}

    def counter(name):
        original = getattr(dynamics, name)
        log = calls.setdefault(name, [])

        def counting(*args):
            log.append(args)
            return original(*args)

        return counting

    for name in ("extend_network", "kron_reduce"):
        monkeypatch.setattr(dynamics, name, counter(name))
    return calls


def counts(calls: dict[str, list]) -> tuple[int, int]:
    """(extended systems, Kron reductions) built so far."""
    return tuple(len(calls[name]) for name in
                 ("extend_network", "kron_reduce"))


def test_screening_job_reduces_each_topology_once(monkeypatch):
    # A screening job asks for the networks, then simulate asks again; the
    # second request is the last result.  Every contingency of the case
    # shares one extended system and its pre-fault network, and reduces only
    # its fault-on and post networks.  A freshly loaded case cannot be the
    # one an earlier test left behind.
    case = load_case("ne39")
    pf = solve_power_flow(case)
    scens = screening_scenarios()
    calls = counted_builds(monkeypatch)
    nets = scenario_networks(case, pf, scens[0])
    truth = simulate(case, pf, scens[0])
    assert counts(calls) == (1, 3)
    assert scenario_networks(case, pf, scens[0]) is nets
    for scen in scens[1:]:
        assert scenario_networks(case, pf, scen).pre is nets.pre
    assert counts(calls) == (1, 67)
    # the same truth as a run that builds its own extended system
    again = simulate(load_case("ne39"), pf, scens[0])
    assert counts(calls) == (2, 70)
    assert np.array_equal(truth.delta_matrix(), again.delta_matrix())
    assert np.array_equal(truth.omega_matrix(), again.omega_matrix())


def test_experiment_reduces_each_topology_once(tmp_path, monkeypatch):
    # run_experiment, simulate and both filters ask for the same networks
    cfg = preset("wecc9-fault8")
    cfg = replace(cfg, scenario=replace(cfg.scenario, t_end=2.0),
                  out_dir=str(tmp_path))
    calls = counted_builds(monkeypatch)
    run_experiment(cfg)
    assert counts(calls) == (1, 3)


def test_scenario_networks_rebuilt_for_new_inputs(monkeypatch):
    case = load_case("wecc9")
    pf = solve_power_flow(case)
    scen = wecc9_scenario()
    calls = counted_builds(monkeypatch)
    first = scenario_networks(case, pf, scen)
    assert counts(calls) == (1, 3)
    # an equal scenario and an equal v_mag in other objects are a repeat
    assert scenario_networks(case, replace(pf, v_mag=pf.v_mag.copy()),
                             replace(scen)) is first
    assert counts(calls) == (1, 3)
    # another scenario on the same case and power flow keeps the extended
    # system and the pre-fault network
    other = scenario_networks(case, pf,
                              wecc9_scenario(fault_bus=5, cleared_line=(5, 7)))
    assert counts(calls) == (1, 5)
    assert other.pre is first.pre
    assert np.max(np.abs(other.fault.y_red - first.fault.y_red)) > 1e-3
    # one scenario only: the first scenario is built again
    again = scenario_networks(case, pf, scen)
    assert counts(calls) == (1, 7)
    assert again is not first
    assert np.array_equal(again.post.y_red, first.post.y_red)
    v_mag = pf.v_mag.copy()
    v_mag[4] *= 1.01
    moved = scenario_networks(case, replace(pf, v_mag=v_mag), scen)
    assert counts(calls) == (2, 10)
    assert not np.array_equal(moved.pre.y_red, first.pre.y_red)
    scenario_networks(load_case("wecc9"), pf, scen)
    assert counts(calls) == (3, 13)


def counted_machine_inits(monkeypatch) -> list:
    """The calls made from now on to ``machine_init``, from every powerdse
    module that holds it by name."""
    original = reduction.machine_init
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in (powerdse, reduction, dynamics, filters, harness,
                   measurement):
        if getattr(module, "machine_init", None) is original:
            monkeypatch.setattr(module, "machine_init", counting)
    return calls


def test_screening_round_inits_machines_once(monkeypatch):
    # Every contingency of one case and power flow shares one constants
    # object, taken once with the pre-fault network; the benchmark's screening
    # job asks for the networks, then simulate asks again.
    case = load_case("ne39")
    pf = solve_power_flow(case)
    calls = counted_machine_inits(monkeypatch)
    params = set()
    for scen in screening_scenarios():
        params.add(id(scenario_networks(case, pf, scen).params))
        simulate(case, pf, scen)
    assert len(calls) == 1
    assert len(params) == 1
    assert not scenario_networks(case, pf, scen).params.delta0.flags.writeable


def test_experiment_inits_machines_once(tmp_path, monkeypatch):
    # run_experiment, simulate and both filters read the networks' constants
    cfg = preset("wecc9-fault8")
    cfg = replace(cfg, scenario=replace(cfg.scenario, t_end=2.0),
                  out_dir=str(tmp_path))
    calls = counted_machine_inits(monkeypatch)
    run_experiment(cfg)
    assert len(calls) == 1


@pytest.mark.parametrize("field", ["v_ang", "p_inj", "q_inj"])
def test_machine_constants_follow_the_operating_point(field):
    # The constants read the power flow's angles and injections as well as
    # its magnitudes, so each of them is part of the memo's key.
    case = load_case("wecc9")
    pf = solve_power_flow(case)
    scen = wecc9_scenario()
    first = scenario_networks(case, pf, scen).params
    assert scenario_networks(case, replace(pf, v_mag=pf.v_mag.copy()),
                             scen).params is first
    moved = replace(pf, **{field: getattr(pf, field) + 1e-3})
    other = scenario_networks(case, moved, scen).params
    assert other is not first
    assert not np.array_equal(other.delta0, first.delta0)
    fresh = machine_init(case, moved, scenario_networks(case, moved, scen).pre)
    for name in ("e_mag", "p_mech", "delta0"):
        assert np.array_equal(getattr(other, name), getattr(fresh, name))


def fresh_networks(case, pf, scen) -> tuple[ReducedNetwork, ...]:
    """The three networks of a scenario, each reduced from its own freshly
    built extended system."""
    ext = extend_network(case, pf)
    post_case = without_branch(case, *scen.cleared_line)
    return (kron_reduce(ext), kron_reduce(remove_bus(ext, scen.fault_bus)),
            kron_reduce(extend_network(post_case, pf)))


def assert_fresh(nets, case, pf, scen) -> None:
    for got, want in zip((nets.pre, nets.fault, nets.post),
                         fresh_networks(case, pf, scen)):
        assert got.bus_order == want.bus_order
        for a, b in ((got.y_red, want.y_red), (got.r_v, want.r_v)):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_derived_networks_match_fresh_builds(ne39, ne39_pf):
    # every screening contingency, the transformer lines among them
    scens = screening_scenarios()
    assert {(12, 11), (12, 13)} <= {s.cleared_line for s in scens}
    assert all(br.tap != 1.0 for br in ne39.branches
               if (br.from_bus, br.to_bus) in {(12, 11), (12, 13)})
    for scen in scens:
        assert_fresh(scenario_networks(ne39, ne39_pf, scen), ne39, ne39_pf,
                     scen)


@pytest.mark.parametrize("name", ["wecc9-fault8", "ne39-fault4"])
def test_preset_networks_match_fresh_builds(name):
    cfg = preset(name)
    case = load_case(cfg.case)
    pf = solve_power_flow(case)
    assert_fresh(scenario_networks(case, pf, cfg.scenario), case, pf,
                 cfg.scenario)


def test_scenario_networks_read_only(wecc9, wecc9_pf):
    # The kept result is handed to every caller, and every contingency of
    # the case reads the kept extended system, pre-fault network and
    # constants, so none may change them.
    nets = scenario_networks(wecc9, wecc9_pf, wecc9_scenario())
    ext, pre, params = dynamics._last_networks[2:5]
    assert pre is nets.pre and params is nets.params
    arrays = [ext.y11, ext.y12, ext.y22, params.h, params.d,
              params.e_mag, params.p_mech, params.delta0]
    for net in (nets.pre, nets.fault, nets.post):
        arrays += [net.y_red, net.r_v]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0.0


def test_clearing_mesh_line_keeps_reduction_valid(wecc9, wecc9_pf):
    nets = scenario_networks(wecc9, wecc9_pf,
                             wecc9_scenario(fault_bus=5, cleared_line=(5, 7)))
    for net in (nets.pre, nets.fault, nets.post):
        assert np.all(np.isfinite(net.y_red))


# Bus 4 carries no load, and line 2-4 is its only branch.
STUB_BUS_CASE = """\
name stubbus
base_mva 100.0
frequency 60.0
[buses]
1 slack 0.0 0.0 1.0
2 pq    0.5 0.2 -
3 pv    0.0 0.0 1.0
4 pq    0.0 0.0 -
[branches]
1 2 0.01 0.1 0.0 1.0
2 3 0.01 0.1 0.0 1.0
1 3 0.01 0.1 0.0 1.0
2 4 0.01 0.1 0.0 1.0
[machines]
1 5.0 0.0 0.1 -
3 5.0 0.0 0.1 0.2
"""


def test_post_network_error_names_cleared_line():
    # with line 2-4 open, bus 4's row of the post bus block is empty
    case = parse_case(STUB_BUS_CASE)
    pf = solve_power_flow(case)
    with pytest.raises(ReductionError, match=r"^network with line \(2, 4\) "
                       r"open: bus admittance block is numerically singular"):
        scenario_networks(case, pf,
                          FaultScenario(fault_bus=2, cleared_line=(2, 4)))
    # the fault-on network of the same fault, cleared elsewhere, reduces
    nets = scenario_networks(case, pf,
                             FaultScenario(fault_bus=2, cleared_line=(1, 3)))
    assert nets.fault.bus_order == (1, 3, 4)


def test_validate_scenario_collects_problems(wecc9):
    scen = FaultScenario(fault_bus=77, t_fault=-1.0, clearing_cycles=2.0,
                         cleared_line=(1, 9), t_end=10.0, dt=0.01)
    with pytest.raises(ScenarioError) as err:
        validate_scenario(wecc9, scen)
    msg = str(err.value)
    assert "77" in msg
    assert "(1, 9)" in msg
    assert "positive" in msg


def test_no_fault_holds_equilibrium(wecc9, wecc9_pf, wecc9_init):
    traj = simulate(wecc9, wecc9_pf, wecc9_scenario(t_fault=20.0))
    assert len(traj) == 1001
    dev = np.abs(traj.delta_matrix() - wecc9_init.delta0)
    assert np.max(dev) < 1e-6
    assert np.max(np.abs(traj.omega_matrix() - 1.0)) < 1e-8
    assert all(regime is Regime.PreFault for regime in traj.regime)


def test_fault_perturbs_then_stays_bounded(wecc9_run):
    traj = wecc9_run.truth
    delta0 = wecc9_run.init.delta0
    pre = traj.times < 1.0
    post = ~pre
    assert np.max(np.abs(traj.delta_matrix()[pre] - delta0)) < 1e-9
    assert np.max(np.abs(traj.delta_matrix()[post] - delta0)) > 0.05
    assert np.max(np.abs(traj.omega_matrix() - 1.0)) < 0.2


def test_undamped_case_stays_bounded(ne39_run):
    # All ne39 machines carry zero damping, so the fault's energy never
    # dissipates: the mean angle drifts but the machine-to-machine swing
    # must oscillate without growing for the rest of the window.
    assert all(m.d == 0.0 for m in ne39_run.case.machines)
    traj = ne39_run.truth
    post = traj.times >= 2.0
    delta = traj.delta_matrix()[post]
    centered = delta - delta.mean(axis=1, keepdims=True)
    rest = ne39_run.init.delta0 - ne39_run.init.delta0.mean()
    assert np.max(np.abs(centered - rest)) < np.pi
    assert np.max(np.abs(traj.omega_matrix()[post] - 1.0)) < 0.02


def test_trajectory_from_states_matches_simulate(wecc9_run):
    # the list-of-states constructor and simulate's array give one object
    truth = wecc9_run.truth
    states = [DynamicState(delta=s.delta.copy(), omega=s.omega.copy())
              for s in truth.states]
    rebuilt = Trajectory(times=truth.times, states=states,
                         regime=list(truth.regime))
    assert len(rebuilt) == len(truth) == len(truth.states) == 1001
    assert np.array_equal(rebuilt.delta_matrix(), truth.delta_matrix())
    assert np.array_equal(rebuilt.omega_matrix(), truth.omega_matrix())
    assert np.array_equal(rebuilt.state_matrix(), np.hstack(
        [truth.delta_matrix(), truth.omega_matrix()]))
    for k in (0, 150, -1):
        assert isinstance(truth.states[k], DynamicState)
        assert np.array_equal(rebuilt.states[k].delta, truth.states[k].delta)
        assert np.array_equal(rebuilt.states[k].omega, truth.states[k].omega)
    for ours, theirs, original in zip(rebuilt.states, truth.states, states,
                                      strict=True):
        assert np.array_equal(ours.delta, theirs.delta)
        assert np.array_equal(ours.omega, original.omega)


@pytest.mark.parametrize("times,regimes,message", [
    (1000, 1001, r"^1001 state rows, but 1000 times and 1001 regimes$"),
    (1002, 1002, r"^1001 state rows, but 1002 times and 1002 regimes$"),
], ids=["short-times", "long-both"])
def test_trajectory_rejects_length_mismatch(times, regimes, message):
    # one time and one regime per state row, for either form of the states;
    # a short regime list is test_writers_reject_row_count_mismatch's case
    states = np.zeros((1001, 6))
    for form in (states, [DynamicState(delta=row[:3], omega=row[3:])
                          for row in states]):
        with pytest.raises(ValueError, match=message):
            Trajectory(times=np.arange(times) * 0.01, states=form,
                       regime=[Regime.PreFault] * regimes)


def test_trajectory_arrays_read_only(wecc9, wecc9_pf):
    traj = simulate(wecc9, wecc9_pf, wecc9_scenario(t_end=2.0))
    state = traj.states[120]
    for array in (traj.state_matrix(), traj.delta_matrix(),
                  traj.omega_matrix(), state.delta, state.omega):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_trajectory_states_tuple_built_once(wecc9, wecc9_pf):
    # the rows as DynamicState are made on first use, then kept
    traj = simulate(wecc9, wecc9_pf, wecc9_scenario(t_end=2.0))
    assert "states" not in traj.__dict__
    states = traj.states
    assert isinstance(states, tuple)
    assert traj.states is states
    assert len(states) == len(traj) == 201
    assert np.array_equal(states[-1].delta, traj.delta_matrix()[-1])
    assert np.array_equal(states[-1].omega, traj.omega_matrix()[-1])
    for array in (states[0].delta, states[-1].omega):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_trajectory_state_edit_round_trip(wecc9, wecc9_pf):
    # list the states, replace one, rebuild: the copy has the edited row
    # and the original is unchanged
    traj = simulate(wecc9, wecc9_pf, wecc9_scenario(t_end=2.0))
    delta, omega = traj.delta_matrix().copy(), traj.omega_matrix().copy()
    k = 150
    states = list(traj.states)
    states[k] = DynamicState(delta=states[k].delta + [0, 1e-3, 0],
                             omega=states[k].omega)
    edited = Trajectory(times=traj.times, states=states,
                        regime=list(traj.regime))
    assert np.array_equal(edited.states[k].delta, delta[k] + [0, 1e-3, 0])
    rest = np.arange(len(traj)) != k
    assert np.array_equal(edited.delta_matrix()[rest], delta[rest])
    assert np.array_equal(edited.omega_matrix(), omega)
    assert np.array_equal(traj.delta_matrix(), delta)
    assert np.array_equal(traj.omega_matrix(), omega)


def test_regime_labels_and_continuity(wecc9_run):
    traj = wecc9_run.truth
    scen = wecc9_run.cfg.scenario
    freq = wecc9_run.case.frequency
    assert len(traj.times) == len(traj.states) == len(traj.regime)
    assert np.allclose(np.diff(traj.times), scen.dt)
    for t, regime in zip(traj.times, traj.regime):
        assert regime is regime_at(scen, float(t), freq)
    # no jumps across the regime switches: per-sample increments stay small
    d_steps = np.abs(np.diff(traj.delta_matrix(), axis=0))
    o_steps = np.abs(np.diff(traj.omega_matrix(), axis=0))
    assert np.max(d_steps) < 0.5
    assert np.max(o_steps) < 0.05


@pytest.mark.parametrize("which", ["presets", "screening", "on_samples"])
def test_regimes_match_per_sample_regime(which):
    if which == "presets":
        scenarios = [preset(name).scenario
                     for name in ("wecc9-fault8", "ne39-fault4")]
    elif which == "screening":
        scenarios = screening_scenarios()
    else:
        # fault at sample 4 and clearing at sample 6, both exact in binary
        scenarios = [wecc9_scenario(t_fault=0.5, clearing_cycles=15.0,
                                    t_end=1.0, dt=0.125)]
    for scen in scenarios:
        times = np.arange(round(scen.t_end / scen.dt) + 1) * scen.dt
        per_sample = [regime_at(scen, t, 60.0) for t in times.tolist()]
        assert scen.regimes(times, 60.0) == per_sample
    if which == "on_samples":
        assert per_sample.count(Regime.PreFault) == 4
        assert per_sample.count(Regime.FaultOn) == 2


def finer(case, pf, scen, k):
    """Angles and speeds (samples, 2n) of a run at ``scen.dt / k``, on the
    samples of ``scen``."""
    traj = simulate(case, pf, replace(scen, dt=scen.dt / k))
    return np.hstack([traj.delta_matrix(), traj.omega_matrix()])[::k]


def test_substep_self_convergence(wecc9, wecc9_pf):
    scen = wecc9_scenario(t_end=5.0)
    n = len(wecc9.machines)
    coarse = finer(wecc9, wecc9_pf, scen, 10)[:, :n]
    fine = finer(wecc9, wecc9_pf, scen, 20)[:, :n]
    assert np.max(np.abs(coarse - fine)) < 1e-6


def test_rk8_eighth_order(wecc9, wecc9_pf):
    # At dt = 0.01 one step already sits near the roundoff floor (about
    # 4e-13 on this window), so the ratio there is noise.  At dt = 0.05 the
    # one- and two-step errors (1.5e-7, 5.7e-10) are far above it, and
    # halving the step divides the error by about 2^8.
    scen = wecc9_scenario(t_end=2.0, dt=0.05)

    def terminal(k):
        return finer(wecc9, wecc9_pf, scen, k)[-1]

    ref = terminal(16)
    err1 = np.max(np.abs(terminal(1) - ref))
    err2 = np.max(np.abs(terminal(2) - ref))
    assert 128.0 < err1 / err2 < 512.0


@pytest.mark.parametrize("name,bound", [("wecc9", 1e-9), ("ne39", 1e-10)])
def test_default_steps_accuracy(name, bound, request):
    # one step per sample stays within the error of the classical RK4 at
    # 10 substeps that it replaced, against a run at dt / 16
    run = request.getfixturevalue(f"{name}_run")
    n = run.params.n_machines
    fine = finer(run.case, run.pf, run.cfg.scenario, 16)[:, :n]
    assert np.max(np.abs(run.truth.delta_matrix() - fine)) <= bound


def test_step_plan_counts(wecc9, wecc9_pf, monkeypatch):
    # One stepper per topology stepped on, fault-on and post.  Whole
    # intervals run one step of dt; only the interval split by the clearing
    # instant takes other steps, one call and one step per part.  The step
    # maps are built once per step length and passed to whichever stepper
    # runs a span.
    scen = preset("wecc9-fault8").scenario
    built: dict[int, float] = {}   # id of each built map set -> its step
    steppers, calls = [], []
    build_maps, build_stepper = dynamics._rk_maps, dynamics._rk_stepper

    def counting_maps(params, h):
        maps = build_maps(params, h)
        built[id(maps)] = h
        return maps

    def counting_stepper(params, net):
        steppers.append(net)
        advance = build_stepper(params, net)

        def counted(y0, out, maps):
            calls.extend([built[id(maps)]] * len(out))   # one per interval
            advance(y0, out, maps)
        return counted

    monkeypatch.setattr(dynamics, "_rk_maps", counting_maps)
    monkeypatch.setattr(dynamics, "_rk_stepper", counting_stepper)
    simulate(wecc9, wecc9_pf, scen)
    nets = scenario_networks(wecc9, wecc9_pf, scen)
    whole = scen.dt
    assert [id(net) for net in steppers] == [id(nets.fault), id(nets.post)]
    assert len(built) == 3
    assert sorted(set(built.values())) == sorted(set(calls))
    assert calls.count(whole) == 899
    split = [h for h in calls if h != whole]
    assert len(split) == 2
    assert sum(split) == pytest.approx(scen.dt)


def test_stepper_reused_across_step_lengths(wecc9_params, wecc9_net):
    # One stepper called with the maps of one step length, then another,
    # each call from the same y0, writes rows bitwise equal to a fresh
    # stepper per call: each call starts from its y0 alone, whatever the
    # last call left in its buffers.
    params = wecc9_params
    n = params.n_machines
    rng = np.random.default_rng(3)
    y0 = np.concatenate([params.delta0 + rng.uniform(-0.3, 0.3, n),
                         rng.uniform(-0.01, 0.01, n)])
    spans = [(0.01 / 3, 4), (0.01, 7), (0.01 / 3, 2)]
    reused = dynamics._rk_stepper(params, wecc9_net)
    for h, rows in spans:
        maps = dynamics._rk_maps(params, h)
        out = np.empty((rows, 2 * n))
        fresh = np.empty((rows, 2 * n))
        reused(y0, out, maps)
        dynamics._rk_stepper(params, wecc9_net)(y0, fresh, maps)
        assert np.max(np.abs(out - y0)) > 1e-6
        assert np.array_equal(out, fresh)


def interval_reference(case, pf, scen):
    """``simulate``'s samples, one interval at a time: each interval is cut
    at the fault and clearing instants inside it, a pre-fault part holds the
    state, a whole interval takes one step of ``dt`` and each other part
    one step of its own length, on the network of the instant it starts."""
    nets = scenario_networks(case, pf, scen)
    params = machine_init(case, pf, nets.pre)
    n, freq = params.n_machines, case.frequency
    steppers = {Regime.FaultOn: dynamics._rk_stepper(params, nets.fault),
                Regime.PostFault: dynamics._rk_stepper(params, nets.post)}
    n_steps = round(scen.t_end / scen.dt)
    times = (np.arange(n_steps + 1) * scen.dt).tolist()
    ys = np.empty((n_steps + 1, 2 * n))
    ys[0] = np.concatenate([params.delta0, np.zeros(n)])
    for k in range(n_steps):
        cuts = [times[k], *(s for s in (scen.t_fault, scen.t_clear(freq))
                            if times[k] < s < times[k + 1]), times[k + 1]]
        y = ys[k]
        for t0, t1 in zip(cuts[:-1], cuts[1:]):
            regime = regime_at(scen, t0, freq)
            if regime is Regime.PreFault:
                continue
            h = scen.dt if len(cuts) == 2 else t1 - t0
            row = np.empty((1, 2 * n))
            steppers[regime](y, row, dynamics._rk_maps(params, h))
            y = row[0]
        ys[k + 1] = y
    ys[:, n:] += 1.0
    return times, ys


@pytest.mark.parametrize("t_fault,cycles,on_grid", [
    (1.0, 2.0, (True, False)),
    (0.105, 2.0, (False, False)),
    (1.002, 0.3, (False, False)),
    (1.0, 3.0, (True, True)),
    (12.0, 2.0, None),
], ids=["preset", "fault-off-grid", "one-interval", "clearing-on-grid",
        "no-fault"])
def test_simulate_matches_interval_reference(wecc9, wecc9_pf, t_fault, cycles,
                                             on_grid):
    # simulate walks the fault-on and post-clearing segments in a few
    # stepper calls; stepping each sample interval on its own gives the
    # same bits.  on_grid says whether the fault and clearing instants fall
    # on samples (None: the fault is after the window).
    scen = replace(preset("wecc9-fault8").scenario, t_fault=t_fault,
                   clearing_cycles=cycles)
    times, ys = interval_reference(wecc9, wecc9_pf, scen)
    instants = (scen.t_fault, scen.t_clear(wecc9.frequency))
    if on_grid is None:
        assert scen.t_fault > times[-1]
    else:
        assert tuple(s in times for s in instants) == on_grid
    traj = simulate(wecc9, wecc9_pf, scen)
    assert traj.times.tolist() == times
    assert np.array_equal(traj.state_matrix(), ys)
    moved = np.max(np.abs(ys - ys[0]))
    assert (moved == 0.0) == (on_grid is None)


@pytest.mark.parametrize("name", ["wecc9", "ne39"])
def test_stepper_holds_equilibrium(name, request):
    # ``simulate`` writes the pre-fault samples as the equilibrium; the
    # integrator itself must hold it too, to criterion 3's bounds, over
    # 1,000 steps of 0.01 s on the pre-fault network.
    params = request.getfixturevalue(f"{name}_params")
    net = request.getfixturevalue(f"{name}_net")
    n = params.n_machines
    advance = dynamics._rk_stepper(params, net)
    out = np.empty((1000, 2 * n))
    advance(np.concatenate([params.delta0, np.zeros(n)]), out,
            dynamics._rk_maps(params, 0.01))
    assert np.max(np.abs(out[:, :n] - params.delta0)) < 1e-6
    assert np.max(np.abs(out[:, n:])) < 1e-8


@pytest.mark.parametrize("t_fault", [1.0, 0.105])
def test_pre_fault_rows_are_held(wecc9, wecc9_pf, t_fault, monkeypatch):
    # Every sample up to the fault instant is bitwise the first, and no
    # stepper runs on the pre-fault network.  With the fault between
    # samples, the fault-on part of that interval steps from the held row.
    scen = wecc9_scenario(t_fault=t_fault, t_end=2.0)
    nets = scenario_networks(wecc9, wecc9_pf, scen)
    topologies = []
    build_stepper = dynamics._rk_stepper

    def recording_stepper(params, net):
        topologies.append(net.y_red)
        return build_stepper(params, net)

    monkeypatch.setattr(dynamics, "_rk_stepper", recording_stepper)
    traj = simulate(wecc9, wecc9_pf, scen)
    ys = np.hstack([traj.delta_matrix(), traj.omega_matrix()])
    held = np.flatnonzero(traj.times <= t_fault)
    assert held.size == (101 if t_fault == 1.0 else 11)
    assert np.array_equal(ys[held], np.broadcast_to(ys[0], ys[held].shape))
    assert ys[0, 3:].tolist() == [1.0, 1.0, 1.0]
    assert not any(np.array_equal(y, nets.pre.y_red) for y in topologies)
    first = held[-1] + 1   # first sample after the fault
    assert not np.array_equal(ys[first], ys[0])
    if traj.times[held[-1]] < t_fault:
        params = machine_init(wecc9, wecc9_pf, nets.pre)
        h = float(traj.times[first]) - t_fault
        advance = build_stepper(params, nets.fault)
        out = np.empty((1, 6))
        advance(np.concatenate([params.delta0, np.zeros(3)]), out,
                dynamics._rk_maps(params, h))
        assert np.array_equal(ys[first], np.concatenate([out[0, :3],
                                                         1.0 + out[0, 3:]]))


def test_stage_maps_cached_per_machine_set(wecc9, wecc9_pf, ne39, ne39_pf):
    # The maps depend on the machines and the step length alone: a second
    # contingency of a case builds none, and what the cache hands out is
    # read-only.
    scenarios = screening_scenarios()[:2]
    dt = scenarios[0].dt
    simulate(ne39, ne39_pf, scenarios[0])
    before = dynamics._stage_maps.cache_info()
    simulate(ne39, ne39_pf, scenarios[1])
    after = dynamics._stage_maps.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits
    params = machine_init(ne39, ne39_pf,
                          scenario_networks(ne39, ne39_pf, scenarios[1]).pre)
    groups, update = dynamics._rk_maps(params, dt)
    assert dynamics._rk_maps(params, dt)[1] is update
    for array in (*groups, update):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0.0
    # another machine set or step length is another entry
    other = machine_init(wecc9, wecc9_pf,
                         scenario_networks(wecc9, wecc9_pf,
                                           wecc9_scenario()).pre)
    assert dynamics._rk_maps(other, dt)[1] is not update
    assert dynamics._rk_maps(params, dt / 2)[1] is not update


def test_stage_maps_read_only_their_prefix(wecc9_run):
    # Stages 2g and 2g + 1 run as one group.  Stage i reads (y, 1) and the
    # powers of stages 1 .. i - 2, the last of which it does read, so a
    # group is as wide as its second stage reads, and its first stage's rows
    # are zero over the powers of the stage just before it.  A group of
    # three would read a power that its own first stage writes.
    m = 2 * wecc9_run.params.n_machines
    s = len(dynamics._RK_STAGES)
    groups, update = dynamics._rk_maps(wecc9_run.params, 0.01)
    assert s == 11
    assert len(groups) == 6
    assert update.shape == (m, m + 1 + s * m)
    assert np.any(update[:, -1] != 0.0)

    def reads(i):
        return m + 1 + max(i - 1, 0) * m

    for g, arg in enumerate(groups):
        stages = list(range(2 * g, min(2 * g + 2, s)))
        assert arg.flags.c_contiguous
        assert arg.shape == (len(stages) * m, reads(stages[-1]))
        assert np.any(arg[:, -1] != 0.0)
        if len(stages) == 2 and g > 0:
            assert np.all(arg[:m, reads(stages[0]):] == 0.0)


def interval_by_textbook(params, net, y, h):
    """One step of ``_RK_STAGES``/``_RK_WEIGHTS`` from y = (angles, speed
    deviations), each stage a call of ``swing_rates`` at ``electrical_power``."""
    n = params.n_machines

    def f(y):
        p_e = electrical_power(y[:n], params.e_mag, net)
        return np.concatenate(swing_rates(y[:n], 1.0 + y[n:], p_e, params))

    slopes = []
    for coeffs in dynamics._RK_STAGES:
        slopes.append(f(y + h * sum((a * k for a, k in zip(coeffs, slopes)),
                                    np.zeros_like(y))))
    return y + h * sum(b * k for b, k in zip(dynamics._RK_WEIGHTS, slopes))


@pytest.mark.parametrize("name", ["wecc9", "ne39"])
def test_stepper_matches_textbook_runge_kutta(name, request):
    # The grouped maps against the tableau applied stage by stage, from a
    # state off the equilibrium so that every stage moves.
    params = request.getfixturevalue(f"{name}_params")
    net = request.getfixturevalue(f"{name}_net")
    init = request.getfixturevalue(f"{name}_init")
    n = params.n_machines
    rng = np.random.default_rng(7)
    y0 = np.concatenate([init.delta0 + rng.uniform(-0.3, 0.3, n),
                         rng.uniform(-0.01, 0.01, n)])
    h = 0.01
    advance = dynamics._rk_stepper(params, net)
    out = np.empty((1, 2 * n))
    advance(y0, out, dynamics._rk_maps(params, h))
    ref = interval_by_textbook(params, net, y0, h)
    assert np.max(np.abs(ref - y0)) > 1e-4
    assert np.max(np.abs(out[0, :n] - ref[:n])) <= 1e-12
    assert np.max(np.abs(out[0, n:] - ref[n:])) <= 1e-12


def test_against_adaptive_integrator(wecc9_run):
    # independent high-accuracy integration of the post-clearing span
    traj = wecc9_run.truth
    params = wecc9_run.params
    net = wecc9_run.nets.post
    t_clear = wecc9_run.cfg.scenario.t_clear(wecc9_run.case.frequency)
    k0 = int(np.searchsorted(traj.times, t_clear))
    t_eval = traj.times[k0:]
    start = traj.states[k0]
    ref = reference_swing_trajectory(
        start.delta, start.omega, params.h, params.d, params.e_mag,
        params.p_mech, net.y_red, params.omega0,
        (float(t_eval[0]), float(t_eval[-1])), t_eval)
    ours = np.hstack([traj.delta_matrix()[k0:], traj.omega_matrix()[k0:]])
    assert np.max(np.abs(ours - ref)) < 1e-7


def test_sustained_fault_goes_unstable(wecc9, wecc9_pf):
    scen = wecc9_scenario(clearing_cycles=180.0)
    with pytest.raises(InstabilityError, match="machine 3") as err:
        simulate(wecc9, wecc9_pf, scen)
    assert err.value.machine == 3
    assert abs(err.value.omega - 1.0) > 0.2 or np.isclose(
        abs(err.value.omega - 1.0), 0.2, atol=1e-6)
