import math

import numpy as np
import pytest

from powerdse import (
    DynamicState,
    FaultScenario,
    NoiseSpec,
    ReducedNetwork,
    Regime,
    ScenarioNetworks,
    Trajectory,
    electrical_power,
    channel_sd,
    filter_variances,
    machine_outputs,
    simulate,
    swing_measurement_model,
    synthesize,
)

from oracles import regime_at


def reactance_net():
    y = np.array([[-1.0j]])
    return ReducedNetwork(y_red=y, r_v=np.zeros((0, 1), dtype=complex),
                          bus_order=())


def test_pure_reactance_self_terms():
    p_g, q_g, v_mag, v_ang = machine_outputs(np.zeros(1), np.ones(1),
                                             reactance_net())
    assert p_g[0] == pytest.approx(0.0, abs=1e-14)
    assert q_g[0] == pytest.approx(1.0, abs=1e-14)
    assert v_mag.size == 0 and v_ang.size == 0


def test_equilibrium_frame_matches_power_flow(wecc9_pf, wecc9_net,
                                              wecc9_init, wecc9_params):
    p_g, _, v_mag, v_ang = machine_outputs(wecc9_init.delta0.copy(),
                                           wecc9_params.e_mag, wecc9_net)
    assert np.max(np.abs(p_g - wecc9_init.p_mech)) < 1e-12
    assert wecc9_net.bus_order == tuple(range(1, 10))
    assert np.max(np.abs(v_mag - wecc9_pf.v_mag)) < 1e-6
    assert np.max(np.abs(v_ang - wecc9_pf.v_ang)) < 1e-6


@pytest.mark.parametrize("shift", [0.3, 7.0, -123.456])
def test_common_angle_shift_symmetry(shift, wecc9_net, wecc9_init,
                                     wecc9_params):
    base = wecc9_init.delta0.copy()
    p0, q0, vm0, va0 = machine_outputs(base, wecc9_params.e_mag, wecc9_net)
    p1, q1, vm1, va1 = machine_outputs(base + shift, wecc9_params.e_mag,
                                       wecc9_net)
    assert np.max(np.abs(p1 - p0)) < 1e-12
    assert np.max(np.abs(q1 - q0)) < 1e-12
    assert np.max(np.abs(vm1 - vm0)) < 1e-12
    assert np.max(np.abs(va1 - (va0 + shift))) < 1e-12


def test_continuous_angles_agree_with_principal_values(wecc9_net, rng):
    e_mag = 1.0 + 0.1 * rng.random(3)
    for _ in range(25):
        delta = rng.uniform(-30.0, 30.0, size=3)
        cont = machine_outputs(delta, e_mag, wecc9_net)[3]
        plain = np.angle(wecc9_net.r_v @ (e_mag * np.exp(1j * delta)))
        wrapped = np.mod(cont - plain + np.pi, 2.0 * np.pi) - np.pi
        assert np.max(np.abs(wrapped)) < 1e-9


@pytest.mark.parametrize("name", ["wecc9", "ne39"])
def test_stacked_outputs_match_single_states(name, request, rng):
    # synthesize evaluates a whole regime as one C-ordered stack; zero-noise
    # frames equal the outputs of their state alone only if each row is
    # bitwise its own.  A Fortran-ordered stack, like a column slice of the
    # UKF's sigma points, may sum the mean angle in another order: its rows
    # are held to 1e-13 relative, against at most 6e-15 seen on ne39
    net = request.getfixturevalue(f"{name}_net")
    init = request.getfixturevalue(f"{name}_init")
    stack = init.delta0 + rng.uniform(-3.0, 3.0, size=(257, init.delta0.size))
    batched = machine_outputs(stack, init.e_mag, net)
    fortran = machine_outputs(np.asfortranarray(stack), init.e_mag, net)
    for k in (0, 1, 128, 256):
        single = machine_outputs(stack[k], init.e_mag, net)
        for got, loose, want in zip(batched, fortran, single):
            assert np.array_equal(got[k], want)
            assert np.all(np.abs(loose[k] - want)
                          <= 1e-13 * np.maximum(1.0, np.abs(want)))


def frozen_trajectory(state, n, dt=0.01):
    return Trajectory(
        times=np.arange(n) * dt,
        states=[state] * n,
        regime=[Regime.PreFault] * n,
    )


def same_net_everywhere(net, params):
    return ScenarioNetworks(pre=net, fault=net, post=net, params=params)


def test_zero_noise_frames_exact(wecc9, wecc9_pf, wecc9_net, wecc9_params,
                                 wecc9_init):
    scen = FaultScenario(fault_bus=8, t_fault=50.0, clearing_cycles=2.0,
                         cleared_line=(8, 9), t_end=0.5, dt=0.01)
    traj = simulate(wecc9, wecc9_pf, scen)
    silent = NoiseSpec(sigma_p=0.0, sigma_q=0.0, sigma_vmag=0.0,
                       sigma_vang=0.0)
    frames = synthesize(traj, same_net_everywhere(wecc9_net, wecc9_params),
                        silent, 0)
    assert len(frames) == len(traj)
    for fr, state, t in zip(frames, traj.states, traj.times):
        p_g, q_g, v_mag, v_ang = machine_outputs(state.delta,
                                                 wecc9_params.e_mag, wecc9_net)
        assert fr.t == float(t)
        assert fr.bus_ids == wecc9_net.bus_order
        assert np.array_equal(fr.p_g, p_g)
        assert np.array_equal(fr.q_g, q_g)
        assert np.array_equal(fr.v_mag, v_mag)
        assert np.array_equal(fr.v_ang, v_ang)


def test_noise_sample_std(wecc9_net, wecc9_params, wecc9_init):
    state = DynamicState(delta=wecc9_init.delta0.copy(), omega=np.ones(3))
    traj = frozen_trajectory(state, 10_000)
    noise = NoiseSpec(sigma_p=0.01, sigma_q=0.0, sigma_vmag=0.0,
                      sigma_vang=0.0)
    frames = synthesize(traj, same_net_everywhere(wecc9_net, wecc9_params),
                        noise, 0)
    p_g, _, v_mag, _ = machine_outputs(state.delta, wecc9_params.e_mag,
                                       wecc9_net)
    errors = np.stack([fr.p_g - p_g for fr in frames])
    assert 0.0097 < errors.std() < 0.0103
    # untouched channels stay exact
    assert all(np.array_equal(fr.v_mag, v_mag) for fr in frames[:50])


def test_equal_seeds_bit_identical(wecc9_run):
    again = synthesize(wecc9_run.truth, wecc9_run.nets, wecc9_run.cfg.noise,
                       wecc9_run.cfg.seed)
    for a, b in zip(wecc9_run.frames, again):
        assert a.t == b.t and a.bus_ids == b.bus_ids
        assert np.array_equal(a.p_g, b.p_g)
        assert np.array_equal(a.q_g, b.q_g)
        assert np.array_equal(a.v_mag, b.v_mag)
        assert np.array_equal(a.v_ang, b.v_ang)


def test_different_seeds_differ(wecc9_run):
    other = synthesize(wecc9_run.truth, wecc9_run.nets, NoiseSpec(), 99)
    assert not np.array_equal(wecc9_run.frames[1].p_g, other[1].p_g)


def test_angles_stay_continuous_along_run(wecc9_run):
    frames = wecc9_run.frames
    for prev, cur in zip(frames, frames[1:]):
        shared = [b for b in cur.bus_ids if b in prev.bus_ids]
        prev_pos = {b: i for i, b in enumerate(prev.bus_ids)}
        cur_pos = {b: i for i, b in enumerate(cur.bus_ids)}
        for b in shared:
            jump = abs(cur.v_ang[cur_pos[b]] - prev.v_ang[prev_pos[b]])
            assert jump < 1.0


def test_faulted_bus_absent_during_fault(wecc9_run):
    scen = wecc9_run.cfg.scenario
    freq = wecc9_run.case.frequency
    for fr in wecc9_run.frames:
        if regime_at(scen, fr.t, freq) is Regime.FaultOn:
            assert 8 not in fr.bus_ids
            assert len(fr.bus_ids) == 8
            assert fr.size == 2 * 3 + 2 * 8
        else:
            assert fr.bus_ids == tuple(range(1, 10))
            assert fr.size == 2 * 3 + 2 * 9
    assert any(8 not in fr.bus_ids for fr in wecc9_run.frames)


def test_regime_that_returns_is_its_own_run(wecc9_run):
    # a regime may come back; each run of it is evaluated on its own network
    nets, params = wecc9_run.nets, wecc9_run.params
    nm = params.n_machines
    regimes = [Regime.PreFault, Regime.PreFault, Regime.FaultOn,
               Regime.FaultOn, Regime.FaultOn, Regime.PreFault]
    states = wecc9_run.truth.state_matrix()[100:100 + len(regimes)]
    traj = Trajectory(times=np.arange(len(regimes)) * 0.01, states=states,
                      regime=regimes)
    silent = NoiseSpec(sigma_p=0.0, sigma_q=0.0, sigma_vmag=0.0,
                       sigma_vang=0.0)
    clean = synthesize(traj, nets, silent, 0)
    for fr, state, regime in zip(clean, states, regimes):
        net = nets.for_regime(regime)
        assert fr.bus_ids == net.bus_order
        assert np.array_equal(fr.z_vector(), np.concatenate(
            machine_outputs(state[:nm], params.e_mag, net)))

    noise = NoiseSpec()
    noisy = synthesize(traj, nets, noise, 5)
    ends = np.cumsum([fr.size for fr in clean])
    draws = np.split(np.random.default_rng(5).standard_normal(ends[-1]),
                     ends[:-1])
    for fr, base, draw in zip(noisy, clean, draws):
        nb = len(fr.bus_ids)
        sigma = np.repeat([noise.sigma_p, noise.sigma_q, noise.sigma_vmag,
                           noise.sigma_vang], [nm, nm, nb, nb])
        assert np.array_equal(fr.z_vector(), base.z_vector() + sigma * draw)


def test_frames_follow_the_measurement_model(wecc9_net, wecc9_params):
    # machine 1 turns 3 pi against the others: each frame is still the
    # filter's own prediction h(x), not a series unwrapped 2 pi away from it
    n = 301
    states = np.tile(np.concatenate([wecc9_params.delta0, np.ones(3)]),
                     (n, 1))
    states[:, 0] += np.linspace(0.0, 3.0 * np.pi, n)
    traj = Trajectory(times=np.arange(n) * 0.01, states=states,
                      regime=[Regime.PreFault] * n)
    silent = NoiseSpec(sigma_p=0.0, sigma_q=0.0, sigma_vmag=0.0,
                       sigma_vang=0.0)
    frames = synthesize(traj, same_net_everywhere(wecc9_net, wecc9_params),
                        silent, 0)
    model = swing_measurement_model(wecc9_params, wecc9_net)
    for fr, state in zip(frames, states):
        assert np.array_equal(fr.z_vector(), model.observe(state))


def test_complex_power_identity(wecc9_net, rng):
    e_mag = 1.0 + 0.1 * rng.random(3)
    for _ in range(100):
        delta = rng.uniform(-2.0, 2.0, size=3)
        p = electrical_power(delta, e_mag, wecc9_net)
        q = machine_outputs(delta, e_mag, wecc9_net)[1]
        emf = e_mag * np.exp(1j * delta)
        s = emf * np.conj(wecc9_net.y_red @ emf)
        assert np.max(np.abs(p - s.real)) < 1e-12
        assert np.max(np.abs(q - s.imag)) < 1e-12


def test_bus_voltage_reconstruction_shape(wecc9_net, wecc9_init):
    v_mag = machine_outputs(wecc9_init.delta0, wecc9_init.e_mag, wecc9_net)[2]
    assert v_mag.shape == (9,)
    assert np.all(v_mag > 0.9)


def test_negative_noise_rejected():
    with pytest.raises(ValueError, match="sigma_p"):
        NoiseSpec(sigma_p=-0.1)
    with pytest.raises(ValueError, match="q_omega"):
        NoiseSpec(q_omega=-1e-9)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["sigma_p", "sigma_vang", "q_delta"])
def test_non_finite_noise_rejected(name, value):
    # NaN used to pass the `level < 0` test
    with pytest.raises(ValueError, match=rf"finite.*{name}="):
        NoiseSpec(**{name: value})


@pytest.mark.parametrize("name", ["sigma_p", "sigma_q", "sigma_vmag",
                                  "sigma_vang"])
def test_sd_whose_square_overflows_rejected(name):
    # an sd of 1e200 used to pass, and filter_variances' sd ** 2 then raised
    # a bare OverflowError; the largest sd that squares finitely passes
    with pytest.raises(ValueError, match=rf"^noise sds must square to a "
                                         rf"finite float: {name}=1e\+200$"):
        NoiseSpec(**{name: 1e200})
    NoiseSpec(**{name: 1e154})
    # a variance is not squared: a q of 1e200 is a level like any other
    NoiseSpec(q_delta=1e200, q_omega=1e200)


def test_variance_layout_helpers():
    # the layout and the squares of the old per-array formulas, bitwise;
    # Python's ** and numpy's square round the last sd's square apart on
    # some platforms
    noise = NoiseSpec(sigma_p=0.1, sigma_q=0.2, sigma_vmag=0.3,
                      sigma_vang=0.42672114373024106, q_delta=1e-4,
                      q_omega=1e-5)
    sd = channel_sd(noise, n_machines=2, n_buses=3)
    assert np.array_equal(sd, [0.1] * 2 + [0.2] * 2 + [0.3] * 3
                          + [noise.sigma_vang] * 3)
    q, r = filter_variances(noise, n_machines=2, n_buses=3)
    assert np.array_equal(r, np.concatenate([
        np.full(2, noise.sigma_p ** 2), np.full(2, noise.sigma_q ** 2),
        np.full(3, noise.sigma_vmag ** 2), np.full(3, noise.sigma_vang ** 2)]))
    assert np.array_equal(q, np.array([1e-4, 1e-4, 1e-5, 1e-5]))
    # zero noise, and an sd of 1e-7 whose square is below the floor, all
    # read as the one positive floor
    silent = NoiseSpec(sigma_p=0.0, sigma_q=1e-7, sigma_vmag=0.0,
                       sigma_vang=0.0, q_delta=0.0, q_omega=0.0)
    q, r = filter_variances(silent, n_machines=2, n_buses=3)
    floor = q[0]
    assert floor > 1e-7 ** 2
    assert np.array_equal(q, np.full(4, floor))
    assert np.array_equal(r, np.full(10, floor))
