import dataclasses
import inspect
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powerdse
from powerdse import filters
from powerdse import (
    DynamicState,
    FaultScenario,
    FilterConfig,
    FilterNumericsError,
    GaussianBelief,
    MeasurementModel,
    NoiseSpec,
    ProcessModel,
    ReducedNetwork,
    Regime,
    init_belief,
    ekf_predict,
    ekf_update,
    electrical_power,
    filter_variances,
    preset,
    run_filter,
    simulate,
    swing_measurement_model,
    swing_process_model,
    synthesize,
    ukf_predict,
    ukf_update,
)

from oracles import (
    central_difference,
    ekf_update_covariance_form,
    linear_kalman,
    sigma_points,
)


def linear_process(a):
    # x @ a.T maps one state and a (k, n) stack alike
    a = np.asarray(a, dtype=float)
    return ProcessModel(step=lambda x: x @ a.T,
                        linearize=lambda x: (x @ a.T, a))


def linear_measurement(c):
    c = np.asarray(c, dtype=float)
    return MeasurementModel(observe=lambda x: x @ c.T,
                            linearize=lambda x: (x @ c.T, c))


def random_psd(rng, n, scale=1.0):
    a = rng.normal(size=(n, n))
    return scale * (a @ a.T) / n + 0.01 * scale * np.eye(n)


# --- beliefs -----------------------------------------------------------------


def test_init_belief_stores_verbatim(wecc9_init):
    x0 = np.concatenate([wecc9_init.delta0, np.ones(3)])
    p0 = 1e-4 * np.eye(6)
    belief = init_belief(x0, p0)
    assert np.array_equal(belief.x_hat, x0)
    assert np.array_equal(belief.p, p0)


def test_init_belief_rejects_asymmetry():
    p0 = np.eye(3)
    p0[0, 1] += 1e-3
    with pytest.raises(ValueError, match="symmetric"):
        init_belief(np.zeros(3), p0)


def test_init_belief_rejects_indefinite():
    with pytest.raises(ValueError, match="negative eigenvalue"):
        init_belief(np.zeros(2), -np.eye(2))


@pytest.mark.parametrize("which", ["x0", "p0"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_init_belief_rejects_non_finite(which, bad):
    x0, p0 = np.zeros(2), np.eye(2)
    if which == "x0":
        x0[0] = bad
    else:
        p0[0, 0] = bad
    with pytest.raises(ValueError, match=f"{which} is not finite"):
        init_belief(x0, p0)


def test_zero_prior_legal_and_grows_by_q():
    belief = init_belief(np.ones(2), np.zeros((2, 2)))
    q = np.diag([0.5, 0.25])
    predicted = ekf_predict(belief, linear_process(np.eye(2)), q)
    assert np.array_equal(predicted.p, q)
    assert np.array_equal(predicted.x_hat, belief.x_hat)


def test_filter_config_validation():
    with pytest.raises(ValueError, match="kind"):
        FilterConfig(kind="particle", noise=NoiseSpec())


def test_models_have_one_interface():
    # one way to linearize: no finite-difference mode, no per-stack or
    # fused variants, no wrappers around the models
    assert [f.name for f in dataclasses.fields(ProcessModel)] == \
        ["step", "linearize"]
    assert [f.name for f in dataclasses.fields(MeasurementModel)] == \
        ["observe", "linearize"]
    # one sigma-point set and one machine-power expression: no sigma scheme,
    # no jitter setting, no polar admittance, no cosine-sum linearization;
    # the filters' noise is the experiment's NoiseSpec, no per-channel q or r
    assert [f.name for f in dataclasses.fields(FilterConfig)] == \
        ["kind", "noise"]
    assert not {"jitter", "sigma_scheme"} & {
        f.name for f in dataclasses.fields(powerdse.ExperimentConfig)}
    assert not {"y_mag", "y_ang"} & {
        f.name for f in dataclasses.fields(ReducedNetwork)}
    for name in ("finite_difference_jacobian", "process_jacobian",
                 "measurement_jacobian", "electrical_power_jacobian",
                 "reactive_power_jacobian", "swing_derivatives",
                 "step_process", "reactive_power", "bus_voltages",
                 "continuous_voltage_angles"):
        assert not hasattr(powerdse, name), name
    for module, name in ((powerdse.reduction, "electrical_power_linearized"),
                         (powerdse.measurement, "measure"),
                         (powerdse.harness, "rmse"),
                         (filters, "_sigma_set"), (filters, "sigma_points"),
                         (filters, "_inverse"),
                         (powerdse.measurement, "measurement_indices")):
        assert not hasattr(module, name), name
    assert not hasattr(DynamicState, "from_vector")
    # one way to set the step and one description of the machines: dt sets
    # the step, and machine_init returns the swing model's MachineParams
    assert "substeps" not in {
        f.name for f in dataclasses.fields(powerdse.ExperimentConfig)}
    assert not hasattr(powerdse.dynamics, "SUBSTEPS")
    assert list(inspect.signature(simulate).parameters) == \
        ["case", "pf", "scenario"]
    net_param = inspect.signature(powerdse.machine_init).parameters["net"]
    assert net_param.default is inspect.Parameter.empty
    for module in (powerdse, powerdse.reduction, powerdse.dynamics):
        assert not hasattr(module, "MachineInit")
    assert "delta0" in {
        f.name for f in dataclasses.fields(powerdse.MachineParams)}
    assert not hasattr(powerdse.MachineParams, "from_case")
    belief = init_belief(np.zeros(2), np.eye(2))
    assert isinstance(ukf_predict(belief, linear_process(np.eye(2)),
                                  np.eye(2)), GaussianBelief)


# --- jacobians ---------------------------------------------------------------


def random_states(rng, init, count):
    n = init.delta0.size
    for _ in range(count):
        yield DynamicState(
            delta=init.delta0 + rng.uniform(-0.5, 0.5, n),
            omega=1.0 + rng.uniform(-0.01, 0.01, n),
        )


def test_process_jacobian_dt_zero_is_identity(wecc9_params, wecc9_net,
                                              wecc9_init):
    x = DynamicState(delta=wecc9_init.delta0, omega=np.ones(3))
    model = swing_process_model(wecc9_params, wecc9_net, 0.0)
    assert np.array_equal(model.linearize(x.as_vector())[1], np.eye(6))


@pytest.mark.parametrize("name", ["wecc9", "ne39"])
def test_process_jacobian_matches_fd(name, request, rng):
    init = request.getfixturevalue(f"{name}_init")
    net = request.getfixturevalue(f"{name}_net")
    params = request.getfixturevalue(f"{name}_params")
    model = swing_process_model(params, net, dt=0.01)
    for x in random_states(rng, init, 10):
        _, jac = model.linearize(x.as_vector())
        jac_fd = central_difference(model.step, x.as_vector(), eps=1e-6)
        assert np.max(np.abs(jac - jac_fd)) / np.max(np.abs(jac_fd)) < 1e-6


def test_process_jacobian_single_machine():
    # one machine sees only its self-admittance, so electrical power has no
    # angle dependence and the speed row keeps just its damping decay
    from powerdse import MachineParams

    y = np.array([[1.2 - 3.0j]])
    net = ReducedNetwork(y_red=y, r_v=np.zeros((0, 1), dtype=complex),
                         bus_order=())
    params = MachineParams(h=np.array([4.0]), d=np.array([0.8]),
                           e_mag=np.ones(1), p_mech=np.ones(1),
                           omega0=120.0 * np.pi, delta0=np.zeros(1))
    dt = 0.02
    x = DynamicState(delta=np.array([0.4]), omega=np.array([1.001]))
    _, jac = swing_process_model(params, net, dt).linearize(x.as_vector())
    assert jac[0, 0] == 1.0
    assert jac[0, 1] == dt * params.omega0
    assert jac[1, 0] == pytest.approx(0.0, abs=1e-14)
    assert jac[1, 1] == pytest.approx(1.0 - dt * 0.8 / 8.0, abs=1e-14)


@pytest.mark.parametrize("name", ["wecc9", "ne39"])
def test_measurement_jacobian_matches_fd(name, request, rng):
    init = request.getfixturevalue(f"{name}_init")
    net = request.getfixturevalue(f"{name}_net")
    params = request.getfixturevalue(f"{name}_params")
    model = swing_measurement_model(params, net)
    for x in random_states(rng, init, 10):
        _, jac = model.linearize(x.as_vector())
        jac_fd = central_difference(model.observe, x.as_vector(), eps=1e-6)
        assert np.max(np.abs(jac - jac_fd)) / np.max(np.abs(jac_fd)) < 1e-5


def swing_models(name, request):
    init = request.getfixturevalue(f"{name}_init")
    net = request.getfixturevalue(f"{name}_net")
    params = request.getfixturevalue(f"{name}_params")
    return (init, swing_process_model(params, net, dt=0.01),
            swing_measurement_model(params, net))


@pytest.mark.parametrize("name", ["wecc9", "ne39"])
def test_linearize_value_is_bitwise_the_model(name, request, rng):
    # ekf_update's zero-innovation identity needs observe and linearize to
    # agree exactly; the UKF evaluates the same maps on a stack
    init, process, measure = swing_models(name, request)
    stack = np.array([x.as_vector() for x in random_states(rng, init, 12)])
    stepped, observed = process.step(stack), measure.observe(stack)
    for k, x in enumerate(stack):
        x_next, _ = process.linearize(x)
        z, _ = measure.linearize(x)
        assert np.array_equal(x_next, process.step(x))
        assert np.array_equal(x_next, stepped[k])
        assert np.array_equal(z, measure.observe(x))
        assert np.array_equal(z, observed[k])


@pytest.mark.parametrize("name", ["wecc9", "ne39"])
def test_one_machine_power_expression(name, request, rng):
    # machine_init, the process model and the measurement model evaluate one
    # expression of the machine power, so they agree bitwise, not to rounding
    init, _, measure = swing_models(name, request)
    net = request.getfixturevalue(f"{name}_net")
    n = init.delta0.size
    x0 = np.concatenate([init.delta0, np.ones(n)])
    assert np.array_equal(init.p_mech, measure.observe(x0)[:n])
    stack = np.array([x.as_vector() for x in random_states(rng, init, 12)])
    assert np.array_equal(electrical_power(stack[:, :n], init.e_mag, net),
                          measure.observe(stack)[:, :n])


@pytest.mark.parametrize("name", ["wecc9", "ne39"])
def test_linearize_keeps_equilibrium_fixed(name, request):
    init, process, _ = swing_models(name, request)
    x0 = np.concatenate([init.delta0, np.ones_like(init.delta0)])
    x_next, _ = process.linearize(x0)
    assert np.array_equal(x_next, x0)


def test_measurement_jacobian_speed_columns_zero(wecc9_params, wecc9_net,
                                                 wecc9_init, rng):
    model = swing_measurement_model(wecc9_params, wecc9_net)
    for x in random_states(rng, wecc9_init, 5):
        _, jac = model.linearize(x.as_vector())
        assert np.all(jac[:, 3:] == 0.0)


def test_measurement_jacobian_common_shift(wecc9_params, wecc9_net,
                                           wecc9_init):
    x = DynamicState(delta=wecc9_init.delta0 + 0.1, omega=np.ones(3))
    model = swing_measurement_model(wecc9_params, wecc9_net)
    _, jac = model.linearize(x.as_vector())
    direction = np.concatenate([np.ones(3), np.zeros(3)])
    image = jac @ direction
    nm, nb = 3, 9
    assert np.max(np.abs(image[:2 * nm])) < 1e-9          # powers unmoved
    assert np.max(np.abs(image[2 * nm:2 * nm + nb])) < 1e-9   # magnitudes too
    assert np.max(np.abs(image[2 * nm + nb:] - 1.0)) < 1e-9   # angles follow


def test_measurement_jacobian_zero_voltage_named():
    from powerdse import MachineParams

    y = np.array([[1.0 - 1.0j]])
    net = ReducedNetwork(y_red=y, r_v=np.zeros((1, 1), dtype=complex),
                         bus_order=(7,))
    params = MachineParams(h=np.ones(1), d=np.zeros(1), e_mag=np.ones(1),
                           p_mech=np.ones(1), omega0=120.0 * np.pi,
                           delta0=np.zeros(1))
    x = DynamicState(delta=np.zeros(1), omega=np.ones(1))
    with pytest.raises(ValueError, match="bus 7"):
        swing_measurement_model(params, net).linearize(x.as_vector())


# --- extended filter steps ---------------------------------------------------


def test_ekf_predict_identity_noop():
    belief = init_belief(np.array([1.0, -2.0]), np.array([[2.0, 0.5],
                                                          [0.5, 1.0]]))
    out = ekf_predict(belief, linear_process(np.eye(2)), np.zeros((2, 2)))
    assert np.array_equal(out.x_hat, belief.x_hat)
    assert np.array_equal(out.p, belief.p)


def test_ekf_predict_scalar_linear():
    belief = init_belief(np.array([3.0]), np.array([[2.0]]))
    out = ekf_predict(belief, linear_process([[0.7]]), np.array([[0.3]]))
    assert out.x_hat[0] == pytest.approx(2.1, abs=1e-15)
    assert out.p[0, 0] == pytest.approx(0.49 * 2.0 + 0.3, abs=1e-15)


def test_ekf_predict_definition(wecc9_params, wecc9_net, wecc9_init, rng):
    model = swing_process_model(wecc9_params, wecc9_net, dt=0.01)
    q = random_psd(rng, 6, scale=1e-4)
    for x in random_states(rng, wecc9_init, 5):
        p0 = random_psd(rng, 6)
        belief = init_belief(x.as_vector(), p0)
        out = ekf_predict(belief, model, q)
        _, jac = model.linearize(x.as_vector())
        assert np.max(np.abs(out.p - (jac @ p0 @ jac.T + q))) < 1e-12


def test_ekf_update_zero_innovation(wecc9_params, wecc9_net, wecc9_init):
    model = swing_measurement_model(wecc9_params, wecc9_net)
    x0 = np.concatenate([wecc9_init.delta0, np.ones(3)])
    belief = init_belief(x0, 1e-2 * np.eye(6))
    z = model.observe(x0)
    out = ekf_update(belief, z, model, np.linalg.inv(1e-4 * np.eye(z.size)))
    assert np.array_equal(out.x_hat, belief.x_hat)


def test_ekf_update_uninformative_measurement(wecc9_params, wecc9_net,
                                              wecc9_init):
    model = swing_measurement_model(wecc9_params, wecc9_net)
    x0 = np.concatenate([wecc9_init.delta0, np.ones(3)])
    belief = init_belief(x0, 1e-2 * np.eye(6))
    z = model.observe(x0) + 0.5
    out = ekf_update(belief, z, model, np.linalg.inv(1e12 * np.eye(z.size)))
    assert np.max(np.abs(out.x_hat - belief.x_hat)) < 1e-9
    assert np.max(np.abs(out.p - belief.p)) < 1e-9


def test_ekf_update_textbook_scalar():
    belief = init_belief(np.array([2.0]), np.array([[1.0]]))
    out = ekf_update(belief, np.array([3.0]),
                     linear_measurement([[1.0]]), np.linalg.inv([[1.0]]))
    assert out.x_hat[0] == pytest.approx(2.5, abs=1e-15)
    assert out.p[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_ekf_update_singular_information_matrix():
    # with an indefinite R^-1, I + P H^T R^-1 H can be singular: here it is 0
    belief = init_belief(np.zeros(2), np.eye(2))
    with pytest.raises(FilterNumericsError, match="information matrix.*cond"):
        ekf_update(belief, np.zeros(2), linear_measurement(np.eye(2)),
                   -np.eye(2))


@pytest.mark.parametrize("n", [6, 20, 24, 98])
def test_lapack_gufuncs_are_np_linalg_bitwise(n):
    # the frames call the gufuncs np.linalg wraps, at the sizes of the
    # presets' sigma sets and innovation solves; a numpy that moves or
    # changes them fails here
    rng = np.random.default_rng(n)
    a = random_psd(rng, n)
    b = rng.normal(size=(n, 6))
    lapack = filters._umath_linalg
    assert np.array_equal(lapack.cholesky_lo(a), np.linalg.cholesky(a))
    assert np.array_equal(lapack.solve(a, b), np.linalg.solve(a, b))
    assert np.array_equal(lapack.solve(a, a.T), np.linalg.solve(a, a.T))


def test_ukf_update_singular_innovation_covariance():
    # a measurement blind to the state, with R = 0: P_zz is 0
    belief = init_belief(np.zeros(2), np.eye(2))
    with pytest.raises(FilterNumericsError,
                       match=r"^singular innovation covariance \(cond "):
        ukf_update(belief, np.zeros(2), linear_measurement(np.zeros((2, 2))),
                   np.zeros((2, 2)))


@pytest.mark.parametrize("frame_step", [ekf_predict, ukf_predict])
def test_frame_step_raises_on_a_nan_it_makes(frame_step):
    # inf - inf inside the process model is an error of the call, and the
    # error state ends with it
    inf = np.full(1, np.inf)
    model = ProcessModel(step=lambda x: x + (inf - inf),
                         linearize=lambda x: (x + (inf - inf), np.eye(1)))
    invalid = np.geterr()["invalid"]
    with pytest.raises(FloatingPointError, match="invalid value"):
        frame_step(init_belief(np.zeros(1), np.eye(1)), model, np.eye(1))
    assert np.geterr()["invalid"] == invalid


# --- sigma points ------------------------------------------------------------


def test_ukf_weights_built_once_per_count():
    pts = sigma_points(init_belief(np.zeros(3), np.eye(3)))
    w = filters._equal_weights(len(pts))
    assert filters._equal_weights(6) is w
    assert np.array_equal(w, np.full(6, 1.0 / 6.0))
    assert not w.flags.writeable


def test_sigma_points_unit_scalar():
    pts = sigma_points(init_belief(np.zeros(1), np.eye(1)))
    assert np.array_equal(pts, np.array([[1.0], [-1.0]]))


def test_sigma_points_two_state_spread():
    pts = sigma_points(init_belief(np.zeros(2), 4.0 * np.eye(2)))
    assert pts.shape == (4, 2)
    spread = np.abs(pts[pts != 0.0])
    assert np.allclose(spread, 2.0 * np.sqrt(2.0), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 6))
def test_sigma_points_moment_identity(seed, n):
    rng = np.random.default_rng(seed)
    p = random_psd(rng, n)
    x_hat = rng.normal(size=n)
    pts = sigma_points(init_belief(x_hat, p))
    assert pts.shape == (2 * n, n)
    assert np.allclose(pts.mean(axis=0), x_hat, atol=1e-12)
    dev = pts - x_hat
    cov = dev.T @ dev / (2 * n)
    assert np.max(np.abs(cov - p)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 5), st.integers(1, 5))
def test_unscented_transform_exact_for_linear_maps(seed, n, m):
    rng = np.random.default_rng(seed)
    p = random_psd(rng, n)
    x_hat = rng.normal(size=n)
    a = rng.normal(size=(m, n))
    pts = sigma_points(init_belief(x_hat, p)) @ a.T
    mean = pts.mean(axis=0)
    dev = pts - mean
    cov = dev.T @ dev / pts.shape[0]
    assert np.max(np.abs(mean - a @ x_hat)) < 1e-10
    assert np.max(np.abs(cov - a @ p @ a.T)) < 1e-10


def test_sigma_points_jitter_recovers_near_psd():
    p = np.eye(2)
    p[1, 1] = -1e-12   # slightly indefinite; jitter absorbs it
    belief = init_belief(np.zeros(2), np.zeros((2, 2)))
    belief = belief.__class__(x_hat=belief.x_hat, p=p)
    pts = sigma_points(belief)
    assert np.all(np.isfinite(pts))


def test_sigma_points_hard_failure():
    belief = init_belief(np.zeros(2), np.zeros((2, 2)))
    belief = belief.__class__(x_hat=belief.x_hat, p=-np.eye(2))
    with pytest.raises(FilterNumericsError, match="positive semidefinite"):
        sigma_points(belief)


# --- unscented filter steps --------------------------------------------------


def test_ukf_predict_identity_adds_q(rng):
    p0 = random_psd(rng, 3)
    q = random_psd(rng, 3, scale=0.1)
    belief = init_belief(rng.normal(size=3), p0)
    out = ukf_predict(belief, linear_process(np.eye(3)), q)
    assert np.max(np.abs(out.x_hat - belief.x_hat)) < 1e-12
    assert np.max(np.abs(out.p - (p0 + q))) < 1e-12


def test_ukf_predict_linear_map(rng):
    a = rng.normal(size=(4, 4))
    p0 = random_psd(rng, 4)
    q = random_psd(rng, 4, scale=0.2)
    belief = init_belief(rng.normal(size=4), p0)
    out = ukf_predict(belief, linear_process(a), q)
    assert np.max(np.abs(out.x_hat - a @ belief.x_hat)) < 1e-10
    assert np.max(np.abs(out.p - (a @ p0 @ a.T + q))) < 1e-10


def test_ukf_matches_ekf_at_small_covariance(wecc9_params, wecc9_net,
                                             wecc9_init):
    model = swing_process_model(wecc9_params, wecc9_net, dt=0.01)
    x0 = np.concatenate([wecc9_init.delta0 + 0.05, np.ones(3)])
    belief = init_belief(x0, 1e-8 * np.eye(6))
    q = 1e-9 * np.eye(6)
    lin = ekf_predict(belief, model, q)
    unsc = ukf_predict(belief, model, q)
    assert np.max(np.abs(lin.x_hat - unsc.x_hat)) < 1e-6
    assert np.max(np.abs(lin.p - unsc.p)) < 1e-6


def test_ukf_update_zero_innovation(rng):
    c = rng.normal(size=(2, 3))
    belief = init_belief(rng.normal(size=3), random_psd(rng, 3))
    z = c @ belief.x_hat
    out = ukf_update(belief, z, linear_measurement(c), 0.1 * np.eye(2))
    assert np.max(np.abs(out.x_hat - belief.x_hat)) < 1e-12


def test_ukf_update_equals_exact_kalman(rng):
    c = rng.normal(size=(3, 4))
    r = random_psd(rng, 3, scale=0.5)
    p0 = random_psd(rng, 4)
    x0 = rng.normal(size=4)
    z = rng.normal(size=3)
    out = ukf_update(init_belief(x0, p0), z, linear_measurement(c), r)
    s = c @ p0 @ c.T + r
    gain = p0 @ c.T @ np.linalg.inv(s)
    x_ref = x0 + gain @ (z - c @ x0)
    p_ref = p0 - gain @ s @ gain.T
    assert np.max(np.abs(out.x_hat - x_ref)) < 1e-10
    assert np.max(np.abs(out.p - p_ref)) < 1e-10


def test_ukf_update_contracts_uncertainty(rng):
    c = rng.normal(size=(2, 3))
    belief = init_belief(rng.normal(size=3), random_psd(rng, 3))
    out = ukf_update(belief, rng.normal(size=2), linear_measurement(c),
                     0.2 * np.eye(2))
    assert np.trace(out.p) < np.trace(belief.p)


# --- linear-gaussian equivalence ---------------------------------------------


def simulate_linear(rng, a, c, q, r, x0, steps):
    lq = np.linalg.cholesky(q)
    lr = np.linalg.cholesky(r)
    x = x0.copy()
    zs = []
    for _ in range(steps):
        x = a @ x + lq @ rng.normal(size=x.size)
        zs.append(c @ x + lr @ rng.normal(size=r.shape[0]))
    return zs


@pytest.mark.parametrize("seed", [7, 21])
def test_linear_equivalence_three_ways(seed):
    rng = np.random.default_rng(seed)
    n, m = 4, 3
    a = rng.normal(size=(n, n))
    a *= 0.95 / np.max(np.abs(np.linalg.eigvals(a)))
    c = rng.normal(size=(m, n))
    q = random_psd(rng, n, scale=0.05)
    r = random_psd(rng, m, scale=0.1)
    x0 = rng.normal(size=n)
    p0 = random_psd(rng, n)
    zs = simulate_linear(rng, a, c, q, r, x0, steps=60)

    ref_means, ref_covs = linear_kalman(a, c, q, r, x0, p0, zs)

    proc = linear_process(a)
    meas = linear_measurement(c)
    ekf_belief = init_belief(x0, p0)
    ukf_belief = init_belief(x0, p0)
    for k, z in enumerate(zs):
        ekf_belief = ekf_update(ekf_predict(ekf_belief, proc, q), z, meas,
                                np.linalg.inv(r))
        ukf_belief = ukf_update(ukf_predict(ukf_belief, proc, q), z, meas, r)
        assert np.max(np.abs(ekf_belief.x_hat - ref_means[k])) < 1e-8
        assert np.max(np.abs(ukf_belief.x_hat - ref_means[k])) < 1e-8
        assert np.max(np.abs(ekf_belief.p - ref_covs[k])) < 1e-8
        assert np.max(np.abs(ukf_belief.p - ref_covs[k])) < 1e-8


# --- full scenario runs ------------------------------------------------------


def quiet_run_inputs(wecc9, wecc9_pf, wecc9_net, wecc9_params, wecc9_init):
    scen = FaultScenario(fault_bus=8, t_fault=1.0, clearing_cycles=2.0,
                         cleared_line=(8, 9), t_end=3.0, dt=0.01)
    truth = simulate(wecc9, wecc9_pf, scen)
    silent = NoiseSpec(sigma_p=0.0, sigma_q=0.0, sigma_vmag=0.0,
                       sigma_vang=0.0, q_delta=0.0, q_omega=0.0)
    from powerdse import scenario_networks

    nets = scenario_networks(wecc9, wecc9_pf, scen)
    frames = synthesize(truth, nets, silent, 0)
    b0 = init_belief(np.concatenate([wecc9_init.delta0, np.ones(3)]),
                     1e-6 * np.eye(6))
    return scen, truth, frames, b0


@pytest.mark.parametrize("kind", ["ekf", "ukf"])
def test_run_filter_tracks_noise_free_frames(kind, wecc9, wecc9_pf, wecc9_net,
                                             wecc9_params, wecc9_init):
    scen, truth, frames, b0 = quiet_run_inputs(
        wecc9, wecc9_pf, wecc9_net, wecc9_params, wecc9_init)
    silent = NoiseSpec(sigma_p=0.0, sigma_q=0.0, sigma_vmag=0.0,
                       sigma_vang=0.0, q_delta=0.0, q_omega=0.0)
    cfg = FilterConfig(kind=kind, noise=silent)
    estimate, beliefs = run_filter(cfg, wecc9, wecc9_pf, scen, frames, b0)
    assert len(beliefs) == len(frames)
    err = np.abs(estimate.delta_matrix() - truth.delta_matrix())
    assert np.max(err) < 1e-3


def test_run_filter_deterministic(wecc9, wecc9_pf, wecc9_run):
    cfg = FilterConfig(kind="ekf", noise=wecc9_run.cfg.noise)
    b0 = init_belief(np.concatenate([wecc9_run.init.delta0, np.ones(3)]),
                     1e-2 * np.eye(6))
    scen = wecc9_run.cfg.scenario
    first, _ = run_filter(cfg, wecc9, wecc9_pf, scen, wecc9_run.frames, b0)
    second, _ = run_filter(cfg, wecc9, wecc9_pf, scen, wecc9_run.frames, b0)
    assert np.array_equal(first.delta_matrix(), second.delta_matrix())
    assert np.array_equal(first.omega_matrix(), second.omega_matrix())


@pytest.mark.parametrize("kind", ["ekf", "ukf"])
def test_covariance_health_along_preset_run(kind, wecc9, wecc9_pf, wecc9_run):
    cfg = FilterConfig(kind=kind, noise=wecc9_run.cfg.noise)
    b0 = init_belief(np.concatenate([wecc9_run.init.delta0, np.ones(3)]),
                     1e-2 * np.eye(6))
    _, beliefs = run_filter(cfg, wecc9, wecc9_pf, wecc9_run.cfg.scenario,
                            wecc9_run.frames, b0)
    for belief in beliefs:
        assert np.max(np.abs(belief.p - belief.p.T)) < 1e-12
        assert np.linalg.eigvalsh(belief.p).min() > -1e-10


def test_run_filter_needs_a_frame(wecc9, wecc9_pf, wecc9_run):
    # one error naming the need, not numpy's "need at least one array to
    # concatenate"
    nm = wecc9_run.params.n_machines
    cfg = FilterConfig(kind="ekf", noise=NoiseSpec())
    b0 = init_belief(np.concatenate([wecc9_run.params.delta0, np.ones(nm)]),
                     1e-2 * np.eye(2 * nm))
    with pytest.raises(FilterNumericsError, match="at least one frame"):
        run_filter(cfg, wecc9, wecc9_pf, wecc9_run.cfg.scenario, [], b0)


@pytest.mark.parametrize("kind,stage,method,poison,message", [
    ("ekf", "predict", "linearize", "nan", "invalid value encountered in subtract"),
    ("ukf", "predict", "step", "nan", "invalid value encountered in subtract"),
    ("ekf", "update", "linearize", "nan", "invalid value encountered in subtract"),
    ("ukf", "update", "observe", "nan", "invalid value encountered in subtract"),
    ("ekf", "predict", "linearize", "overflow", "overflow encountered in multiply"),
    ("ukf", "predict", "step", "overflow", "overflow encountered in multiply"),
    ("ekf", "update", "linearize", "overflow", "overflow encountered in multiply"),
    ("ukf", "update", "observe", "overflow", "overflow encountered in multiply"),
], ids=["ekf-predict", "ukf-predict", "ekf-update", "ukf-update",
        "ekf-predict-overflow", "ukf-predict-overflow", "ekf-update-overflow",
        "ukf-update-overflow"])
def test_run_filter_names_frame_of_a_nan_made_mid_run(kind, stage, method,
                                                      poison, message,
                                                      wecc9, wecc9_pf,
                                                      wecc9_run, monkeypatch):
    # the model's 200th evaluation, frame 200's, adds inf - inf to its value,
    # or scales it past the largest float: the run stops there, naming the
    # frame and the cause, instead of carrying NaN or inf on
    factory = ("swing_process_model" if stage == "predict"
               else "swing_measurement_model")
    build = getattr(filters, factory)
    calls = itertools.count(1)

    def spoil(value):
        if poison == "nan":
            inf = np.full(1, np.inf)
            return value + (inf - inf)
        big = np.full(1, 1e300)
        return value * big * big

    def poisoned(*args):
        model = build(*args)
        evaluate = getattr(model, method)

        def wrapped(vec):
            out = evaluate(vec)
            if next(calls) == 200:
                if isinstance(out, tuple):
                    return (spoil(out[0]), *out[1:])
                return spoil(out)
            return out

        return dataclasses.replace(model, **{method: wrapped})

    monkeypatch.setattr(filters, factory, poisoned)
    b0 = init_belief(np.concatenate([wecc9_run.init.delta0, np.ones(3)]),
                     1e-2 * np.eye(6))
    with pytest.raises(FilterNumericsError,
                       match=rf"^frame 200 \(t=2\.0000s\): {message}$") as err:
        run_filter(FilterConfig(kind=kind, noise=wecc9_run.cfg.noise), wecc9,
                   wecc9_pf, wecc9_run.cfg.scenario, wecc9_run.frames, b0)
    assert isinstance(err.value.__cause__, FloatingPointError)
    assert next(calls) == 201


def test_run_filter_names_frame_of_an_overflowing_covariance(wecc9, wecc9_pf,
                                                             wecc9_run):
    # a finite q of 1e305 makes the first information matrix overflow: the
    # error names frame 1 and the overflow, not a NaN a frame later
    cfg = FilterConfig(kind="ekf", noise=dataclasses.replace(
        wecc9_run.cfg.noise, q_delta=1e305, q_omega=1e305))
    b0 = init_belief(np.concatenate([wecc9_run.init.delta0, np.ones(3)]),
                     1e-2 * np.eye(6))
    with pytest.raises(FilterNumericsError, match=r"^frame 1 \(t=0\.0100s\): "
                       r"overflow encountered in dot$") as err:
        run_filter(cfg, wecc9, wecc9_pf, wecc9_run.cfg.scenario,
                   wecc9_run.frames, b0)
    assert isinstance(err.value.__cause__, FloatingPointError)


def preset_ekf_inputs(run, quiet):
    """EKF config, frames and prior for a preset run: its own noise and
    frames, or zero-noise frames with q and R at the floor of
    ``filter_variances``."""
    nm = run.params.n_machines
    b0 = init_belief(np.concatenate([run.params.delta0, np.ones(nm)]),
                     1e-2 * np.eye(2 * nm))
    if not quiet:
        return FilterConfig(kind="ekf", noise=run.cfg.noise), run.frames, b0
    silent = NoiseSpec(sigma_p=0.0, sigma_q=0.0, sigma_vmag=0.0,
                       sigma_vang=0.0, q_delta=0.0, q_omega=0.0)
    frames = synthesize(run.truth, run.nets, silent, 0)
    return FilterConfig(kind="ekf", noise=silent), frames, b0


@pytest.mark.parametrize("name,quiet", [
    ("wecc9", False), ("ne39", False), ("wecc9", True), ("ne39", True),
], ids=["wecc9", "ne39", "wecc9-zero-noise", "ne39-zero-noise"])
def test_information_form_matches_covariance_form(name, quiet, request,
                                                  monkeypatch):
    run = request.getfixturevalue(f"{name}_run")
    cfg, frames, b0 = preset_ekf_inputs(run, quiet)
    args = (cfg, run.case, run.pf, run.cfg.scenario, frames, b0)
    _, beliefs = run_filter(*args)
    # the same plan, each frame updated in covariance form on R itself,
    # taken back from the diagonal R^-1 block the EKF is given
    monkeypatch.setattr(
        filters, "ekf_update", lambda belief, z, model, r_inv:
        ekf_update_covariance_form(belief, z, model,
                                   np.diag(1.0 / np.diag(r_inv))))
    _, reference = run_filter(*args)
    assert len(beliefs) == len(reference) == len(frames)
    for b, ref in zip(beliefs, reference):
        assert np.max(np.abs(b.x_hat - ref.x_hat)) < 1e-11
        assert np.max(np.abs(b.p - ref.p)) < 1e-14


@pytest.mark.parametrize("kind", ["ekf", "ukf"])
def test_run_filter_one_r_block_per_regime(kind, wecc9, wecc9_pf, wecc9_run,
                                           monkeypatch):
    # wecc9's frames are pre-fault, fault-on without bus 8, then
    # post-clearing: one R block per regime, built once with its measurement
    # model from filter_variances of that regime's layout, R itself for the
    # UKF and its inverse for the EKF
    blocks = {}
    name = f"{kind}_update"
    update = getattr(filters, name)

    def recording(belief, z, model, r_block):
        blocks.setdefault((id(model), id(r_block)), r_block)
        return update(belief, z, model, r_block)

    monkeypatch.setattr(filters, name, recording)
    cfg = FilterConfig(kind=kind, noise=wecc9_run.cfg.noise)
    b0 = init_belief(np.concatenate([wecc9_run.init.delta0, np.ones(3)]),
                     1e-2 * np.eye(6))
    run_filter(cfg, wecc9, wecc9_pf, wecc9_run.cfg.scenario,
               wecc9_run.frames, b0)

    def block_of(n_buses):
        r = filter_variances(cfg.noise, 3, n_buses)[1]
        return np.diag(r if kind == "ukf" else 1.0 / r)

    intact = block_of(9)
    # channels: p_g and q_g of 3 machines, then v_mag and v_ang of buses 1..9
    bus_8 = [2 * 3 + 7, 2 * 3 + 9 + 7]
    fault_on = np.delete(np.delete(intact, bus_8, 0), bus_8, 1)
    pre, on, post = blocks.values()
    assert [len(b) for b in (pre, on, post)] == [24, 22, 24]
    for block, want in ((pre, intact), (on, block_of(8)), (post, intact)):
        assert np.array_equal(block, want)
    # the fault-on layout's r is the intact r less bus 8's two channels
    assert np.array_equal(block_of(8), fault_on)
    if kind == "ekf":
        # bitwise the inverse of the diagonal block
        r = filter_variances(cfg.noise, 3, 9)[1]
        assert np.array_equal(intact, np.linalg.inv(np.diag(r)))


@pytest.mark.parametrize("change,message", [
    ("b0-size", r"^prior mean has shape \(5,\), expected \(6,\)$"),
    ("nan-p0", r"^prior covariance is not finite \(1 of 36 entries\)$"),
    ("neg-p0", r"^prior covariance has negative eigenvalue -1\.000e-02$"),
    ("asym-p0", r"^prior covariance is not symmetric$"),
    ("unknown-bus", r"^frame 500 \(t=5\.0000s\): buses \(1, 2, 3, 4, 5, 6, 7, "
                    r"8, 99\) are not the post_fault network's bus order "
                    r"\(1, 2, 3, 4, 5, 6, 7, 8, 9\)$"),
    ("intact-fault-on", r"^frame 102 \(t=1\.0200s\): buses \(1, 2, 3, 4, 5, "
                        r"6, 7, 8, 9\) are not the fault_on network's bus "
                        r"order \(1, 2, 3, 4, 5, 6, 7, 9\)$"),
    ("short-p_g", r"^frame 500 \(t=5\.0000s\): p_g has shape \(2,\), "
                  r"expected \(3,\)$"),
    ("row-p_g", r"^frame 500 \(t=5\.0000s\): p_g has shape \(1, 3\), "
                r"expected \(3,\)$"),
    ("column-p_g", r"^frame 500 \(t=5\.0000s\): p_g has shape \(3, 1\), "
                   r"expected \(3,\)$"),
], ids=["b0-size", "nan-p0", "neg-p0", "asym-p0", "unknown-bus",
        "intact-fault-on", "short-p_g", "row-p_g", "column-p_g"])
@pytest.mark.parametrize("kind", ["ekf", "ukf"])
def test_run_filter_checks_inputs_before_any_step(kind, change, message, wecc9,
                                                 wecc9_pf, wecc9_run,
                                                 monkeypatch):
    # one contract for both kinds: the same error, raised before any predict
    predicts = []
    for name in ("ekf_predict", "ukf_predict"):
        def counting(*args, _predict=getattr(filters, name)):
            predicts.append(1)
            return _predict(*args)
        monkeypatch.setattr(filters, name, counting)
    cfg = FilterConfig(kind=kind, noise=wecc9_run.cfg.noise)
    b0 = init_belief(np.concatenate([wecc9_run.init.delta0, np.ones(3)]),
                     1e-2 * np.eye(6))
    x0, p0 = b0.x_hat, b0.p.copy()
    frames = list(wecc9_run.frames)
    if change == "b0-size":
        x0 = x0[:5]
    elif change == "nan-p0":
        p0[0, 0] = np.nan
    elif change == "neg-p0":
        p0 = -p0
    elif change == "asym-p0":
        p0[0, 1] += 1.0
    elif change == "unknown-bus":
        frames[500] = dataclasses.replace(frames[500],
                                          bus_ids=(*range(1, 9), 99))
    elif change == "intact-fault-on":
        # frame 102 is fault-on, whose network has no bus 8
        intact = frames[99]
        frames[102] = dataclasses.replace(
            frames[102], v_mag=intact.v_mag, v_ang=intact.v_ang,
            bus_ids=intact.bus_ids)
    else:
        p_g = frames[500].p_g
        p_g = {"short-p_g": p_g[:2], "row-p_g": p_g[None, :],
               "column-p_g": p_g[:, None]}[change]
        frames[500] = dataclasses.replace(frames[500], p_g=p_g)
    args = (wecc9, wecc9_pf, wecc9_run.cfg.scenario)
    with pytest.raises(FilterNumericsError, match=message):
        run_filter(cfg, *args, frames, GaussianBelief(x_hat=x0, p=p0))
    assert predicts == []
    # the counting wrappers are the ones run_filter calls
    run_filter(cfg, *args, wecc9_run.frames[:3], b0)
    assert len(predicts) == 2


def with_nan(frames, k, field, index):
    values = getattr(frames[k], field).copy()
    values[index] = np.nan
    frames = list(frames)
    frames[k] = dataclasses.replace(frames[k], **{field: values})
    return frames


@pytest.mark.parametrize("kind", ["ekf", "ukf"])
def test_run_filter_rejects_non_finite_frames(kind, wecc9, wecc9_pf, wecc9_run):
    # frame 500 is post-fault; frame 101 (t=1.01 s) is fault-on, where bus 8
    # is absent and bus 9 is the eighth bus of the layout
    scen = wecc9_run.cfg.scenario
    cfg = FilterConfig(kind=kind, noise=wecc9_run.cfg.noise)
    b0 = init_belief(np.concatenate([wecc9_run.init.delta0, np.ones(3)]),
                     1e-2 * np.eye(6))
    assert wecc9_run.truth.regime[101] is Regime.FaultOn
    assert wecc9_run.frames[101].bus_ids[7] == 9
    cases = [(500, "p_g", 0, r"frame 500 \(t=5\.0000s\).*p_g_1"),
             (101, "v_ang", 7, r"frame 101 \(t=1\.0100s\).*v_ang_9")]
    for k, field, index, message in cases:
        frames = with_nan(wecc9_run.frames, k, field, index)
        with pytest.raises(FilterNumericsError, match=message):
            run_filter(cfg, wecc9, wecc9_pf, scen, frames, b0)
    assert np.all(np.isfinite(wecc9_run.frames[500].p_g))


def test_run_filter_one_process_model_per_regime(wecc9, wecc9_pf, wecc9_run,
                                                 monkeypatch):
    # every interval is one dt, so the three regimes need three models
    scen = wecc9_run.cfg.scenario
    builds = []
    build = filters.swing_process_model

    def counting(params, net, dt):
        builds.append(dt)
        return build(params, net, dt)

    monkeypatch.setattr(filters, "swing_process_model", counting)
    b0 = init_belief(np.concatenate([wecc9_run.init.delta0, np.ones(3)]),
                     1e-2 * np.eye(6))
    run_filter(FilterConfig(kind="ekf", noise=wecc9_run.cfg.noise), wecc9,
               wecc9_pf, scen, wecc9_run.frames, b0)
    assert scen == preset("wecc9-fault8").scenario
    assert builds == [scen.dt] * 3


def test_run_filter_rejects_off_grid_frame(wecc9, wecc9_pf, wecc9_run):
    scen = wecc9_run.cfg.scenario
    b0 = init_belief(np.concatenate([wecc9_run.init.delta0, np.ones(3)]),
                     1e-2 * np.eye(6))
    cfg = FilterConfig(kind="ekf", noise=wecc9_run.cfg.noise)
    frames = list(wecc9_run.frames)
    frames[300] = dataclasses.replace(frames[300], t=3.0 + 1e-6)
    with pytest.raises(FilterNumericsError,
                       match=r"frame 300 \(t=3\.0000s\).*off the sample grid"):
        run_filter(cfg, wecc9, wecc9_pf, scen, frames, b0)
    # a dropped frame shifts every later stamp off k * dt
    with pytest.raises(FilterNumericsError, match=r"frame 300 \(t=3\.0100s\)"):
        run_filter(cfg, wecc9, wecc9_pf, scen, frames[:300] + frames[301:], b0)
    # rounding far below the tolerance is on the grid
    frames[300] = dataclasses.replace(frames[300], t=3.0 * (1.0 + 1e-12))
    run_filter(cfg, wecc9, wecc9_pf, scen, frames[:310], b0)
