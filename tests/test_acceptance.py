"""End-to-end acceptance gate.

Each test checks one release criterion with pinned tolerances and always
prints exactly one PASS/FAIL line (bypassing capture) so the verdicts show
up in plain pytest output.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from powerdse import (
    FaultScenario,
    MeasurementModel,
    ProcessModel,
    ekf_predict,
    ekf_update,
    extend_network,
    filter_variances,
    init_belief,
    kron_reduce,
    load_case,
    run_experiment,
    simulate,
    solve_power_flow,
    swing_measurement_model,
    swing_process_model,
    total_load,
    ukf_predict,
    ukf_update,
)

from oracles import (
    central_difference,
    extended_system_currents,
    gauss_seidel_power_flow,
    linear_kalman,
    sigma_points,
    static_angle_inversion,
)


@pytest.fixture()
def verdict(capsys):
    def _verdict(num, label, ok, detail):
        with capsys.disabled():
            print(f"[acceptance] criterion {num} ({label}): "
                  f"{'PASS' if ok else 'FAIL'}; {detail}")
        assert ok, f"criterion {num} ({label}) failed: {detail}"
    return _verdict


EXPECTED_LOAD = {"wecc9": (315.0, 115.0), "ne39": (6254.2, 1387.1)}


def test_criterion_1_power_flow(verdict):
    parts, ok = [], True
    for name in ("wecc9", "ne39"):
        case = load_case(name)
        t0 = time.perf_counter()
        sol = solve_power_flow(case, tol=1e-6, max_iter=10)
        wall = time.perf_counter() - t0
        v_newton = sol.v_mag * np.exp(1j * sol.v_ang)
        v_gs = gauss_seidel_power_flow(case, tol=1e-10)
        gs_diff = np.max(np.abs(v_newton - v_gs))
        loads_ok = total_load(case) == EXPECTED_LOAD[name]
        ok &= (sol.max_mismatch < 1e-6 and sol.iterations <= 10
               and gs_diff < 1e-4 and loads_ok and wall < 1.0)
        parts.append(f"{name} {sol.iterations} iters mismatch "
                     f"{sol.max_mismatch:.1e} gs diff {gs_diff:.1e} "
                     f"load exact {loads_ok} {wall:.2f}s")
    verdict(1, "power flow vs oracle", ok, "; ".join(parts))


def test_criterion_2_reduction_equivalence(verdict, wecc9, wecc9_pf,
                                           ne39, ne39_pf):
    rng = np.random.default_rng(7)
    parts, ok = [], True
    for case, pf in ((wecc9, wecc9_pf), (ne39, ne39_pf)):
        ext = extend_network(case, pf)
        net = kron_reduce(ext)
        nm = net.n_machines
        worst_current, worst_recon = 0.0, 0.0
        for _ in range(100):
            e = (rng.uniform(0.9, 1.1, nm)
                 * np.exp(1j * rng.uniform(-np.pi, np.pi, nm)))
            i_red = net.y_red @ e
            i_full = extended_system_currents(ext.y11, ext.y12, ext.y12.T,
                                              ext.y22, e)
            worst_current = max(worst_current, np.max(np.abs(i_red - i_full)))
            recon = ext.y11 @ (net.r_v @ e) + ext.y12 @ e
            worst_recon = max(worst_recon, np.max(np.abs(recon)))
        ok &= worst_current < 1e-9 and worst_recon < 1e-9
        parts.append(f"{case.name} current {worst_current:.1e} "
                     f"reconstruction {worst_recon:.1e}")
    verdict(2, "network reduction equivalence", ok, "; ".join(parts))


def test_criterion_3_equilibrium_hold(verdict, wecc9, wecc9_pf,
                                      ne39, ne39_pf):
    parts, ok = [], True
    scenarios = {
        "wecc9": FaultScenario(fault_bus=8, t_fault=20.0, clearing_cycles=2.0,
                               cleared_line=(8, 9), t_end=10.0, dt=0.01),
        "ne39": FaultScenario(fault_bus=4, t_fault=20.0, clearing_cycles=2.0,
                              cleared_line=(4, 14), t_end=10.0, dt=0.01),
    }
    for case, pf in ((wecc9, wecc9_pf), (ne39, ne39_pf)):
        traj = simulate(case, pf, scenarios[case.name])
        delta = traj.delta_matrix()
        drift = np.max(np.abs(delta - delta[0]))
        speed = np.max(np.abs(traj.omega_matrix() - 1.0))
        ok &= drift < 1e-6 and speed < 1e-8
        parts.append(f"{case.name} angle drift {drift:.1e} "
                     f"speed drift {speed:.1e}")
    verdict(3, "10s equilibrium hold", ok, "; ".join(parts))


def test_criterion_4_jacobian_suites(verdict, request):
    rng = np.random.default_rng(11)
    parts, ok = [], True
    for name in ("wecc9", "ne39"):
        net = request.getfixturevalue(f"{name}_net")
        init = request.getfixturevalue(f"{name}_init")
        params = request.getfixturevalue(f"{name}_params")
        proc = swing_process_model(params, net, dt=0.01)
        meas = swing_measurement_model(params, net)
        nm = init.delta0.size
        worst_f, worst_h = 0.0, 0.0
        for _ in range(100):
            x = np.concatenate([init.delta0 + rng.uniform(-0.5, 0.5, nm),
                                1.0 + rng.uniform(-0.01, 0.01, nm)])
            _, jf = proc.linearize(x)
            jf_fd = central_difference(proc.step, x, eps=1e-6)
            worst_f = max(worst_f,
                          np.max(np.abs(jf - jf_fd)) / np.max(np.abs(jf_fd)))
            _, jh = meas.linearize(x)
            jh_fd = central_difference(meas.observe, x, eps=1e-6)
            worst_h = max(worst_h,
                          np.max(np.abs(jh - jh_fd)) / np.max(np.abs(jh_fd)))
        ok &= worst_f < 1e-6 and worst_h < 1e-5
        parts.append(f"{name} process rel {worst_f:.1e} "
                     f"measurement rel {worst_h:.1e}")
    verdict(4, "analytic jacobians vs finite differences", ok, "; ".join(parts))


def test_criterion_5_linear_gaussian_equivalence(verdict):
    rng = np.random.default_rng(2024)
    n, m = 4, 3
    a = rng.normal(size=(n, n))
    a *= 0.95 / np.max(np.abs(np.linalg.eigvals(a)))
    c = rng.normal(size=(m, n))

    def psd(k, scale):
        w = rng.normal(size=(k, k))
        return scale * (w @ w.T) / k + 0.01 * scale * np.eye(k)

    q, r = psd(n, 0.05), psd(m, 0.1)
    x0, p0 = rng.normal(size=n), psd(n, 1.0)
    lq, lr = np.linalg.cholesky(q), np.linalg.cholesky(r)
    x, zs = x0.copy(), []
    for _ in range(100):
        x = a @ x + lq @ rng.normal(size=n)
        zs.append(c @ x + lr @ rng.normal(size=m))

    ref_means, ref_covs = linear_kalman(a, c, q, r, x0, p0, zs)
    # x @ a.T maps one state and a (k, n) stack of sigma points alike
    proc = ProcessModel(step=lambda v: v @ a.T,
                        linearize=lambda v: (v @ a.T, a))
    meas = MeasurementModel(observe=lambda v: v @ c.T,
                            linearize=lambda v: (v @ c.T, c))
    ekf_b, ukf_b = init_belief(x0, p0), init_belief(x0, p0)
    worst = 0.0
    for k, z in enumerate(zs):
        ekf_b = ekf_update(ekf_predict(ekf_b, proc, q), z, meas,
                           np.linalg.inv(r))
        ukf_b = ukf_update(ukf_predict(ukf_b, proc, q), z, meas, r)
        for b in (ekf_b, ukf_b):
            worst = max(worst,
                        np.max(np.abs(b.x_hat - ref_means[k])),
                        np.max(np.abs(b.p - ref_covs[k])))

    worst_ut = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 6))
        p = psd(d, 1.0)
        center = rng.normal(size=d)
        lin = rng.normal(size=(int(rng.integers(1, 6)), d))
        pts = sigma_points(init_belief(center, p)) @ lin.T
        mean = pts.mean(axis=0)
        dev = pts - mean
        cov = dev.T @ dev / pts.shape[0]
        worst_ut = max(worst_ut,
                       np.max(np.abs(mean - lin @ center)),
                       np.max(np.abs(cov - lin @ p @ lin.T)))

    ok = worst < 1e-8 and worst_ut < 1e-10
    verdict(5, "linear-gaussian filter equivalence", ok,
            f"filter vs direct kalman {worst:.1e}; "
            f"unscented transform on linear maps {worst_ut:.1e}")


def _tracking_detail(report):
    parts = []
    for kind, m in report.metrics.items():
        parts.append(f"{kind} angle {np.max(m.post_rmse_delta):.4f} rad "
                     f"speed {np.max(m.post_rmse_omega):.1e} pu")
    parts.append(f"{report.wall_seconds:.2f}s")
    return "; ".join(parts)


def test_criterion_6_wecc9_tracking(verdict, wecc9_run):
    report = wecc9_run.report
    ok = report.wall_seconds < 1.0
    for kind in ("ekf", "ukf"):
        m = report.metrics[kind]
        ok &= bool(np.all(m.post_rmse_delta < 0.02)
                   and np.all(m.post_rmse_omega < 1e-3))
    verdict(6, "wecc9 fault tracking", ok, _tracking_detail(report))


def test_criterion_7_ne39_tracking(verdict, ne39_run):
    report = ne39_run.report
    ok = report.wall_seconds < 10.0
    for kind in ("ekf", "ukf"):
        m = report.metrics[kind]
        ok &= bool(m.post_rmse_delta.size == 10
                   and np.all(m.post_rmse_delta < 0.02)
                   and np.all(m.post_rmse_omega < 1e-3))
    verdict(7, "ne39 fault tracking", ok, _tracking_detail(report))


def test_criterion_8_filter_beats_static_inversion(verdict, wecc9_run,
                                                   ne39_run):
    parts, ok = [], True
    for run in (wecc9_run, ne39_run):
        t_clear = run.cfg.scenario.t_clear(run.case.frequency)
        model = swing_measurement_model(run.params, run.nets.post)
        nm = run.params.n_machines
        weights = 1.0 / np.sqrt(
            filter_variances(run.cfg.noise, nm, len(run.case.buses))[1])
        start = run.init.delta0.copy()
        errors = []
        for k, frame in enumerate(run.frames):
            if frame.t < t_clear:
                continue
            start = static_angle_inversion(frame.z_vector(), model.observe,
                                           nm, start, weights)
            errors.append(start - run.truth.states[k].delta)
        nls_rmse = np.sqrt(np.mean(np.asarray(errors) ** 2, axis=0))
        for kind in ("ekf", "ukf"):
            m = run.report.metrics[kind]
            ok &= bool(np.all(m.post_rmse_delta < nls_rmse))
            parts.append(f"{run.case.name} {kind} worst ratio "
                         f"{np.max(m.post_rmse_delta / nls_rmse):.2f}")
    verdict(8, "filters beat per-frame static inversion", ok, "; ".join(parts))


def test_criterion_9_determinism(verdict, wecc9_run, tmp_path):
    rerun = run_experiment(replace(wecc9_run.cfg, out_dir=str(tmp_path)))
    names = ["truth.csv", "measurements.csv", "estimate_ekf.csv",
             "estimate_ukf.csv", "report.txt"]
    same = {name: (wecc9_run.report.out_dir / name).read_bytes()
            == (rerun.out_dir / name).read_bytes() for name in names}
    verdict(9, "byte-identical seeded reruns", all(same.values()),
            f"{sum(same.values())}/{len(names)} files identical")
