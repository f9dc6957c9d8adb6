"""Output checks for benchmark jobs, computed apart from the program.

The reference model here is coded from the case data alone: its own Y-bus,
load admittances, machine internal nodes and Kron reduction, its own machine
initialisation, and scipy's DOP853 for the swing equations.  Only plain data
types (the case, the power-flow voltages, the outputs under test) come from
``powerdse``; no computational code is shared.

Every check returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

# Stated tolerances.  Each is far below what a physics or bookkeeping error
# produces, and far above what rounding or a change of integrator settings
# inside the program's documented accuracy produces.
PF_MISMATCH_TOL = 1e-6       # pu, power balance on the benchmark's own Y-bus
NETWORK_TOL = 1e-9           # pu, reduced admittance and voltage map entries
TRUTH_ANGLE_TOL = 1e-4       # rad, truth against the DOP853 reference
PRE_FAULT_TOL = 1e-9         # rad and pu, pre-fault drift from equilibrium
SPEED_BAND = 0.05            # pu, stable band of the speed deviation
NOISE_STD_REL_TOL = 0.15     # sample std of the noise within 15% of sigma
NOISE_MEAN_SE = 6.0          # noise mean within 6 standard errors of zero
RMSE_ANGLE_LIMIT = 0.02      # rad, post-clearing estimate RMSE per machine
RMSE_SPEED_LIMIT = 1e-3      # pu, same for speeds


# --- reference model -----------------------------------------------------


def own_ybus(case, branches=None) -> np.ndarray:
    """Bus admittance by direct stamping of the branch data."""
    order = {bus.id: k for k, bus in enumerate(case.buses)}
    n = len(case.buses)
    y = np.zeros((n, n), dtype=complex)
    for br in case.branches if branches is None else branches:
        ys = 1.0 / complex(br.r, br.x)
        half = 0.5j * br.b_shunt
        f, t = order[br.from_bus], order[br.to_bus]
        y[f, f] += (ys + half) / br.tap ** 2
        y[t, t] += ys + half
        y[f, t] -= ys / br.tap
        y[t, f] -= ys / br.tap
    for k, bus in enumerate(case.buses):
        y[k, k] += bus.shunt
    return y


class ReferenceGrid:
    """The swing model of one case at one power-flow operating point."""

    def __init__(self, case, v_mag, v_ang):
        self.case = case
        self.order = {bus.id: k for k, bus in enumerate(case.buses)}
        self.v = np.asarray(v_mag) * np.exp(1j * np.asarray(v_ang))
        self.ybus = own_ybus(case)
        self.s_bus = self.v * np.conj(self.ybus @ self.v)
        self.s_load = np.array([complex(b.p_load, b.q_load) for b in case.buses])
        self.h = np.array([m.h for m in case.machines])
        self.d = np.array([m.d for m in case.machines])
        self.omega0 = 2.0 * math.pi * case.frequency
        emf = []
        for m in case.machines:
            k = self.order[m.bus]
            s_gen = self.s_bus[k] + self.s_load[k]
            emf.append(self.v[k] + 1j * m.xd_prime * np.conj(s_gen / self.v[k]))
        emf = np.array(emf)
        self.e_mag = np.abs(emf)
        self.delta0 = np.angle(emf)
        self._nets: dict = {}
        y_pre, _ = self.network("pre", None)
        self.p_mech = (emf * np.conj(y_pre @ emf)).real

    def network(self, regime: str, scenario) -> tuple[np.ndarray, np.ndarray]:
        """(reduced admittance, bus-voltage map) of one topology.

        ``regime`` is "pre", "fault" (faulted bus grounded) or "post" (the
        cleared line open).  Loads stay at their power-flow admittances.
        """
        key = (regime, None if scenario is None or regime == "pre" else
               (scenario.fault_bus, tuple(scenario.cleared_line)))
        if key in self._nets:
            return self._nets[key]
        case = self.case
        branches = case.branches
        if regime == "post":
            ends = set(scenario.cleared_line)
            drop = next(i for i, br in enumerate(branches)
                        if {br.from_bus, br.to_bus} == ends)
            branches = branches[:drop] + branches[drop + 1:]
        nb, nm = len(case.buses), len(case.machines)
        y11 = own_ybus(case, branches)
        y11[np.diag_indices(nb)] += np.conj(self.s_load) / np.abs(self.v) ** 2
        y12 = np.zeros((nb, nm), dtype=complex)
        y22 = np.zeros((nm, nm), dtype=complex)
        for j, m in enumerate(case.machines):
            ym = 1.0 / complex(0.0, m.xd_prime)
            k = self.order[m.bus]
            y11[k, k] += ym
            y12[k, j] = -ym
            y22[j, j] = ym
        keep = np.arange(nb)
        if regime == "fault":
            keep = keep[keep != self.order[scenario.fault_bus]]
        solved = np.linalg.solve(y11[np.ix_(keep, keep)], y12[keep])
        y_red = y22 - y12[keep].T @ solved
        self._nets[key] = (y_red, -solved)
        return self._nets[key]

    def rhs(self, y_red: np.ndarray):
        n = self.h.size

        def f(_t, x):
            emf = self.e_mag * np.exp(1j * x[:n])
            p_e = (emf * np.conj(y_red @ emf)).real
            dev = x[n:] - 1.0
            return np.concatenate([self.omega0 * dev,
                                   (self.p_mech - p_e - self.d * dev) / (2.0 * self.h)])
        return f

    def trajectory(self, scenario, times: np.ndarray) -> np.ndarray:
        """DOP853 solution at ``times`` as rows (angles, speeds)."""
        from scipy.integrate import solve_ivp

        t_clear = scenario.t_fault + scenario.clearing_cycles / self.case.frequency
        x = np.concatenate([self.delta0, np.ones_like(self.delta0)])
        out = np.empty((times.size, x.size))
        cuts = [times[0], scenario.t_fault, t_clear, times[-1]]
        for regime, a, b in zip(("pre", "fault", "post"), cuts[:-1], cuts[1:]):
            y_red, _ = self.network(regime, scenario)
            rows = np.flatnonzero((times >= a) & (times <= b))
            sol = solve_ivp(self.rhs(y_red), (a, b), x, method="DOP853",
                            t_eval=times[rows], rtol=1e-12, atol=1e-12,
                            dense_output=True)
            if not sol.success:
                raise RuntimeError(f"reference integration failed: {sol.message}")
            out[rows] = sol.y.T
            x = sol.sol(b)
        return out

    def outputs(self, regime: str, scenario, delta: np.ndarray):
        """Noise-free P, Q, |V| and voltage angle for angle rows (k, n)."""
        y_red, r_v = self.network(regime, scenario)
        emf = self.e_mag * np.exp(1j * delta)
        s = emf * np.conj(emf @ y_red.T)
        v = emf @ r_v.T
        return s.real, s.imag, np.abs(v), np.angle(v)

    def bus_ids(self, regime: str, scenario) -> tuple[int, ...]:
        ids = tuple(b.id for b in self.case.buses)
        if regime == "fault":
            ids = tuple(b for b in ids if b != scenario.fault_bus)
        return ids


def regimes_at(scenario, frequency: float, times: np.ndarray) -> np.ndarray:
    t_clear = scenario.t_fault + scenario.clearing_cycles / frequency
    return np.where(times < scenario.t_fault, "pre",
                    np.where(times < t_clear, "fault", "post"))


def post_rmse(reference: np.ndarray, delta: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-machine angle RMSE over the masked samples."""
    return np.sqrt(np.mean((delta[mask] - reference[mask]) ** 2, axis=0))


# --- checks ----------------------------------------------------------------


def check_power_flow(grid: ReferenceGrid) -> list[str]:
    """Scheduled minus computed power on the benchmark's own Y-bus."""
    case = grid.case
    p = -np.array([b.p_load for b in case.buses])
    q = -np.array([b.q_load for b in case.buses])
    for m in case.machines:
        k = grid.order[m.bus]
        p[k] += m.p_gen or 0.0
        q[k] += m.q_gen or 0.0
    kinds = [b.kind.value for b in case.buses]
    dp = [abs(p[k] - grid.s_bus[k].real) for k in range(len(kinds)) if kinds[k] != "slack"]
    dq = [abs(q[k] - grid.s_bus[k].imag) for k in range(len(kinds)) if kinds[k] == "pq"]
    worst = max(dp + dq)
    if not worst < PF_MISMATCH_TOL:
        return [f"power flow: mismatch {worst:.3e} pu on the benchmark's Y-bus "
                f"(tolerance {PF_MISMATCH_TOL:g})"]
    return []


def check_networks(grid: ReferenceGrid, scenario, nets) -> list[str]:
    """The program's three reduced networks against the reference's."""
    problems = []
    for regime in ("pre", "fault", "post"):
        net = getattr(nets, regime)
        y_red, r_v = grid.network(regime, scenario)
        err = max(np.max(np.abs(net.y_red - y_red)), np.max(np.abs(net.r_v - r_v)))
        if not err < NETWORK_TOL:
            problems.append(f"reduction: {regime} network differs by {err:.3e}")
    return problems


def check_truth(truth, reference: np.ndarray, scenario, frequency: float) -> list[str]:
    """Angles against DOP853, stationary pre-fault, speeds in the band."""
    n = reference.shape[1] // 2
    delta, omega = truth.delta_matrix(), truth.omega_matrix()
    problems = []
    if delta.shape != (reference.shape[0], n):
        return [f"truth: shape {delta.shape}, expected {(reference.shape[0], n)}"]
    err = np.max(np.abs(delta - reference[:, :n]))
    if not err <= TRUTH_ANGLE_TOL:
        problems.append(f"truth: angles differ from DOP853 by {err:.3e} rad "
                        f"(tolerance {TRUTH_ANGLE_TOL:g})")
    pre = truth.times < scenario.t_fault
    drift = max(np.max(np.abs(delta[pre] - delta[0])),
                np.max(np.abs(omega[pre] - 1.0)))
    if not drift <= PRE_FAULT_TOL:
        problems.append(f"truth: pre-fault samples drift by {drift:.3e}")
    swing = np.max(np.abs(omega - 1.0))
    if not swing < SPEED_BAND:
        problems.append(f"truth: speed deviation {swing:.3e} pu leaves the "
                        f"stable band {SPEED_BAND:g}")
    expected = regimes_at(scenario, frequency, truth.times)
    labels = np.array([{"pre_fault": "pre", "fault_on": "fault"}.get(r.value, "post")
                       for r in truth.regime])
    if not np.array_equal(labels, expected):
        problems.append("truth: regime labels do not follow the fault timing")
    return problems


def check_measurements(frames, truth, grid: ReferenceGrid, scenario,
                       noise) -> list[str]:
    """Noise statistics against a recomputation from the truth."""
    times = np.array([fr.t for fr in frames])
    if not np.array_equal(times, truth.times):
        return ["measurements: frame times differ from the truth's"]
    regimes = regimes_at(scenario, grid.case.frequency, times)
    delta = truth.delta_matrix()
    nm = delta.shape[1]
    all_ids = grid.bus_ids("pre", scenario)
    # Difference per channel: P_i, Q_i, |V|_b, angle_b; NaN where absent.
    diff = np.full((len(frames), 2 * nm + 2 * len(all_ids)), np.nan)
    problems = []
    for regime in ("pre", "fault", "post"):
        rows = np.flatnonzero(regimes == regime)
        ids = grid.bus_ids(regime, scenario)
        bad = [k for k in rows if tuple(frames[k].bus_ids) != ids]
        if bad:
            problems.append(f"measurements: frame {bad[0]} ({regime}) has layout "
                            f"{frames[bad[0]].bus_ids}, expected {ids}")
            continue
        if rows.size == 0:
            continue
        p, q, vm, va = grid.outputs(regime, scenario, delta[rows])
        cols = [all_ids.index(b) for b in ids]
        block = np.array([fr.z_vector() for fr in (frames[k] for k in rows)])
        nb = len(ids)
        diff[np.ix_(rows, np.arange(nm))] = block[:, :nm] - p
        diff[np.ix_(rows, nm + np.arange(nm))] = block[:, nm:2 * nm] - q
        diff[np.ix_(rows, 2 * nm + np.array(cols))] = block[:, 2 * nm:2 * nm + nb] - vm
        wrapped = np.angle(np.exp(1j * (block[:, 2 * nm + nb:] - va)))
        diff[np.ix_(rows, 2 * nm + len(all_ids) + np.array(cols))] = wrapped
    if problems:
        return problems
    names = ([f"p_g_{i + 1}" for i in range(nm)] + [f"q_g_{i + 1}" for i in range(nm)]
             + [f"v_mag_{b}" for b in all_ids] + [f"v_ang_{b}" for b in all_ids])
    sigma = np.repeat([noise.sigma_p, noise.sigma_q, noise.sigma_vmag,
                       noise.sigma_vang], [nm, nm, len(all_ids), len(all_ids)])
    for j, name in enumerate(names):
        col = diff[:, j][~np.isnan(diff[:, j])]
        std = np.std(col, ddof=1)
        mean = np.mean(col)
        if not abs(std / sigma[j] - 1.0) <= NOISE_STD_REL_TOL:
            problems.append(f"measurements: {name} noise std {std:.4e}, "
                            f"configured sigma {sigma[j]:g}")
        if not abs(mean) <= NOISE_MEAN_SE * sigma[j] / math.sqrt(col.size):
            problems.append(f"measurements: {name} noise mean {mean:.4e}, "
                            f"sigma {sigma[j]:g} over {col.size} frames")
    return problems


def check_estimates(truth, estimate, beliefs, t_clear: float) -> list[str]:
    """Finite estimates, positive variances, post-clearing RMSE in limits."""
    problems = []
    x = np.array([b.x_hat for b in beliefs])
    diag = np.array([np.diag(b.p) for b in beliefs])
    est = np.column_stack([estimate.delta_matrix(), estimate.omega_matrix()])
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(est))
            and np.all(np.isfinite(diag))):
        first = int(np.flatnonzero(~np.all(np.isfinite(np.column_stack(
            [x, est, diag])), axis=1))[0])
        return [f"estimates: non-finite value from frame {first} on"]
    if not np.all(diag > 0.0):
        problems.append(f"estimates: covariance diagonal {diag.min():.3e} is not positive")
    mask = truth.times >= t_clear
    angle = post_rmse(truth.delta_matrix(), estimate.delta_matrix(), mask)
    speed = post_rmse(truth.omega_matrix(), estimate.omega_matrix(), mask)
    if not np.all(angle < RMSE_ANGLE_LIMIT):
        problems.append(f"estimates: post-clearing angle RMSE {angle.max():.3e} rad")
    if not np.all(speed < RMSE_SPEED_LIMIT):
        problems.append(f"estimates: post-clearing speed RMSE {speed.max():.3e} pu")
    return problems


def _read_csv(path: Path, text_columns: int = 0) -> tuple[list[str], np.ndarray, list]:
    """Header, float cells (NaN where empty) and the trailing text columns,
    parsed row by row so the read-back stays small next to the job."""
    numbers, text = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cut = len(header) - text_columns
        for row in reader:
            numbers.append([float(c) if c else math.nan for c in row[:cut]])
            text.append(row[cut:])
    return header, np.array(numbers), text


def check_artifacts(out_dir: Path, truth, frames, estimates: dict) -> list[str]:
    """The CSVs read back equal the in-memory arrays exactly.

    ``estimates`` maps filter kind to (estimate trajectory, beliefs).
    """
    problems = []
    nm = truth.delta_matrix().shape[1]
    try:
        header, table, regimes = _read_csv(out_dir / "truth.csv", text_columns=1)
        expected = np.column_stack([truth.times, truth.delta_matrix(),
                                    truth.omega_matrix()])
        if (len(header) != 2 * nm + 2 or not np.array_equal(table, expected)
                or regimes != [[g.value] for g in truth.regime]):
            problems.append("artifacts: truth.csv differs from the truth in memory")

        header, table, _ = _read_csv(out_dir / "measurements.csv")
        bus_ids = [int(h.removeprefix("v_mag_")) for h in header if h.startswith("v_mag_")]
        expected = np.full((len(frames), 1 + 2 * nm + 2 * len(bus_ids)), np.nan)
        for k, fr in enumerate(frames):
            expected[k, :1 + 2 * nm] = np.concatenate([[fr.t], fr.p_g, fr.q_g])
            cols = np.array([bus_ids.index(b) for b in fr.bus_ids], dtype=int)
            expected[k, 1 + 2 * nm + cols] = fr.v_mag
            expected[k, 1 + 2 * nm + len(bus_ids) + cols] = fr.v_ang
        if not np.array_equal(table, expected, equal_nan=True):
            problems.append("artifacts: measurements.csv differs from the frames in memory")

        for kind, (estimate, beliefs) in estimates.items():
            _, table, _ = _read_csv(out_dir / f"estimate_{kind}.csv")
            expected = np.column_stack([
                estimate.times, truth.delta_matrix(), estimate.delta_matrix(),
                truth.omega_matrix(), estimate.omega_matrix(),
                [np.diag(b.p) for b in beliefs]])
            if not np.array_equal(table, expected):
                problems.append(f"artifacts: estimate_{kind}.csv differs from the "
                                "estimate in memory")
    except (OSError, ValueError, IndexError, StopIteration) as exc:
        problems.append(f"artifacts: unreadable ({type(exc).__name__}: {exc})")
    return problems


def digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file an experiment wrote."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def check_identical(first: dict[str, str], second: dict[str, str]) -> list[str]:
    """One seed run twice must write identical bytes."""
    if first.keys() != second.keys():
        return [f"artifacts: file sets differ: {sorted(first)} vs {sorted(second)}"]
    return [f"artifacts: {name} differs between two runs of one seed"
            for name in first if first[name] != second[name]]
