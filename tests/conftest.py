import dataclasses
from dataclasses import replace

import numpy as np
import pytest

from powerdse import (
    extend_network,
    kron_reduce,
    load_case,
    machine_init,
    preset,
    run_experiment,
    scenario_networks,
    simulate,
    solve_power_flow,
    synthesize,
)


@pytest.fixture(scope="session")
def wecc9():
    return load_case("wecc9")


@pytest.fixture(scope="session")
def ne39():
    return load_case("ne39")


@pytest.fixture(scope="session")
def wecc9_pf(wecc9):
    return solve_power_flow(wecc9)


@pytest.fixture(scope="session")
def ne39_pf(ne39):
    return solve_power_flow(ne39)


@pytest.fixture(scope="session")
def wecc9_net(wecc9, wecc9_pf):
    return kron_reduce(extend_network(wecc9, wecc9_pf))


@pytest.fixture(scope="session")
def ne39_net(ne39, ne39_pf):
    return kron_reduce(extend_network(ne39, ne39_pf))


@pytest.fixture(scope="session")
def wecc9_params(wecc9, wecc9_pf, wecc9_net):
    return machine_init(wecc9, wecc9_pf, wecc9_net)


@pytest.fixture(scope="session")
def ne39_params(ne39, ne39_pf, ne39_net):
    return machine_init(ne39, ne39_pf, ne39_net)


# ``*_params`` under the name the equilibrium tests read delta0 from
@pytest.fixture(scope="session")
def wecc9_init(wecc9_params):
    return wecc9_params


@pytest.fixture(scope="session")
def ne39_init(ne39_params):
    return ne39_params


@dataclasses.dataclass(frozen=True)
class PresetRun:
    """One preset experiment plus the intermediate pipeline products the
    tests poke at (shared session-wide; everything here is immutable)."""

    cfg: object
    case: object
    pf: object
    nets: object
    params: object
    truth: object
    frames: list
    report: object

    @property
    def init(self):
        """``params``, under the name the equilibrium tests read."""
        return self.params


def _run_preset(name, out_dir):
    cfg = replace(preset(name), out_dir=str(out_dir))
    report = run_experiment(cfg)
    case = load_case(cfg.case)
    pf = solve_power_flow(case)
    nets = scenario_networks(case, pf, cfg.scenario)
    truth = simulate(case, pf, cfg.scenario)
    frames = synthesize(truth, nets, cfg.noise, cfg.seed)
    return PresetRun(cfg=cfg, case=case, pf=pf, nets=nets, params=nets.params,
                     truth=truth, frames=frames, report=report)


@pytest.fixture(scope="session")
def wecc9_run(tmp_path_factory):
    return _run_preset("wecc9-fault8", tmp_path_factory.mktemp("wecc9_run"))


@pytest.fixture(scope="session")
def ne39_run(tmp_path_factory):
    return _run_preset("ne39-fault4", tmp_path_factory.mktemp("ne39_run"))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
