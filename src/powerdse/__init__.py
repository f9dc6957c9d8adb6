"""Multi-machine power-system transients and rotor-state estimation.

The pipeline: load a network case, solve its power flow, reduce the network
to machine internal nodes, simulate a fault scenario, synthesize noisy
measurements, and recover the rotor states with an extended or unscented
Kalman filter.
"""

from .cases import (
    Branch,
    Bus,
    BusKind,
    CaseError,
    Machine,
    NetworkCase,
    bundled_case_path,
    dump_case,
    load_case,
    parse_case,
    total_load,
    validate_case,
    without_branch,
)
from .powerflow import (
    PowerFlowError,
    PowerFlowSolution,
    build_ybus,
    complex_injections,
    mismatch,
    mismatch_jacobian,
    solve_power_flow,
)
from .reduction import (
    ExtendedAdmittance,
    MachineParams,
    ReducedNetwork,
    ReductionError,
    electrical_power,
    extend_network,
    kron_reduce,
    machine_init,
)
from .dynamics import (
    DynamicState,
    FaultScenario,
    InstabilityError,
    Regime,
    ScenarioError,
    ScenarioNetworks,
    Trajectory,
    scenario_networks,
    simulate,
    validate_scenario,
)
from .measurement import (
    MeasurementFrame,
    NoiseSpec,
    machine_outputs,
    measurement_indices,
    measurement_variances,
    process_variances,
    synthesize,
)
from .filters import (
    FilterConfig,
    FilterNumericsError,
    GaussianBelief,
    MeasurementModel,
    ProcessModel,
    ekf_predict,
    ekf_update,
    init_belief,
    run_filter,
    sigma_points,
    swing_measurement_model,
    swing_process_model,
    ukf_predict,
    ukf_update,
)
from .harness import (
    PRESETS,
    ExperimentConfig,
    ExperimentError,
    ExperimentReport,
    FilterMetrics,
    config_from_dict,
    default_prior,
    format_report,
    load_experiment_config,
    preset,
    run_experiment,
    write_estimates_csv,
    write_measurements_csv,
    write_trajectory_csv,
)

__version__ = "0.1.0"
