"""Regenerate the ne39 screening contingency list, ``contingencies.json``.

    python3 bench/contingencies.py

Each ne39 line is a candidate: a solid fault at the line's from bus, cleared
after CLEARING_CYCLES cycles by opening the line, in a WINDOW-second window.
A candidate is kept when clearing the line islands no machine and the
simulated speeds stay inside the checks' stable band.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from powerdse import (  # noqa: E402
    FaultScenario,
    InstabilityError,
    ScenarioError,
    load_case,
    scenario_networks,
    simulate,
    solve_power_flow,
)

CASE = "ne39"
T_FAULT = 1.0
CLEARING_CYCLES = 5.0
WINDOW = 5.0
DT = 0.01


def scenario(fault_bus: int, line: tuple[int, int]) -> FaultScenario:
    return FaultScenario(fault_bus=fault_bus, t_fault=T_FAULT,
                         clearing_cycles=CLEARING_CYCLES, cleared_line=line,
                         t_end=WINDOW, dt=DT)


def main() -> None:
    case = load_case(CASE)
    pf = solve_power_flow(case)
    kept, dropped = [], []
    for br in case.branches:
        line = (br.from_bus, br.to_bus)
        scen = scenario(br.from_bus, line)
        try:
            scenario_networks(case, pf, scen)
            truth = simulate(case, pf, scen)
        except (ScenarioError, InstabilityError) as exc:
            dropped.append(f"{line}: {type(exc).__name__}")
            continue
        swing = float(np.max(np.abs(truth.omega_matrix() - 1.0)))
        if swing >= checks.SPEED_BAND:
            dropped.append(f"{line}: speed deviation {swing:.3f} pu")
            continue
        kept.append([br.from_bus, *line])
    settings = {"case": CASE, "t_fault": T_FAULT,
                "clearing_cycles": CLEARING_CYCLES, "t_end": WINDOW, "dt": DT}
    # One contingency, [fault bus, line from, line to], per line.
    rows = ",\n  ".join(json.dumps(c) for c in kept)
    text = json.dumps(settings)[:-1] + f', "contingencies": [\n  {rows}\n]}}\n'
    (HERE / "contingencies.json").write_text(text)
    print(f"kept {len(kept)} of {len(case.branches)} lines")
    for reason in dropped:
        print(f"dropped {reason}")


if __name__ == "__main__":
    main()
