"""DOP853 reference trajectories, computed in a child process.

    python3 bench/reference.py < request.json > references.npz

The request names a case, the power-flow bus voltages, the sample times and
a list of scenarios ``[fault_bus, t_fault, clearing_cycles, from, to]``; the
reply holds one (samples, 2 * machines) array per scenario, keyed by its
position.  Importing scipy adds about 50 MB of resident memory, so the
benchmark integrates in this child and its own peak RSS measures the
program, not the checker.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from powerdse import FaultScenario, load_case  # noqa: E402


def main() -> None:
    request = json.load(sys.stdin)
    case = load_case(request["case"])
    grid = checks.ReferenceGrid(case, request["v_mag"], request["v_ang"])
    times = np.array(request["times"])
    out = {}
    for k, (bus, t_fault, cycles, a, b) in enumerate(request["scenarios"]):
        scenario = FaultScenario(fault_bus=bus, t_fault=t_fault,
                                 clearing_cycles=cycles, cleared_line=(a, b),
                                 t_end=float(times[-1]), dt=float(times[1] - times[0]))
        out[str(k)] = grid.trajectory(scenario, times)
    buffer = io.BytesIO()
    np.savez(buffer, **out)
    sys.stdout.buffer.write(buffer.getvalue())


if __name__ == "__main__":
    main()
