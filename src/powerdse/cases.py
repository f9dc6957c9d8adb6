"""Network case model: buses, branches, machines, and the text case format.

A case file is a small sectioned text format, all quantities in per unit on
``base_mva`` (inertia in seconds, frequency in Hz)::

    name wecc9
    base_mva 100.0
    frequency 60.0

    [buses]
    # id  kind(slack|pv|pq)  p_load  q_load  v_set("-" if none)  [shunt_g shunt_b]
    1  slack  0.0  0.0  1.04

    [branches]
    # from  to  r  x  b_total  tap
    1  4  0.0  0.0576  0.0  1.0

    [machines]
    # bus  h  d  xd_prime  p_gen("-" if unscheduled/slack)  [q_gen]
    1  23.64  0.0255  0.0608  -

``#`` starts a comment, blank lines are ignored, columns are whitespace
separated, bracketed columns are optional.  Machine order in the file fixes
the machine indexing used by the simulator and the estimators.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from enum import Enum
from importlib import resources
from pathlib import Path


class CaseError(ValueError):
    """Raised for unparseable or physically invalid case data."""


class BusKind(Enum):
    SLACK = "slack"
    PV = "pv"
    PQ = "pq"


@dataclass(frozen=True)
class Bus:
    id: int
    kind: BusKind
    p_load: float = 0.0
    q_load: float = 0.0
    v_setpoint: float | None = None
    shunt: complex = 0j


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    r: float
    x: float
    b_shunt: float = 0.0
    tap: float = 1.0


@dataclass(frozen=True)
class Machine:
    bus: int
    h: float
    d: float
    xd_prime: float
    p_gen: float | None = None
    q_gen: float | None = None


@dataclass(frozen=True)
class NetworkCase:
    name: str
    base_mva: float
    frequency: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    machines: tuple[Machine, ...]

    def bus_index(self) -> dict[int, int]:
        """Map bus id to its position in ``buses``."""
        return {bus.id: pos for pos, bus in enumerate(self.buses)}

    def machine_buses(self) -> tuple[int, ...]:
        return tuple(m.bus for m in self.machines)

    def has_branch(self, from_bus: int, to_bus: int) -> bool:
        ends = {from_bus, to_bus}
        return any({br.from_bus, br.to_bus} == ends for br in self.branches)


def _not_finite(row) -> list[str]:
    """A problem line for each numeric field of the dataclass ``row`` whose
    value is not finite."""
    return [f"{f.name} is not finite" for f in fields(row)
            if isinstance(v := getattr(row, f.name), (int, float, complex))
            and not cmath.isfinite(v)]


def validate_case(case: NetworkCase) -> None:
    """Check structural invariants, raising CaseError listing every violation.
    Every number the case gives must be finite."""
    problems = _not_finite(case)

    ids = [b.id for b in case.buses]
    if len(ids) != len(set(ids)):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        problems.append(f"duplicate bus ids: {dupes}")
    slack = [b.id for b in case.buses if b.kind is BusKind.SLACK]
    if len(slack) != 1:
        problems.append(f"need exactly one slack bus, found {slack}")
    for b in case.buses:
        problems += [f"bus {b.id}: {bad}" for bad in _not_finite(b)]
        if b.v_setpoint is None and b.kind is not BusKind.PQ:
            problems.append(f"bus {b.id}: {b.kind.value} bus needs a voltage setpoint")
        if b.v_setpoint is not None and not b.v_setpoint > 0:
            problems.append(f"bus {b.id}: voltage setpoint must be positive")

    known = set(ids)
    for br in case.branches:
        tag = f"branch {br.from_bus}-{br.to_bus}"
        problems += [f"{tag}: {bad}" for bad in _not_finite(br)]
        if br.from_bus == br.to_bus:
            problems.append(f"{tag}: self loop")
        for end in (br.from_bus, br.to_bus):
            if end not in known:
                problems.append(f"{tag}: unknown bus {end}")
        if br.r == 0.0 and br.x == 0.0:
            problems.append(f"{tag}: zero impedance")
        if not br.tap > 0:
            problems.append(f"{tag}: tap must be positive")

    if not case.machines:
        problems.append("case has no machines")
    seen_mbus: set[int] = set()
    for pos, m in enumerate(case.machines, start=1):
        tag = f"machine {pos} (bus {m.bus})"
        problems += [f"{tag}: {bad}" for bad in _not_finite(m)]
        if m.bus not in known:
            problems.append(f"{tag}: unknown terminal bus")
        if m.bus in seen_mbus:
            problems.append(f"{tag}: second machine on the same bus")
        seen_mbus.add(m.bus)
        if not m.h > 0:
            problems.append(f"{tag}: inertia must be positive")
        if m.d < 0:
            problems.append(f"{tag}: damping must be non-negative")
        if not m.xd_prime > 0:
            problems.append(f"{tag}: transient reactance must be positive")

    if not case.base_mva > 0:
        problems.append("base_mva must be positive")
    if not case.frequency > 0:
        problems.append("frequency must be positive")

    if problems:
        raise CaseError(f"invalid case {case.name!r}:\n  " + "\n  ".join(problems))


def _parse_optional(token: str) -> float | None:
    return None if token == "-" else float(token)


def parse_case(text: str, source: str = "<string>") -> NetworkCase:
    """Parse case text.  Raises CaseError with the offending line on failure."""
    header: dict[str, str] = {}
    buses: list[Bus] = []
    branches: list[Branch] = []
    machines: list[Machine] = []
    section: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{source}:{lineno}"
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("buses", "branches", "machines"):
                raise CaseError(f"{where}: unknown section [{section}]")
            continue
        cols = line.split()
        try:
            if section is None:
                if len(cols) != 2:
                    raise CaseError(f"{where}: expected 'key value' before the first section")
                header[cols[0].lower()] = cols[1]
            elif section == "buses":
                if len(cols) not in (5, 7):
                    raise CaseError(f"{where}: bus row needs 5 or 7 columns, got {len(cols)}")
                shunt = complex(float(cols[5]), float(cols[6])) if len(cols) == 7 else 0j
                buses.append(Bus(
                    id=int(cols[0]),
                    kind=BusKind(cols[1].lower()),
                    p_load=float(cols[2]),
                    q_load=float(cols[3]),
                    v_setpoint=_parse_optional(cols[4]),
                    shunt=shunt,
                ))
            elif section == "branches":
                if len(cols) != 6:
                    raise CaseError(f"{where}: branch row needs 6 columns, got {len(cols)}")
                branches.append(Branch(
                    from_bus=int(cols[0]),
                    to_bus=int(cols[1]),
                    r=float(cols[2]),
                    x=float(cols[3]),
                    b_shunt=float(cols[4]),
                    tap=float(cols[5]),
                ))
            else:
                if len(cols) not in (5, 6):
                    raise CaseError(f"{where}: machine row needs 5 or 6 columns, got {len(cols)}")
                machines.append(Machine(
                    bus=int(cols[0]),
                    h=float(cols[1]),
                    d=float(cols[2]),
                    xd_prime=float(cols[3]),
                    p_gen=_parse_optional(cols[4]),
                    q_gen=_parse_optional(cols[5]) if len(cols) == 6 else None,
                ))
        except CaseError:
            raise
        except ValueError as exc:
            raise CaseError(f"{where}: {exc}") from exc

    try:
        base_mva = float(header.get("base_mva", "100.0"))
        frequency = float(header.get("frequency", "60.0"))
    except ValueError as exc:
        raise CaseError(f"{source}: bad header value: {exc}") from exc

    case = NetworkCase(
        name=header.get("name", Path(source).stem if source != "<string>" else "unnamed"),
        base_mva=base_mva,
        frequency=frequency,
        buses=tuple(buses),
        branches=tuple(branches),
        machines=tuple(machines),
    )
    validate_case(case)
    return case


def load_case(path: str | Path) -> NetworkCase:
    """Load and validate a case file; bare bundled names like "wecc9" work too."""
    p = Path(path)
    if not p.is_file() and p.name == str(path):
        bundled = bundled_case_path(str(path))
        if bundled is not None:
            p = bundled
    if not p.is_file():
        raise CaseError(f"case file not found: {path}")
    return parse_case(p.read_text(), source=str(p))


def bundled_case_path(name: str) -> Path | None:
    """Path of a case shipped with the package ("wecc9", "ne39"), else None."""
    stem = name.removesuffix(".case")
    candidate = resources.files("powerdse.data") / f"{stem}.case"
    with resources.as_file(candidate) as p:
        return p if p.exists() else None


def total_load(case: NetworkCase) -> tuple[float, float]:
    """Total (MW, MVar) load, summed per bus after conversion from per unit."""
    mw = math.fsum(b.p_load * case.base_mva for b in case.buses)
    mvar = math.fsum(b.q_load * case.base_mva for b in case.buses)
    return mw, mvar
