import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerdse import (
    Branch,
    Bus,
    BusKind,
    CaseError,
    Machine,
    NetworkCase,
    bundled_case_path,
    load_case,
    parse_case,
    total_load,
    validate_case,
)

from oracles import dump_case, without_branch


def test_wecc9_contents(wecc9):
    assert len(wecc9.buses) == 9
    assert len(wecc9.machines) == 3
    assert [m.h for m in wecc9.machines] == [23.64, 6.4, 3.01]
    assert wecc9.base_mva == 100.0
    assert wecc9.frequency == 60.0


def test_ne39_contents(ne39):
    assert len(ne39.buses) == 39
    assert len(ne39.machines) == 10
    assert ne39.machines[0].h == 500.0
    assert ne39.machines[0].xd_prime == 0.006
    assert all(m.d == 0.0 for m in ne39.machines)


def test_wecc9_damping_nonzero(wecc9):
    assert all(m.d > 0 for m in wecc9.machines)


def test_two_slack_buses_rejected():
    text = """\
name twoslack
[buses]
1 slack 0 0 1.0
2 slack 0 0 1.0
3 pq 1.0 0.5 -
[branches]
1 2 0.0 0.1 0.0 1.0
2 3 0.0 0.1 0.0 1.0
[machines]
1 5.0 0.0 0.1 -
"""
    with pytest.raises(CaseError) as err:
        parse_case(text)
    assert "1" in str(err.value) and "2" in str(err.value)
    assert "slack" in str(err.value)


def test_total_load_wecc9(wecc9):
    assert total_load(wecc9) == (315.0, 115.0)


def test_total_load_ne39(ne39):
    assert total_load(ne39) == (6254.2, 1387.1)


def test_total_load_zero():
    case = NetworkCase(
        name="empty", base_mva=100.0, frequency=60.0,
        buses=(Bus(1, BusKind.SLACK, v_setpoint=1.0),
               Bus(2, BusKind.PQ)),
        branches=(Branch(1, 2, 0.0, 0.1),),
        machines=(Machine(1, 5.0, 0.0, 0.1),),
    )
    assert total_load(case) == (0.0, 0.0)


def test_bundled_round_trip(wecc9, ne39):
    for case in (wecc9, ne39):
        assert parse_case(dump_case(case)) == case


def test_bundled_paths():
    assert bundled_case_path("wecc9") is not None
    assert bundled_case_path("ne39") is not None
    assert bundled_case_path("nonexistent-system") is None


def test_load_case_missing_file(tmp_path):
    with pytest.raises(CaseError, match="not found"):
        load_case(tmp_path / "nope.case")


def test_parse_error_names_line():
    text = "name broken\n[buses]\n1 slack zero 0 1.0\n"
    with pytest.raises(CaseError, match=":3"):
        parse_case(text, source="broken.case")


def test_unknown_section_rejected():
    with pytest.raises(CaseError, match="unknown section"):
        parse_case("name x\n[generators]\n")


def test_dangling_branch_named():
    text = """\
name dangling
[buses]
1 slack 0 0 1.0
2 pq 1.0 0.0 -
[branches]
1 7 0.0 0.1 0.0 1.0
[machines]
1 5.0 0.0 0.1 -
"""
    with pytest.raises(CaseError, match="branch 1-7"):
        parse_case(text)


def test_validation_collects_all_problems():
    case = NetworkCase(
        name="bad", base_mva=100.0, frequency=60.0,
        buses=(Bus(1, BusKind.PQ), Bus(1, BusKind.PQ)),
        branches=(Branch(1, 1, 0.0, 0.0),),
        machines=(),
    )
    with pytest.raises(CaseError) as err:
        validate_case(case)
    msg = str(err.value)
    assert "duplicate bus ids" in msg
    assert "slack" in msg
    assert "self loop" in msg
    assert "zero impedance" in msg
    assert "no machines" in msg


def test_without_branch(wecc9):
    trimmed = without_branch(wecc9, 8, 9)
    assert len(trimmed.branches) == len(wecc9.branches) - 1
    assert not trimmed.has_branch(8, 9)
    # end order does not matter
    assert without_branch(wecc9, 9, 8) == trimmed
    with pytest.raises(CaseError, match="no branch 1-9"):
        without_branch(wecc9, 1, 9)


def test_machine_order_follows_file(wecc9):
    assert wecc9.machine_buses() == (1, 2, 3)


positive = st.floats(0.01, 10.0, allow_nan=False)
bounded = st.floats(-10.0, 10.0, allow_nan=False)


@st.composite
def small_cases(draw):
    n = draw(st.integers(2, 5))
    ids = list(range(1, n + 1))
    kinds = [BusKind.SLACK] + [
        draw(st.sampled_from([BusKind.PV, BusKind.PQ])) for _ in ids[1:]
    ]
    buses = []
    for bus_id, kind in zip(ids, kinds):
        needs_v = kind in (BusKind.SLACK, BusKind.PV)
        v_set = draw(positive) if needs_v else draw(st.none() | positive)
        shunt = (complex(draw(bounded), draw(bounded))
                 if draw(st.booleans()) else 0j)
        buses.append(Bus(id=bus_id, kind=kind, p_load=draw(bounded),
                         q_load=draw(bounded), v_setpoint=v_set, shunt=shunt))
    branches = tuple(
        Branch(a, b, r=draw(st.floats(0.0, 1.0)), x=draw(positive),
               b_shunt=draw(st.floats(0.0, 1.0)), tap=draw(positive))
        for a, b in zip(ids, ids[1:])
    )
    m_buses = draw(st.lists(st.sampled_from(ids), min_size=1,
                            max_size=n, unique=True))
    machines = tuple(
        Machine(bus=b, h=draw(positive), d=draw(st.floats(0.0, 5.0)),
                xd_prime=draw(positive), p_gen=draw(st.none() | bounded),
                q_gen=draw(st.none() | bounded))
        for b in sorted(m_buses)
    )
    return NetworkCase(name="prop", base_mva=100.0, frequency=60.0,
                       buses=tuple(buses), branches=branches,
                       machines=machines)


@settings(max_examples=50, deadline=None)
@given(small_cases())
def test_round_trip_property(case):
    validate_case(case)
    assert parse_case(dump_case(case)) == case


@settings(max_examples=50, deadline=None)
@given(small_cases())
def test_total_load_matches_sum(case):
    mw, mvar = total_load(case)
    assert np.isclose(mw, 100.0 * sum(b.p_load for b in case.buses))
    assert np.isclose(mvar, 100.0 * sum(b.q_load for b in case.buses))
