"""Fast tests of the benchmark's correctness checkers; they run no workload.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import pytest

from checks import StreamCheck, celsius_round_trip, count_failed, wire_text


def test_wire_text_follows_the_documented_format():
    assert wire_text(212.0) == "212"
    assert wire_text(-40.0) == "-40"
    assert wire_text(98.60000000000001) == "98.60000000000001"
    assert wire_text(7) == "7"
    assert wire_text("AT station-3") == "AT station-3"


def test_celsius_round_trip_computes_each_step():
    assert celsius_round_trip(100.0) == 100.0
    assert celsius_round_trip(-40.0) == -40.0
    # 37.0 C is 98.60000000000001 F on the wire, which does not map back exactly
    assert celsius_round_trip(37.0) == 37.00000000000001


# One record per workload, in the shape each workload checks: the expected
# (destination, body) pairs in send order and the deliveries in arrival order.


def _stream(expected, delivered) -> StreamCheck:
    check = StreamCheck()
    for destination, body in expected:
        check.expect(destination, body, 0.0)
    for destination, body in delivered:
        check.deliver(destination, body, 1.0)
    return check


def _failed(expected, delivered) -> int:
    return count_failed([_stream(expected, delivered)])


FLEET_READINGS = [("sensor0", 21.5), ("sensor1", -3.25), ("sensor0", 100.0), ("sensor1", 37.0)]
FLEET_EXPECTED = [(name, celsius_round_trip(c)) for name, c in FLEET_READINGS]

ROUTER_SENT = [("t3", 0, 1.5), ("t1", 1, 2.0), ("t3", 2, 0.125), ("t1", 3, 10.0)]
ROUTER_EXPECTED = [(target, f"{k} {wire_text(v)}") for target, k, v in ROUTER_SENT]


def _chain_failed(values, applied, observed, taps, replies) -> int:
    return count_failed([
        _stream([("plc", v) for v in values], applied),
        _stream([("plc", v) for v in values], observed),
        _stream([("sensor", wire_text(v)) for v in values], taps),
        _stream([("robot", f"AT station-{v}") for v in values], replies),
    ])


CHAIN_VALUES = [501, 502, 503]
CHAIN_CORRECT = dict(
    applied=[("plc", v) for v in CHAIN_VALUES],
    observed=[("plc", v) for v in CHAIN_VALUES],
    taps=[("sensor", str(v)) for v in CHAIN_VALUES],
    replies=[("robot", f"AT station-{v}") for v in CHAIN_VALUES],
)


def _broken(records):
    """The broken variants of a correct delivery record."""
    first, second = records[0], records[1]
    body = first[1]
    if isinstance(body, str):
        wrong_body = body + "x"
    else:
        wrong_body = body + (1e-9 if isinstance(body, float) else 1_000_000)
    return {
        "dropped": records[1:],
        "duplicated": records[:1] + records,
        "reordered": [second, first] + records[2:] if first[0] == second[0]
        else [records[2], first, second] + records[3:],
        "wrongly_converted": [(first[0], wrong_body)] + records[1:],
        "wrong_target": [("elsewhere", first[1])] + records[1:],
    }


@pytest.mark.parametrize("expected", [FLEET_EXPECTED, ROUTER_EXPECTED], ids=["fleet", "router"])
def test_correct_record_passes(expected):
    # arrivals to different destinations may interleave in any order
    interleaved = [expected[1], expected[0], expected[3], expected[2]]
    assert _failed(expected, expected) == 0
    assert _failed(expected, interleaved) == 0


@pytest.mark.parametrize("expected", [FLEET_EXPECTED, ROUTER_EXPECTED], ids=["fleet", "router"])
@pytest.mark.parametrize(
    "kind", ["dropped", "duplicated", "reordered", "wrongly_converted", "wrong_target"]
)
def test_broken_record_is_flagged(expected, kind):
    delivered = _broken(list(expected))[kind]
    assert _failed(expected, delivered) == 1


def test_reordering_is_judged_per_destination():
    expected = [("a", 1), ("a", 2), ("b", 3)]
    check = _stream(expected, [("a", 2), ("b", 3), ("a", 1)])
    assert check.failures() == ({0}, 0)
    assert check.matched == 3


def test_an_unexplained_extra_delivery_fails():
    assert _failed(ROUTER_EXPECTED, ROUTER_EXPECTED + [("t1", "99 1")]) == 1


def test_operations_in_flight_must_differ():
    with pytest.raises(ValueError):
        _stream([("a", 1), ("a", 1)], [])
    # once delivered, a body may be used again
    check = StreamCheck()
    check.expect("a", 1, 0.0)
    check.deliver("a", 1, 1.0)
    check.expect("a", 1, 2.0)
    check.deliver("a", 1, 3.0)
    assert count_failed([check]) == 0 and check.matched == 2


def test_chain_correct_record_passes():
    assert _chain_failed(CHAIN_VALUES, **CHAIN_CORRECT) == 0


@pytest.mark.parametrize("stream", ["applied", "observed", "taps", "replies"])
@pytest.mark.parametrize(
    "kind", ["dropped", "duplicated", "reordered", "wrongly_converted", "wrong_target"]
)
def test_chain_broken_stream_is_flagged(stream, kind):
    records = dict(CHAIN_CORRECT)
    records[stream] = _broken(records[stream])[kind]
    assert _chain_failed(CHAIN_VALUES, **records) == 1


def test_chain_operation_failing_in_several_streams_counts_once():
    records = {name: stream[1:] for name, stream in CHAIN_CORRECT.items()}
    assert _chain_failed(CHAIN_VALUES, **records) == 1
