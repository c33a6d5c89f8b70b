from __future__ import annotations

import threading

import pytest

from artifact import Message, RouteStatus, SetHeader, Transform, parse_expr, process
from artifact.errors import (
    InvalidTransitionError,
    ProcessorEvalError,
    QueueFullError,
    UnknownSchemeError,
    UnsupportedEndpointRoleError,
)
from artifact.routing import Component, Consumer, MessageQueue

from conftest import wait_until


def test_transform_replaces_body():
    message = Message(body=[100.0])
    out = process(message, [Transform(parse_expr("(request.body[0] * 1.8 + 32).toString()"))])
    assert out.body == "212"
    assert message.body == [100.0]  # input untouched


def test_empty_chain_is_identity():
    message = Message(headers={"k": "v"}, body=[1, 2])
    out = process(message, [])
    assert out.headers == message.headers
    assert out.body == message.body
    assert out is not message


def test_set_header_last_wins():
    out = process(Message(), [SetHeader("k", "first"), SetHeader("k", "second")])
    assert out.headers["k"] == "second"


def test_set_header_expression():
    out = process(
        Message(body=[20.5]), [SetHeader("doubled", parse_expr("request.body[0] * 2"))]
    )
    assert out.headers["doubled"] == 41.0


def test_processing_same_message_twice_is_identical():
    chain = [SetHeader("tag", "x"), Transform(parse_expr("[ request.body[0] + 1 ]"))]
    message = Message(body=[1.0])
    assert process(message, chain).body == process(message, chain).body == [2.0]


def test_eval_error_carries_processor_index():
    chain = [SetHeader("a", "1"), Transform(parse_expr("request.body[5]"))]
    with pytest.raises(ProcessorEvalError) as info:
        process(Message(body=[0.0]), chain)
    assert info.value.index == 1


def test_define_route_unknown_scheme(env):
    with pytest.raises(UnknownSchemeError) as info:
        env.engine.define_route("bogus:x", [], "mq:y")
    assert info.value.side == "source"
    with pytest.raises(UnknownSchemeError) as info:
        env.engine.define_route("mq:y", [], "bogus:x")
    assert info.value.side == "sink"


def test_define_route_validates_uri(env):
    with pytest.raises(ValueError):
        env.engine.define_route("timer:t?period_ms=0", [], "mq:y")
    with pytest.raises(UnsupportedEndpointRoleError):
        env.engine.define_route("mq:y", [], "timer:t?period_ms=5")


def test_route_lifecycle_transitions(env):
    route = env.engine.define_route("mq:in", [], "mq:out")
    assert route.status == RouteStatus.DEFINED
    env.engine.start_route(route)
    assert route.status == RouteStatus.STARTED
    with pytest.raises(InvalidTransitionError):
        env.engine.start_route(route)
    env.engine.stop_route(route)
    assert route.status == RouteStatus.STOPPED
    with pytest.raises(InvalidTransitionError):
        env.engine.stop_route(route)
    env.engine.start_route(route)
    assert route.status == RouteStatus.STARTED


def test_bridge_flows_and_preserves_order(env):
    route = env.engine.define_route("mq:in", [SetHeader("via", "bridge")], "mq:out")
    env.engine.start_route(route)
    tap = env.broker.subscribe("out")
    for i in range(50):
        env.broker.publish("in", Message(headers={"n": i}, body=[i]))
    received = []
    for _ in range(50):
        message = tap.poll(2.0)
        assert message is not None
        received.append(message.headers["n"])
        assert message.headers["via"] == "bridge"
    assert received == list(range(50))
    assert route.stats.consumed == 50
    assert route.stats.delivered == 50
    assert route.stats.dead_lettered == 0


def test_stopped_route_buffers_then_flows(env):
    route = env.engine.define_route("mq:hold/in", [], "mq:hold/out")
    env.engine.start_route(route)
    env.engine.stop_route(route)
    tap = env.broker.subscribe("hold/out")
    for i in range(5):
        env.broker.publish("hold/in", Message(body=[i]))
    assert tap.poll(0.1) is None  # nothing flows while stopped
    env.engine.start_route(route)
    got = [tap.poll(2.0).body for _ in range(5)]
    assert got == [str(i) for i in range(5)]


def test_failing_transform_goes_to_dead_letter_queue(env):
    route = env.engine.define_route(
        "mq:dl/in", [Transform(parse_expr("request.body[0] * 2"))], "mq:dl/out"
    )
    env.engine.start_route(route)
    env.broker.subscribe("dl/out")
    env.broker.publish("dl/in", Message(body=["not-a-number"]))
    assert wait_until(lambda: len(route.dead_letters) == 1)
    entry = route.dead_letters.entries()[0]
    assert "ProcessorEvalError" in entry.reason
    assert route.stats.dead_lettered == 1
    assert route.stats.consumed == route.stats.delivered + route.stats.dead_lettered


def test_message_queue_fifo_and_timeout():
    q = MessageQueue(capacity=2, name="t")
    q.put("a")
    q.put("b")
    with pytest.raises(QueueFullError):
        q.put("c", timeout=0.05)
    assert q.get() == "a"
    assert q.get() == "b"
    assert q.get(timeout=0.05) is None


def test_message_queue_force_put_beats_capacity():
    q = MessageQueue(capacity=1)
    q.put("a")
    q.force_put("sentinel")
    assert q.get() == "a"
    assert q.get() == "sentinel"


class _DeafConsumer(Consumer):
    """Blocks in poll until released, whatever the timeout; ignores wake()."""

    def __init__(self):
        self.release = threading.Event()

    def poll(self, timeout):
        self.release.wait(10.0)
        return None


class _DeafComponent(Component):
    def __init__(self, consumer):
        self.consumer = consumer

    def create_consumer(self, uri, route):
        return self.consumer


def test_stop_route_that_does_not_exit_stays_started(env):
    consumer = _DeafConsumer()
    env.registry.register("deaf", _DeafComponent(consumer))
    route = env.engine.define_route("deaf:x", [], "mq:deaf/out")
    env.engine.start_route(route)
    with pytest.raises(InvalidTransitionError):
        env.engine.stop_route(route, join_timeout=0.1)
    assert route.status == RouteStatus.STARTED
    with pytest.raises(InvalidTransitionError):
        env.engine.start_route(route)  # no second loop on the same consumer
    consumer.release.set()
    env.engine.stop_route(route, join_timeout=5.0)
    assert route.status == RouteStatus.STOPPED
    assert not route._thread.is_alive()
