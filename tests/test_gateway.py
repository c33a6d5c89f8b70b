from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from artifact import (
    ARTIFACT_NAME_HEADER,
    OPERATION_NAME_HEADER,
    DeadLettered,
    Forwarded,
    GatewayArtifact,
    InvokedSelf,
    Message,
    OpRequest,
    SetHeader,
    Transform,
    operation,
    parse_expr,
)
from artifact.errors import GatewayStoppedError, QueueFullError, RouteNotOwnedError
from artifact.gateway import ArtifactComponent, ChannelRegistry
from artifact.uri import parse_endpoint_uri

from conftest import wait_until


class TempSensor(GatewayArtifact):
    def init(self, channel=None):
        super().init(channel)
        self.update_property("temp", 0.0)
        self.temp_calls: list = []

    @operation
    def temp(self, value):
        self.temp_calls.append(value)
        self.update_property("temp", value)


class Recorder(GatewayArtifact):
    def init(self, channel=None):
        super().init(channel)
        self.seen: list = []

    @operation
    def recv(self, payload=None):
        self.seen.append(payload)


from artifact.runtime import Artifact


class PlainRecorder(Artifact):
    def init(self):
        self.seen: list = []

    @operation
    def recv(self, payload=None):
        self.seen.append(payload)


def _gateway(env, name, template=Recorder, init=()):
    aid = env.runtime.make_artifact("main", name, template, list(init))
    gateway = env.runtime.lookup(aid)
    env.gateways.append(gateway)
    return gateway


def test_send_msg_sets_headers_and_fifo(env):
    gateway = _gateway(env, "s1")
    gateway.start_listening()
    first = gateway.send_msg(OpRequest("s1", "temp", [100.0]), {"trace": "t1"})
    assert first.headers[ARTIFACT_NAME_HEADER] == "s1"
    assert first.headers[OPERATION_NAME_HEADER] == "temp"
    assert first.headers["trace"] == "t1"
    assert first.body == [100.0]
    gateway.send_msg(OpRequest("s1", "temp", [2.0]))
    assert gateway.poll_outgoing(1.0).body == [100.0]
    assert gateway.poll_outgoing(1.0).body == [2.0]


def test_send_on_stopped_gateway(env):
    gateway = _gateway(env, "s1")
    with pytest.raises(GatewayStoppedError):
        gateway.send_msg(OpRequest("s1", "temp", [1.0]))


def test_send_queue_full_after_timeout(env):
    gateway = _gateway(env, "s1")
    gateway.start_listening()
    gateway.outgoing.capacity = 2
    gateway.send_msg(OpRequest("s1", "recv", [1]))
    gateway.send_msg(OpRequest("s1", "recv", [2]))
    with pytest.raises(QueueFullError):
        gateway.send_msg(OpRequest("s1", "recv", [3]), timeout=0.05)


def test_deliver_self_invokes_operation(env):
    gateway = _gateway(env, "s1", TempSensor)
    gateway.start_listening()
    outcome = gateway.deliver(
        Message(
            headers={ARTIFACT_NAME_HEADER: "s1", OPERATION_NAME_HEADER: "temp"},
            body=[100.0],
        )
    )
    assert isinstance(outcome, InvokedSelf)
    assert outcome.operation == "temp"
    assert gateway.property_value("temp") == 100.0


def test_deliver_missing_header_dead_letters(env):
    gateway = _gateway(env, "s1")
    gateway.start_listening()
    outcome = gateway.deliver(Message(headers={ARTIFACT_NAME_HEADER: "s1"}, body=[]))
    assert outcome == DeadLettered("MissingHeader")
    assert len(gateway.dead_letters) == 1


def test_deliver_forwards_to_linked_plain_artifact(env):
    router = _gateway(env, "router")
    target_id = env.runtime.make_artifact("main", "t1", PlainRecorder, [])
    env.runtime.link_artifacts(router.id, target_id)
    router.start_listening()
    outcome = router.deliver(
        Message(headers={ARTIFACT_NAME_HEADER: "t1", OPERATION_NAME_HEADER: "recv"}, body=["x"])
    )
    assert outcome == Forwarded(target_id)
    assert env.runtime.lookup(target_id).seen == ["x"]


def test_deliver_unlinked_artifact_dead_letters(env):
    router = _gateway(env, "router")
    env.runtime.make_artifact("main", "stranger", PlainRecorder, [])
    router.start_listening()
    outcome = router.deliver(
        Message(
            headers={ARTIFACT_NAME_HEADER: "stranger", OPERATION_NAME_HEADER: "recv"},
            body=[],
        )
    )
    assert outcome == DeadLettered("UnknownArtifact")


def test_deliver_forwards_to_other_gateway_incoming(env):
    a = _gateway(env, "a")
    b = _gateway(env, "b")
    a.start_listening()
    message = Message(
        headers={ARTIFACT_NAME_HEADER: "b", OPERATION_NAME_HEADER: "recv"}, body=["hi"]
    )
    outcome = a.deliver(message)
    assert outcome == Forwarded(b.id)
    # b is not listening: the message pends in its incoming queue
    assert len(b.incoming) == 1
    b.start_listening()
    assert wait_until(lambda: b.seen == ["hi"])


def test_self_name_is_never_forwarded(env):
    a = _gateway(env, "a")
    b = _gateway(env, "b")
    env.runtime.link_artifacts(a.id, b.id)
    a.start_listening()
    outcome = a.deliver(
        Message(headers={ARTIFACT_NAME_HEADER: "a", OPERATION_NAME_HEADER: "recv"}, body=["x"])
    )
    assert isinstance(outcome, InvokedSelf)
    assert a.seen == ["x"]
    assert b.seen == []


def test_unknown_operation_on_self_dead_letters(env):
    gateway = _gateway(env, "s1")
    gateway.start_listening()
    outcome = gateway.deliver(
        Message(headers={ARTIFACT_NAME_HEADER: "s1", OPERATION_NAME_HEADER: "nosuch"}, body=[])
    )
    assert isinstance(outcome, DeadLettered)
    assert "UnknownOperation" in outcome.reason


def test_body_list_maps_elementwise_and_scalar_becomes_single_param(env):
    class TwoArg(GatewayArtifact):
        def init(self, channel=None):
            super().init(channel)
            self.calls = []

        @operation
        def pair(self, a, b):
            self.calls.append((a, b))

        @operation
        def single(self, a):
            self.calls.append(a)

    gateway = _gateway(env, "s1", TwoArg)
    gateway.start_listening()
    gateway.deliver(
        Message(headers={ARTIFACT_NAME_HEADER: "s1", OPERATION_NAME_HEADER: "pair"}, body=[1, 2])
    )
    gateway.deliver(
        Message(headers={ARTIFACT_NAME_HEADER: "s1", OPERATION_NAME_HEADER: "single"}, body="solo")
    )
    assert gateway.calls == [(1, 2), "solo"]


def test_attach_route_ownership(env):
    g1 = _gateway(env, "g1")
    env.runtime.make_artifact("main", "g2", Recorder, [])
    here = env.engine.define_route("artifact:g1", [], "mq:t")
    there = env.engine.define_route("artifact:g2", [], "mq:t")
    g1.attach_route(here, engine=env.engine)
    with pytest.raises(RouteNotOwnedError):
        g1.attach_route(there)


def test_stop_listening_pends_incoming_until_restart(env):
    gateway = _gateway(env, "s1")
    gateway.start_listening()
    gateway.stop_listening()
    for i in range(3):
        gateway.enqueue_incoming(
            Message(
                headers={ARTIFACT_NAME_HEADER: "s1", OPERATION_NAME_HEADER: "recv"},
                body=[i],
            )
        )
    assert len(gateway.incoming) == 3
    assert gateway.seen == []
    gateway.start_listening()
    # list bodies map element-wise: each body [i] invokes recv(i), in order
    assert wait_until(lambda: gateway.seen == [0, 1, 2])


def test_poll_outgoing_exactly_once_with_concurrent_pollers(env):
    gateway = _gateway(env, "s1")
    gateway.start_listening()
    gateway.send_msg(OpRequest("s1", "recv", ["only"]))
    results = []
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(gateway.poll_outgoing, 0.3) for _ in range(2)]
        results = [f.result() for f in futures]
    received = [r for r in results if r is not None]
    assert len(received) == 1


def test_poll_outgoing_empty_returns_none(env):
    gateway = _gateway(env, "s1")
    assert gateway.poll_outgoing(0.01) is None


def test_poll_outgoing_fifo_across_100_messages(env):
    gateway = _gateway(env, "s1")
    gateway.start_listening()
    for i in range(100):
        gateway.send_msg(OpRequest("s1", "recv", [i]))
    drained = [gateway.poll_outgoing(1.0).body[0] for _ in range(100)]
    assert drained == list(range(100))


def test_forwarding_table_view(env):
    router = _gateway(env, "router")
    other = _gateway(env, "other")
    t1 = env.runtime.make_artifact("main", "t1", PlainRecorder, [])
    env.runtime.link_artifacts(router.id, t1)
    table = router.forwarding_table()
    assert table["router"] == "self"
    assert table["t1"] == "linked"
    assert table["other"] == "gateway"


def test_loopback_through_broker_exactly_once(env):
    gateway = _gateway(env, "s1")
    publish = env.engine.define_route("artifact:s1", [], "mq:loop")
    subscribe = env.engine.define_route("mq:loop", [], "artifact:s1")
    gateway.attach_route(publish, engine=env.engine)
    gateway.attach_route(subscribe)
    gateway.start_listening()
    for i in range(10):
        gateway.send_msg(OpRequest("s1", "recv", [i]))
    assert wait_until(lambda: len(gateway.seen) == 10)
    assert gateway.seen == [str(i) for i in range(10)]
    assert gateway.stats.dead_lettered == 0


def test_dispatch_totality_router_topology(env):
    router = _gateway(env, "router")
    targets = []
    for i in range(10):
        tid = env.runtime.make_artifact("main", f"t{i}", PlainRecorder, [])
        env.runtime.link_artifacts(router.id, tid)
        targets.append(env.runtime.lookup(tid))
    router.start_listening()
    for i in range(100):
        router.enqueue_incoming(
            Message(
                headers={ARTIFACT_NAME_HEADER: f"t{i % 10}", OPERATION_NAME_HEADER: "recv"},
                body=[i],
            )
        )
    for i in range(5):
        router.enqueue_incoming(
            Message(
                headers={ARTIFACT_NAME_HEADER: "ghost", OPERATION_NAME_HEADER: "recv"},
                body=[i],
            )
        )
    assert wait_until(lambda: router.stats.dispatched == 105)
    assert all(len(t.seen) == 10 for t in targets)
    assert router.stats.forwarded == 100
    assert router.stats.dead_lettered == 5
    assert len(router.dead_letters) == 5
    assert router.stats.dispatched == router.stats.forwarded + router.stats.dead_lettered + router.stats.invoked_self


def test_channel_shared_by_two_gateways_dispatches_by_header(env):
    s1 = _gateway(env, "s1", Recorder, ["hub"])
    s2 = _gateway(env, "s2", Recorder, ["hub"])
    publish = env.engine.define_route("artifact:hub", [], "mq:hub/topic")
    subscribe = env.engine.define_route("mq:hub/topic", [], "artifact:hub")
    s1.attach_route(publish, engine=env.engine)
    s1.attach_route(subscribe)
    s1.start_listening()
    s2.start_listening()
    # s1 sends a message addressed to s2: same channel, distinguished by header
    s1.send_msg(OpRequest("s2", "recv", ["for-two"]))
    assert wait_until(lambda: s2.seen == ["for-two"])
    assert s1.seen == []


def test_wake_ends_a_pending_channel_poll():
    consumer = ArtifactComponent(ChannelRegistry()).create_consumer(
        parse_endpoint_uri("artifact:quiet"), None
    )
    waker = threading.Timer(0.05, consumer.wake)
    waker.start()
    started = time.monotonic()
    try:
        assert consumer.poll(5.0) is None
        assert time.monotonic() - started < 1.0
    finally:
        waker.cancel()
        waker.join(5.0)
    assert not waker.is_alive()
