from __future__ import annotations

import sys
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
from artifact import gateway as gateway_module
from artifact import messages as messages_module
from artifact.errors import DeliveryError, GatewayStoppedError, QueueFullError, RouteNotOwnedError
from artifact.bench.scenarios import BenchEnv
from artifact.endpoints import TopicBroker, standard_components
from artifact.gateway import ArtifactComponent, gateway_channels
from artifact.loop import shared_loop
from artifact.routing import DEFAULT_QUEUE_CAPACITY, RouteStatus, RoutingEngine
from artifact.runtime import ArtifactId
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
    extra = {"trace": "t1", "hops": ["a"]}
    first = gateway.send_msg(OpRequest("s1", "temp", [100.0]), extra)
    assert first.headers[ARTIFACT_NAME_HEADER] == "s1"
    assert first.headers[OPERATION_NAME_HEADER] == "temp"
    assert first.headers["trace"] == "t1"
    first.headers["hops"].append("b")
    assert extra["hops"] == ["a"]
    assert first.body == [100.0]
    gateway.send_msg(OpRequest("s1", "temp", [2.0]))
    assert gateway.poll_outgoing(1.0).body == [100.0]
    assert gateway.poll_outgoing(1.0).body == [2.0]


def test_send_on_stopped_gateway(env):
    gateway = _gateway(env, "s1")
    with pytest.raises(GatewayStoppedError):
        gateway.send_msg(OpRequest("s1", "temp", [1.0]))


def test_send_queue_full_after_timeout(env, monkeypatch):
    monkeypatch.setattr(gateway_module, "ENQUEUE_TIMEOUT_S", 0.05)
    gateway = _gateway(env, "s1")
    gateway.start_listening()
    gateway.outgoing.capacity = 2
    gateway.send_msg(OpRequest("s1", "recv", [1]))
    gateway.send_msg(OpRequest("s1", "recv", [2]))
    with pytest.raises(QueueFullError):
        gateway.send_msg(OpRequest("s1", "recv", [3]))


def test_send_msg_into_a_full_outgoing_queue_gives_up_after_the_enqueue_timeout(env, monkeypatch):
    monkeypatch.setattr(gateway_module, "ENQUEUE_TIMEOUT_S", 0.05)
    gateway = _gateway(env, "s1")
    out = env.engine.define_route("artifact:s1", [], "mq:s1")
    gateway.attach_route(out, engine=env.engine)
    gateway.attach_route(env.engine.define_route("mq:s1", [], "artifact:s1"))
    gateway.start_listening()
    env.engine.stop_route(out)  # nothing takes from the outgoing queue
    for i in range(DEFAULT_QUEUE_CAPACITY):
        gateway.send_msg(OpRequest("s1", "recv", [i]))
    started = time.monotonic()
    with pytest.raises(QueueFullError):
        gateway.send_msg(OpRequest("s1", "recv", [-1]))
    assert time.monotonic() - started < 2.0
    env.engine.start_route(out)
    assert wait_until(lambda: len(gateway.seen) == DEFAULT_QUEUE_CAPACITY, timeout=10.0)
    assert gateway.seen == [str(i) for i in range(DEFAULT_QUEUE_CAPACITY)]


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


def test_a_gateway_reads_no_dead_letters_without_making_a_queue(env):
    gateway = _gateway(env, "s1")
    gateway.start_listening()
    gateway.deliver(Message(headers={ARTIFACT_NAME_HEADER: "s1", OPERATION_NAME_HEADER: "recv"}))
    assert len(gateway.dead_letters) == 0 and gateway.dead_letters.entries() == []
    assert gateway.dead_letters.total == 0 and env.dead_letter_total() == 0
    assert gateway._dead_letter_queue is None  # made with the first dead letter


def test_a_gateways_first_dead_letter_shows_everywhere(env):
    gateway = _gateway(env, "s1")
    gateway.start_listening()
    gateway.deliver(Message(headers={ARTIFACT_NAME_HEADER: "nobody", OPERATION_NAME_HEADER: "recv"}))
    assert len(gateway.dead_letters) == 1
    assert gateway.dead_letters.entries()[0].reason == "UnknownArtifact"
    assert gateway.dead_letters.total == 1 and env.dead_letter_total() == 1
    assert gateway.stats.dead_lettered == 1


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


def test_linked_targets_follow_links_and_disposal(env):
    router = _gateway(env, "router")
    router.start_listening()

    def deliver():
        headers = {ARTIFACT_NAME_HEADER: "t1", OPERATION_NAME_HEADER: "recv"}
        return router.deliver(Message(headers=headers, body=["x"]))

    assert deliver() == DeadLettered("UnknownArtifact")  # no such artifact yet
    target_id = env.runtime.make_artifact("main", "t1", PlainRecorder, [])
    target = env.runtime.lookup(target_id)
    assert deliver() == DeadLettered("UnknownArtifact")  # not linked yet
    env.runtime.link_artifacts(router.id, target_id)
    assert deliver() == Forwarded(target_id)
    assert target.seen == ["x"]
    env.runtime.dispose_artifact(target_id)
    assert deliver() == DeadLettered("UnknownArtifact")
    assert target.seen == ["x"]
    assert router.stats.forwarded == 1
    assert router.stats.dead_lettered == 3


def test_gateway_name_index_across_channels(env):
    a = _gateway(env, "a", Recorder, ["north"])
    b = _gateway(env, "b", Recorder, ["south"])
    registry = gateway_channels(env.runtime)
    assert registry.find_gateway("a") is a
    assert registry.find_gateway("b") is b
    assert registry.find_gateway("north") is None  # a channel is not a gateway
    assert sorted(g.id.name for g in registry.all_gateways()) == ["a", "b"]
    registry.unregister("north", a)
    assert registry.find_gateway("a") is None
    assert registry.find_gateway("b") is b
    assert [g.id.name for g in registry.all_gateways()] == ["b"]
    registry.register("north", a)
    assert registry.find_gateway("a") is a
    assert sorted(g.id.name for g in registry.all_gateways()) == ["a", "b"]


def test_each_send_reaches_the_routes_consuming_its_channel(env):
    gateway = _gateway(env, "hub")
    routes = [env.engine.define_route("artifact:hub", [], f"mq:hub/{side}") for side in "ab"]
    taps = [env.broker.subscribe(f"hub/{side}") for side in "ab"]
    gateway.attach_route(routes[0], engine=env.engine)
    gateway.attach_route(routes[1])
    gateway.start_listening()
    for i in range(200):
        gateway.send_msg(OpRequest("hub", "recv", [i]))
    got: list = []

    def all_arrived():
        for tap in taps:
            got.extend(int(m.body) for m in iter(tap.try_get, None))
        return len(got) >= 200

    assert wait_until(all_arrived)
    assert sorted(got) == list(range(200))  # each message taken once
    assert sum(r.stats.delivered for r in routes) == 200
    assert len(gateway.outgoing) == 0


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


def test_gateways_sharing_a_channel_each_get_their_own_messages_once_in_send_order(env):
    senders = [_gateway(env, name, Recorder, ["hub"]) for name in ("a", "b")]
    route = env.engine.define_route("artifact:hub", [], "artifact:hub")
    senders[0].attach_route(route, engine=env.engine)
    for gateway in senders:
        gateway.start_listening()

    def send(gateway):
        for i in range(300):
            gateway.send_msg(OpRequest(gateway.id.name, "recv", [i]))

    threads = [threading.Thread(target=send, args=(gateway,)) for gateway in senders]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert wait_until(lambda: route.stats.delivered == 600)
    for gateway in senders:
        assert gateway.seen == list(range(300))


def test_a_disposed_gateways_sent_messages_still_reach_the_channels_route(env):
    a = _gateway(env, "a", Recorder, ["hub"])
    b = _gateway(env, "b", Recorder, ["hub"])
    route = env.engine.define_route("artifact:hub", [], "mq:hub/out")
    tap = env.broker.subscribe("hub/out")
    b.attach_route(route, engine=env.engine)
    a.start_listening()
    b.start_listening()
    env.engine.stop_route(route)
    for i in range(3):
        a.send_msg(OpRequest("b", "recv", [i]))
    env.runtime.dispose_artifact(a.id)
    env.engine.start_route(route)
    arrived = [tap.poll(2.0) for _ in range(3)]
    assert [None if m is None else int(m.body) for m in arrived] == [0, 1, 2]


def test_stopping_an_idle_channel_route_returns_at_once(env):
    gateway = _gateway(env, "quiet")
    route = env.engine.define_route("artifact:quiet", [], "mq:quiet")
    tap = env.broker.subscribe("quiet")
    gateway.attach_route(route, engine=env.engine)
    gateway.start_listening()
    started = time.monotonic()
    env.engine.stop_route(route)
    assert time.monotonic() - started < 0.5
    gateway.send_msg(OpRequest("quiet", "recv", [1]))
    assert tap.poll(0.1) is None  # nothing flows while the route is stopped
    assert len(gateway.outgoing) == 1
    env.engine.start_route(route)
    assert tap.poll(2.0).body == "1"


# ---------------------------------------------------------------------------
# the incoming queue as a serial mailbox drained by the enqueuing thread


def _msg(name, op, body):
    return Message(headers={ARTIFACT_NAME_HEADER: name, OPERATION_NAME_HEADER: op}, body=body)


def _run_joined(target, timeout=10.0):
    """Run `target` on a daemon thread; its result, or the exception it raised."""
    box: list = []

    def run():
        try:
            box.append(target())
        except Exception as exc:
            box.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "call did not return in time"
    return box[0]


class Overlapping(GatewayArtifact):
    """Records each call and whether any two calls ever ran at once."""

    def init(self, channel=None):
        super().init(channel)
        self.calls: list = []
        self.active = 0
        self.overlapped = False

    @operation
    def rec(self, sender, seq):
        self.active += 1
        if self.active > 1:
            self.overlapped = True
        time.sleep(0)  # invite another thread in
        self.calls.append((sender, seq))
        self.active -= 1


def test_start_listening_starts_no_gateway_thread(env):
    gateway = _gateway(env, "s1")
    before = {t.ident for t in threading.enumerate()}
    gateway.start_listening()
    started = [t.name for t in threading.enumerate() if t.ident not in before]
    assert started == []
    assert not any(t.name.startswith("gateway-") for t in threading.enumerate())
    gateway.enqueue_incoming(_msg("s1", "recv", ["now"]))
    assert gateway.seen == ["now"]  # delivered before enqueue_incoming returned


def test_building_a_gateway_and_delivering_through_it_makes_no_condition(env, monkeypatch):
    made: list = []

    class CountingCondition(threading.Condition):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(threading, "Condition", CountingCondition)
    router = _gateway(env, "router")
    publish = env.engine.define_route("artifact:router", [], "mq:plant/router")
    subscribe = env.engine.define_route("mq:plant/router", [], "artifact:router")
    router.attach_route(publish, engine=env.engine)
    router.attach_route(subscribe)
    target_id = env.runtime.make_artifact("main", "t1", PlainRecorder, [])
    env.runtime.link_artifacts(router.id, target_id)
    router.start_listening()
    router.enqueue_incoming(_msg("router", "recv", ["self"]))
    router.enqueue_incoming(_msg("t1", "recv", ["linked"]))
    assert router.seen == ["self"]
    assert env.runtime.lookup(target_id).seen == ["linked"]
    assert made == []


def test_concurrent_enqueuers_deliver_exactly_once_in_order_and_serially(env):
    gateway = _gateway(env, "hub", Overlapping)
    gateway.start_listening()
    per_thread = 500
    barrier = threading.Barrier(4)

    def produce(sender):
        barrier.wait()
        for seq in range(per_thread):
            gateway.enqueue_incoming(_msg("hub", "rec", [sender, seq]))

    threads = [threading.Thread(target=produce, args=(s,), daemon=True) for s in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30.0)
    assert not any(t.is_alive() for t in threads)
    assert wait_until(lambda: len(gateway.calls) == 4 * per_thread)
    for sender in range(4):
        assert [seq for s, seq in gateway.calls if s == sender] == list(range(per_thread))
    assert not gateway.overlapped
    assert gateway.stats.invoked_self == gateway.stats.dispatched == 4 * per_thread
    assert len(gateway.incoming) == 0


def _late_sender(gateway):
    """A thread that sends one message; the call it returns starts it once
    and waits for it."""
    late = threading.Thread(
        target=gateway.enqueue_incoming, args=(_msg(gateway.id.name, "recv", ["late"]),),
        daemon=True,
    )

    def send_late():
        if late.ident is None:
            late.start()
            late.join(5.0)

    return late, send_late


def test_message_put_while_the_drainer_finishes_is_not_stranded(env):
    # The late sender arrives after a drain of the queue found it empty,
    # while the drainer still holds the claim: it must leave its message to
    # that drainer.
    gateway = _gateway(env, "m")
    gateway.enqueue_incoming(_msg("m", "recv", ["first"]))  # queued while stopped
    late, send_late = _late_sender(gateway)
    real_try_get = gateway.incoming.try_get

    def try_get():
        item = real_try_get()
        if item is None:
            send_late()
        return item

    gateway.incoming.try_get = try_get
    gateway.start_listening()
    assert late.ident is not None and not late.is_alive()
    assert gateway.seen == ["first", "late"]


def test_message_put_after_an_inline_delivery_is_not_stranded(env):
    # The same after a message that found the gateway idle was delivered
    # without being queued.
    gateway = _gateway(env, "m")
    late, send_late = _late_sender(gateway)
    real_deliver = gateway.deliver

    def deliver(message):
        outcome = real_deliver(message)
        send_late()
        return outcome

    gateway.deliver = deliver
    gateway.start_listening()
    gateway.enqueue_incoming(_msg("m", "recv", ["first"]))
    assert late.ident is not None and not late.is_alive()
    assert gateway.seen == ["first", "late"]


class Echo(GatewayArtifact):
    """Its first operation enqueues a second one into its own gateway."""

    def init(self, channel=None):
        super().init(channel)
        self.trace: list = []

    @operation
    def step(self, i):
        self.trace.append(("enter", i))
        if i == 0:
            self.enqueue_incoming(_msg(self.id.name, "step", [1]))
        self.trace.append(("exit", i))


def test_an_operation_enqueuing_into_its_own_gateway_gets_the_message_after_it_returns(env):
    gateway = _gateway(env, "echo", Echo)
    gateway.start_listening()
    gateway.enqueue_incoming(_msg("echo", "step", [0]))
    assert gateway.trace == [("enter", 0), ("exit", 0), ("enter", 1), ("exit", 1)]
    assert len(gateway.incoming) == 0


def test_a_message_sent_while_start_listening_runs_goes_after_those_queued(env, monkeypatch):
    # start_listening opens the gateway, starts its routes and then drains
    # what queued while it was stopped; a message arriving between the two
    # finds the gateway open and idle, but not empty.
    gateway = _gateway(env, "late")
    gateway.attach_route(env.engine.define_route("artifact:late", [], "mq:late"), engine=env.engine)
    for i in (1, 2):
        gateway.enqueue_incoming(_msg("late", "recv", [i]))
    start_route = env.engine.start_route

    def start_route_then_send(route):
        start_route(route)
        gateway.enqueue_incoming(_msg("late", "recv", [3]))

    monkeypatch.setattr(env.engine, "start_route", start_route_then_send)
    gateway.start_listening()
    assert gateway.seen == [1, 2, 3]


def test_a_router_message_is_copied_once(env, monkeypatch):
    # send_msg -> artifact:router -> mq:plant/router -> artifact:router ->
    # linked target: the topic's subscriber gets the one private copy.
    counts = {"copy": 0, "headers": 0}
    copy, copy_headers = Message.copy, messages_module._copy_headers

    def counted_copy(message):
        counts["copy"] += 1
        return copy(message)

    def counted_copy_headers(headers):
        counts["headers"] += 1
        return copy_headers(headers)

    router = _gateway(env, "router")
    router.attach_route(env.engine.define_route("artifact:router", [], "mq:plant/router"),
                        engine=env.engine)
    router.attach_route(env.engine.define_route("mq:plant/router", [], "artifact:router"))
    target = env.runtime.lookup(env.runtime.make_artifact("main", "t1", PlainRecorder, []))
    env.runtime.link_artifacts(router.id, target.id)
    router.start_listening()
    monkeypatch.setattr(Message, "copy", counted_copy)
    monkeypatch.setattr(messages_module, "_copy_headers", counted_copy_headers)
    for i in range(10):
        router.send_msg(OpRequest("t1", "recv", [i]))
    assert wait_until(lambda: len(target.seen) == 10)
    assert router.stats.forwarded == 10
    assert counts == {"copy": 10, "headers": 10}


class Slow(GatewayArtifact):
    def init(self, channel=None):
        super().init(channel)
        self.seen: list = []
        self.entered = threading.Event()
        self.release = threading.Event()

    @operation
    def work(self, i):
        if i == 0:
            self.entered.set()
            self.release.wait(10.0)
        self.seen.append(i)


def test_stop_listening_waits_for_a_running_operation_and_keeps_the_rest(env):
    gateway = _gateway(env, "slow", Slow)
    gateway.start_listening()
    first = threading.Thread(
        target=gateway.enqueue_incoming, args=(_msg("slow", "work", [0]),), daemon=True
    )
    first.start()
    assert gateway.entered.wait(5.0)
    for i in (1, 2, 3):
        gateway.enqueue_incoming(_msg("slow", "work", [i]))  # queued behind 0
    stopper = threading.Thread(target=gateway.stop_listening, daemon=True)
    stopper.start()
    stopper.join(0.2)
    assert stopper.is_alive()  # waits for operation 0
    gateway.release.set()
    stopper.join(5.0)
    first.join(5.0)
    assert not stopper.is_alive() and not first.is_alive()
    assert gateway.seen == [0]
    time.sleep(0.05)
    assert gateway.seen == [0]  # nothing delivered after stop_listening returned
    assert len(gateway.incoming) == 3
    gateway.start_listening()
    assert gateway.seen == [0, 1, 2, 3]


def test_two_gateways_forwarding_to_each_other_from_two_threads(env):
    a = _gateway(env, "a")
    b = _gateway(env, "b")
    a.start_listening()
    b.start_listening()
    count = 300

    def produce(into, to):
        for i in range(count):
            into.enqueue_incoming(_msg(to, "recv", [i]))

    threads = [
        threading.Thread(target=produce, args=(a, "b"), daemon=True),
        threading.Thread(target=produce, args=(b, "a"), daemon=True),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30.0)
    assert not any(t.is_alive() for t in threads)
    assert wait_until(lambda: len(a.seen) == count and len(b.seen) == count)
    assert a.seen == b.seen == list(range(count))
    for gateway in (a, b):
        stats = gateway.stats
        assert stats.forwarded == stats.invoked_self == count
        assert stats.dead_lettered == 0
        assert stats.dispatched == stats.forwarded + stats.dead_lettered + stats.invoked_self


class SelfStopper(GatewayArtifact):
    def init(self, channel=None):
        super().init(channel)
        self.halted = threading.Event()
        self.halted_on = ""

    @operation
    def halt(self, payload=None):
        self.stop_listening()
        self.halted_on = threading.current_thread().name
        self.halted.set()


def test_operation_stopping_its_own_gateway_does_not_wait_on_itself(env):
    gateway = _gateway(env, "direct", SelfStopper)
    gateway.start_listening()
    _run_joined(lambda: gateway.enqueue_incoming(_msg("direct", "halt", [])))
    assert gateway.halted.is_set()
    assert not gateway.started
    assert gateway.stats.invoked_self == 1


def test_operation_stopping_its_own_gateway_from_a_pool_worker(env):
    gateway = _gateway(env, "looped", SelfStopper)
    publish = env.engine.define_route("artifact:looped", [], "mq:looped")
    subscribe = env.engine.define_route("mq:looped", [], "artifact:looped")
    gateway.attach_route(publish, engine=env.engine)
    gateway.attach_route(subscribe)
    gateway.start_listening()
    gateway.send_msg(OpRequest("looped", "halt", []))
    assert gateway.halted.wait(5.0)
    assert gateway.halted_on.startswith("route-worker")
    assert wait_until(lambda: not subscribe.busy())
    assert not gateway.started
    assert gateway.stats.invoked_self == 1
    assert [r.status for r in (publish, subscribe)] == [RouteStatus.STOPPED] * 2
    # the worker is free again: a restarted gateway still gets its mail
    gateway.start_listening()
    gateway.send_msg(OpRequest("looped", "halt", []))
    assert wait_until(lambda: gateway.stats.invoked_self == 2)


class _Relay(Artifact):
    """Sends on a gateway from inside an operation."""

    @operation
    def relay(self, name):
        self.runtime.lookup(ArtifactId("main", name)).send_msg(OpRequest(name, "recv", []))


def test_a_route_made_ready_on_a_loop_runs_there_unless_inside_an_operation(env):
    gateway = _gateway(env, "fed", GatewayArtifact)
    gateway.attach_route(env.engine.define_route("artifact:fed", [], "mq:fed"), engine=env.engine)
    gateway.start_listening()
    relay = env.runtime.make_artifact("main", "relay", _Relay, [])
    ran_on = []
    env.broker.subscribe("fed").add_listener(
        lambda: ran_on.append(threading.current_thread().name))  # told on the route's thread
    loop = shared_loop.acquire()
    try:
        loop.call_soon(lambda: gateway.send_msg(OpRequest("fed", "recv", [])))
        assert wait_until(lambda: len(ran_on) == 1)
        loop.call_soon(lambda: env.runtime.exec_op(relay, OpRequest("relay", "relay", ["fed"])))
        assert wait_until(lambda: len(ran_on) == 2)
        gateway.send_msg(OpRequest("fed", "recv", []))
        assert wait_until(lambda: len(ran_on) == 3)
    finally:
        shared_loop.release()
    assert ran_on[0] == "artifact-loop"
    # Inside an operation, so under its lock: the pool runs the route.
    assert ran_on[1].startswith("route-worker")
    assert ran_on[2].startswith("route-worker")


class Paced(GatewayArtifact):
    def init(self, channel=None):
        super().init(channel)
        self.seen: list = []

    @operation
    def recv(self, payload=None):
        time.sleep(0.001)
        self.seen.append(payload)


def test_loop_through_a_small_topic_queue_neither_deadlocks_nor_loses(monkeypatch):
    # The outbound drain takes all 3 x capacity messages in one batch, while
    # the inbound drain waits parked on the same worker: before the publish
    # blocks on the full topic queue, the worker must hand that drain on.
    capacity = 4
    env = BenchEnv()
    env.broker = TopicBroker(queue_capacity=capacity)
    env.registry = standard_components(env.runtime, env.broker)
    env.engine = RoutingEngine(env.registry)
    try:
        gateway = _gateway(env, "x", Paced)
        out = env.engine.define_route("artifact:x", [], "mq:t")
        back = env.engine.define_route("mq:t", [], "artifact:x")
        gateway.attach_route(out, engine=env.engine)
        gateway.attach_route(back)
        gateway.start_listening()
        env.engine.stop_route(out)
        count = 3 * capacity
        for i in range(count):
            gateway.send_msg(OpRequest("x", "recv", [i]))
        env.engine.start_route(out)
        assert wait_until(lambda: len(gateway.seen) == count, timeout=5.0)
        assert gateway.seen == [str(i) for i in range(count)]
        assert gateway.stats.dead_lettered == 0
        assert out.stats.dead_lettered == back.stats.dead_lettered == 0
        assert back._consumer.dropped == 0
    finally:
        env.close()


def test_route_into_a_full_stopped_gateway_dead_letters_and_carries_on(env, monkeypatch):
    monkeypatch.setattr(gateway_module, "ENQUEUE_TIMEOUT_S", 0.05)
    gateway = _gateway(env, "parked")  # never listening: nothing drains it
    gateway.incoming.capacity = 2
    route = env.engine.define_route("mq:parked/in", [], "artifact:parked")
    producer = ArtifactComponent(gateway_channels(env.runtime)).create_producer(
        route.sink, route
    )
    for i in range(2):
        producer.send(_msg("parked", "recv", [i]))
    assert isinstance(_run_joined(lambda: producer.send(_msg("parked", "recv", [2]))), QueueFullError)

    env.engine.start_route(route)
    for i in range(3, 6):
        env.broker.publish("parked/in", _msg("parked", "recv", [i]))
    assert wait_until(lambda: route.stats.dead_lettered == 3)
    assert route.stats.consumed == 3 and route.stats.delivered == 0
    assert all(d.reason.startswith("DeliveryFailed") for d in route.dead_letters.entries())
    assert len(gateway.incoming) == 2


class Tally(GatewayArtifact):
    """Records (sender, seq) from a rendered "sender seq" payload and whether
    two calls ever overlapped."""

    def init(self, channel=None):
        super().init(channel)
        self.calls: list = []
        self.active = 0
        self.overlapped = False

    @operation
    def rec(self, payload):
        self.active += 1
        if self.active > 1:
            self.overlapped = True
        time.sleep(0)  # invite another thread in
        sender, seq = map(int, payload.split())
        self.calls.append((sender, seq))
        self.active -= 1


def test_senders_over_route_pairs_on_the_pool_stay_fifo_exactly_once_and_serial(env):
    gateways = []
    for i in range(6):
        gateway = _gateway(env, f"g{i}", Tally)
        out = env.engine.define_route(f"artifact:g{i}", [], f"mq:g{i}")
        back = env.engine.define_route(f"mq:g{i}", [], f"artifact:g{i}")
        gateway.attach_route(out, engine=env.engine)
        gateway.attach_route(back)
        gateway.start_listening()
        gateways.append(gateway)
    senders, per_sender = 4, 100

    def send(sender):
        for seq in range(per_sender):
            for gateway in gateways:
                gateway.send_msg(OpRequest(gateway.id.name, "rec", [sender, seq]))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=send, args=(s,), daemon=True) for s in range(senders)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not any(t.is_alive() for t in threads)
        done = wait_until(
            lambda: all(len(g.calls) == senders * per_sender for g in gateways), timeout=30.0
        )
    finally:
        sys.setswitchinterval(old_interval)
    assert done
    for gateway in gateways:
        for sender in range(senders):
            assert [q for s, q in gateway.calls if s == sender] == list(range(per_sender))
        assert not gateway.overlapped
        assert gateway.stats.dead_lettered == 0
    workers = [t for t in threading.enumerate() if t.name.startswith("route-worker")]
    assert 1 <= len(workers) <= 12  # never more workers than routes


def test_channel_producer_resolution_order(env):
    h1 = _gateway(env, "h1", Recorder, ["hub"])
    h2 = _gateway(env, "h2", Recorder, ["hub"])
    solo = _gateway(env, "solo", Recorder, ["lone"])
    component = ArtifactComponent(gateway_channels(env.runtime))
    owned = env.engine.define_route("mq:x", [], "artifact:hub")
    h2.attach_route(owned, engine=env.engine)
    foreign = env.engine.define_route("artifact:lone", [], "artifact:hub")
    solo.attach_route(foreign, engine=env.engine)

    def lands(route, uri, headers):
        producer = component.create_producer(parse_endpoint_uri(uri), route)
        before = {g.id.name: len(g.incoming) for g in (h1, h2, solo)}
        producer.send(Message(headers=dict(headers), body=[]))
        return [g.id.name for g in (h1, h2, solo) if len(g.incoming) > before[g.id.name]]

    op = {OPERATION_NAME_HEADER: "recv"}
    # the gateway the header names comes first, even over the route's owner
    assert lands(owned, "artifact:hub", {ARTIFACT_NAME_HEADER: "h1", **op}) == ["h1"]
    # then the owner of the producing route, when it serves this channel
    assert lands(owned, "artifact:hub", {ARTIFACT_NAME_HEADER: "t9", **op}) == ["h2"]
    assert lands(owned, "artifact:hub", op) == ["h2"]
    # an owner on another channel does not count; two gateways and no match
    with pytest.raises(DeliveryError):
        lands(foreign, "artifact:hub", {ARTIFACT_NAME_HEADER: "t9", **op})
    # then the channel's only gateway
    assert lands(None, "artifact:lone", {ARTIFACT_NAME_HEADER: "t9", **op}) == ["solo"]
    with pytest.raises(DeliveryError):
        lands(None, "artifact:hub", op)


def test_disposed_gateways_leave_no_route_channel_or_subscriber_behind(env, monkeypatch):
    from artifact.endpoints import broker as broker_module

    monkeypatch.setattr(broker_module, "ENQUEUE_TIMEOUT_S", 0.2)
    registry = gateway_channels(env.runtime)
    ids = []
    routes = []
    for i in range(3):
        aid = env.runtime.make_artifact("main", f"gone{i}", Recorder, [])
        gateway = env.runtime.lookup(aid)
        gateway.attach_route(env.engine.define_route(f"artifact:gone{i}", [], "mq:gone"),
                             engine=env.engine)
        gateway.attach_route(env.engine.define_route("mq:gone", [], f"artifact:gone{i}"))
        gateway.start_listening()
        ids.append(aid)
        routes += gateway.routes
    for i, aid in enumerate(ids):  # each reaches every gateway through the topic
        env.runtime.lookup(aid).send_msg(OpRequest(f"gone{i}", "recv", ["hi"]))
    assert wait_until(lambda: all(env.runtime.lookup(aid).seen == ["hi"] * 3 for aid in ids))
    for aid in ids:
        env.runtime.dispose_artifact(aid)
    assert all(route.owner is None for route in routes)
    assert registry._channels == {}
    assert env.engine.routes() == []
    assert env.broker._topic("gone").subscribers == []
    for i in range(2000):  # none waits for a subscription nobody reads
        started = time.monotonic()
        env.broker.publish("gone", Message(body=[i]))
        assert time.monotonic() - started < 0.1
