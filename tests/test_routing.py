from __future__ import annotations

import logging
import sys
import threading
import time

import pytest

from artifact import Message, RouteStatus, Runtime, SetHeader, Transform, parse_expr, process
from artifact.endpoints import TopicBroker, standard_components
from artifact.endpoints import broker as broker_module
from artifact.errors import (
    InvalidTransitionError,
    ProcessorEvalError,
    QueueClosedError,
    QueueFullError,
    UnknownSchemeError,
    UnsupportedEndpointRoleError,
)
from artifact.routing import (
    Component,
    Consumer,
    Inbox,
    Mailbox,
    MessageQueue,
    Producer,
    RoutingEngine,
)

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


def test_a_route_reads_no_dead_letters_without_making_a_queue(env):
    route = env.engine.define_route("mq:ok/in", [], "mq:ok/out")
    env.engine.start_route(route)
    tap = env.broker.subscribe("ok/out")
    env.broker.publish("ok/in", Message(body=[1]))
    assert tap.poll(2.0).body == "1"
    assert wait_until(lambda: route.stats.delivered == 1)
    assert len(route.dead_letters) == 0 and route.dead_letters.entries() == []
    assert route.dead_letters.total == 0 and env.dead_letter_total() == 0
    assert route._dead_letter_queue is None  # made with the first dead letter


def test_a_routes_first_dead_letter_shows_everywhere(env):
    route = env.engine.define_route("mq:bad/in", [Transform(parse_expr("1 / 0"))], "mq:bad/out")
    env.engine.start_route(route)
    env.broker.publish("bad/in", Message(body=[1]))
    assert wait_until(lambda: env.dead_letter_total() == 1)
    assert len(route.dead_letters) == 1 and route.dead_letters.total == 1
    assert "ProcessorEvalError" in route.dead_letters.entries()[0].reason


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


def test_a_full_source_queue_holds_up_neither_stop_nor_restart(monkeypatch):
    monkeypatch.setattr(broker_module, "ENQUEUE_TIMEOUT_S", 0.05)
    broker = TopicBroker(queue_capacity=2)
    runtime = Runtime()
    engine = RoutingEngine(standard_components(runtime, broker))
    try:
        route = engine.define_route("mq:full/in", [], "mq:full/out")
        tap = broker.subscribe("full/out")
        engine.start_route(route)
        engine.stop_route(route)
        for i in range(3):
            broker.publish("full/in", Message(body=[i]))
        assert route._consumer.dropped == 1  # the third found no room
        started = time.monotonic()
        engine.start_route(route)
        assert [tap.poll(2.0).body for _ in range(2)] == ["0", "1"]
        engine.stop_route(route)
        assert time.monotonic() - started < 1.0
    finally:
        engine.shutdown()
        broker.stop()
        runtime.shutdown()


def test_message_queue_stress_with_short_timeouts_is_exactly_once():
    q = MessageQueue(capacity=2)
    putters, getters, per_putter = 4, 4, 400
    received: list = []
    lock = threading.Lock()
    putting_done = threading.Event()

    def put_all(p):
        for i in range(per_putter):
            while True:
                try:
                    q.put((p, i), timeout=0.001)
                    break
                except QueueFullError:
                    pass

    def get_all():
        while True:
            item = q.get(timeout=0.001)
            if item is not None:
                with lock:
                    received.append(item)
            elif putting_done.is_set() and len(q) == 0:
                return

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        put_threads = [threading.Thread(target=put_all, args=(p,)) for p in range(putters)]
        get_threads = [threading.Thread(target=get_all) for _ in range(getters)]
        for t in put_threads + get_threads:
            t.start()
        for t in put_threads:
            t.join(30.0)
        putting_done.set()
        for t in get_threads:
            t.join(30.0)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in put_threads + get_threads)
    assert sorted(received) == [(p, i) for p in range(putters) for i in range(per_putter)]


def test_message_queue_blocked_getters_and_putters_are_never_stranded():
    # Capacity 1 makes getters and putters block in turn; with 10 s timeouts a
    # lost or misdirected wake-up stalls the exchange past the 5 s deadline.
    q = MessageQueue(capacity=1)
    got: list = []
    lock = threading.Lock()

    def take():
        for _ in range(50):
            item = q.get(timeout=10.0)
            with lock:
                got.append(item)

    def give(p):
        for i in range(50):
            q.put((p, i), timeout=10.0)

    threads = [threading.Thread(target=take, daemon=True) for _ in range(4)]
    threads += [threading.Thread(target=give, args=(p,), daemon=True) for p in range(4)]
    deadline = time.monotonic() + 5.0
    for t in threads:
        t.start()
    for t in threads:
        t.join(max(0.0, deadline - time.monotonic()))
    assert not any(t.is_alive() for t in threads)
    assert None not in got
    assert sorted(got) == [(p, i) for p in range(4) for i in range(50)]


def test_message_queue_close_wakes_every_waiter():
    empty = MessageQueue(capacity=1)
    full = MessageQueue(capacity=1)
    full.put("x")
    results: list = []

    def getter():
        results.append(("get", empty.get(timeout=10.0)))

    def putter():
        try:
            full.put("y", timeout=10.0)
            results.append(("put", "accepted"))
        except QueueClosedError:
            results.append(("put", "closed"))

    threads = [threading.Thread(target=f, daemon=True) for f in (getter, putter) for _ in range(3)]
    for t in threads:
        t.start()
    time.sleep(0.2)  # let every thread block
    empty.close()
    full.close()
    deadline = time.monotonic() + 5.0
    for t in threads:
        t.join(max(0.0, deadline - time.monotonic()))
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == [("get", None)] * 3 + [("put", "closed")] * 3


def _start(target) -> threading.Thread:
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


def test_a_queue_that_never_waits_makes_no_condition():
    q = MessageQueue(capacity=1)
    q.put("a")
    with pytest.raises(QueueFullError):
        q.put("b", timeout=0.0)
    assert q.try_get() == "a"
    assert q.get(timeout=0.0) is None
    q.close()
    assert (q._not_empty, q._not_full) == (None, None)


def test_the_first_waiters_of_a_queue_are_woken_by_the_other_side():
    q = MessageQueue(capacity=1)
    got: list = []
    getter = _start(lambda: got.append(q.get(timeout=10.0)))
    assert wait_until(lambda: q._getters == 1)
    q.put("a")  # wakes the getter
    getter.join(5.0)
    assert not getter.is_alive() and got == ["a"]

    q.put("b")
    putter = _start(lambda: q.put("c", timeout=10.0))
    assert wait_until(lambda: q._putters == 1)
    assert q.get() == "b"  # wakes the putter
    putter.join(5.0)
    assert not putter.is_alive() and q.try_get() == "c"


@pytest.mark.parametrize("waiting", ["nobody", "getter", "putter"])
def test_close_wakes_one_side_while_the_other_has_no_condition(waiting):
    empty = MessageQueue(capacity=1)
    full = MessageQueue(capacity=1)
    full.put("x")
    results: list = []

    def getter():
        results.append(("get", empty.get(timeout=10.0)))

    def putter():
        try:
            full.put("y", timeout=10.0)
        except QueueClosedError:
            results.append(("put", "closed"))

    threads = []
    if waiting == "getter":
        threads.append(_start(getter))
        assert wait_until(lambda: empty._getters == 1)
    if waiting == "putter":
        threads.append(_start(putter))
        assert wait_until(lambda: full._putters == 1)
    empty.close()
    full.close()
    for t in threads:
        t.join(5.0)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == len(threads)
    # A thread that comes after the close does not block either.
    getter()
    putter()
    assert results[-2:] == [("get", None), ("put", "closed")]


def test_an_inbox_that_stays_full_drops_at_once_until_it_has_room(caplog):
    inbox = Inbox(capacity=1, name="t")
    inbox.push("a")

    def timed_push(item) -> float:
        started = time.monotonic()
        inbox.push(item)
        return time.monotonic() - started

    def warnings() -> int:
        return len([r for r in caplog.records if "is full" in r.getMessage()])

    with caplog.at_level(logging.WARNING, logger="artifact.routing"):
        assert sum(timed_push(i) for i in range(20)) < 0.1  # each dropped at once
        assert inbox.dropped == 20 and warnings() == 1
        assert inbox.try_get() == "a"
        assert timed_push("c") < 0.1  # it has room again
        assert timed_push("d") < 0.1
        assert inbox.dropped == 21 and warnings() == 2  # a new run of drops
    assert inbox.try_get() == "c"


def test_an_inbox_pushed_by_two_threads_never_waits_and_warns_once(caplog):
    inbox = Inbox(capacity=1, name="t")
    inbox.push("a")
    barrier = threading.Barrier(2)

    def push_many() -> None:
        barrier.wait()
        for i in range(20):
            inbox.push(i)

    started = time.monotonic()
    with caplog.at_level(logging.WARNING, logger="artifact.routing"):
        pushers = [_start(push_many) for _ in range(2)]
        for t in pushers:
            t.join(5.0)
    assert not any(t.is_alive() for t in pushers)
    assert time.monotonic() - started < 0.5
    assert inbox.dropped == 40
    assert len([r for r in caplog.records if "is full" in r.getMessage()]) == 1
    assert inbox.try_get() == "a"


class _StuckProducer(Producer):
    """Blocks in send until released."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.sent: list = []

    def send(self, message):
        self.entered.set()
        self.release.wait(10.0)
        self.sent.append(message.body)


class _StuckComponent(Component):
    def __init__(self, producer):
        self.producer = producer

    def create_producer(self, uri, route):
        return self.producer


def test_stop_route_that_does_not_exit_stays_started(env):
    # The drain is stuck in its producer, which stop_route must wait for.
    producer = _StuckProducer()
    env.registry.register("stuck", _StuckComponent(producer))
    route = env.engine.define_route("mq:stuck/in", [], "stuck:x")
    env.engine.start_route(route)
    env.broker.publish("stuck/in", Message(body=[1]))
    assert producer.entered.wait(5.0)
    with pytest.raises(InvalidTransitionError):
        env.engine.stop_route(route, join_timeout=0.1)
    assert route.status == RouteStatus.STARTED
    with pytest.raises(InvalidTransitionError):
        env.engine.start_route(route)  # no second drain of the same route
    env.broker.publish("stuck/in", Message(body=[2]))  # the stopping route leaves it
    producer.release.set()
    env.engine.stop_route(route, join_timeout=5.0)
    assert route.status == RouteStatus.STOPPED
    assert producer.sent == [[1]]
    assert len(route._consumer) == 1
    assert wait_until(lambda: not route.busy())


# ---------------------------------------------------------------------------
# what a route hands its producer


class _HandOver(Consumer, Producer):
    """Source and sink at once: hands out the messages pushed to it and
    keeps each one it handed out, and each one it was sent."""

    def __init__(self):
        self.inbox = Inbox()
        self.handed: list = []
        self.sent: list = []
        self._mailbox = None

    def start(self, mailbox):
        self._mailbox = mailbox
        self.inbox.add_listener(mailbox.ready)

    def stop(self):
        self.inbox.remove_listener(self._mailbox.ready)

    def try_get(self):
        message = self.inbox.try_get()
        if message is not None:
            self.handed.append(message)
        return message

    def __len__(self):
        return len(self.inbox)

    def send(self, message):
        self.sent.append(message)


class _HandOverComponent(Component):
    def __init__(self, endpoint):
        self.endpoint = endpoint

    def create_consumer(self, uri, route):
        return self.endpoint

    def create_producer(self, uri, route):
        return self.endpoint


def _hand_over_route(env, processors):
    endpoint = _HandOver()
    env.registry.register("hand", _HandOverComponent(endpoint))
    route = env.engine.define_route("hand:in", processors, "hand:out")
    env.engine.start_route(route)
    return endpoint


def test_an_empty_chain_passes_the_consumers_message_on(env):
    endpoint = _hand_over_route(env, [])
    endpoint.inbox.push(Message(headers={"k": "v"}, body=[1]))
    assert wait_until(lambda: len(endpoint.sent) == 1)
    assert endpoint.sent[0] is endpoint.handed[0]


def test_a_chain_leaves_its_source_message_unchanged(env):
    endpoint = _hand_over_route(
        env, [SetHeader("k", "new"), Transform(parse_expr("request.body[0] * 2"))]
    )
    endpoint.inbox.push(Message(headers={"k": "old", "hops": ["a"]}, body=[3]))
    assert wait_until(lambda: len(endpoint.sent) == 1)
    source, out = endpoint.handed[0], endpoint.sent[0]
    assert out is not source and out.headers["hops"] is not source.headers["hops"]
    assert (out.headers["k"], out.body) == ("new", 6.0)
    assert source.headers == {"k": "old", "hops": ["a"]} and source.body == [3]


# ---------------------------------------------------------------------------
# Mailbox.offer


def _box(handled: list) -> tuple[Mailbox, MessageQueue]:
    queue = MessageQueue(name="box")
    return Mailbox(queue, lambda message: handled.append(message.body)), queue


def test_an_offered_message_goes_after_those_already_queued():
    handled: list = []
    box, queue = _box(handled)
    box.offer(Message(body=1))  # queued: the box is closed
    queue.put(Message(body=2))
    box.open = True
    box.offer(Message(body=3))
    assert handled == [1, 2, 3]
    box.offer(Message(body=4))  # open, idle and empty: delivered at once
    assert handled == [1, 2, 3, 4] and len(queue) == 0


def test_a_message_offered_as_the_mailbox_closes_stays_queued():
    handled: list = []
    box, queue = _box(handled)
    box.open = True
    claim = box.claim

    def claim_then_close():
        won = claim()
        box.open = False  # a stop between the claim and the delivery
        return won

    box.claim = claim_then_close
    box.offer(Message(body=1))
    assert handled == []
    assert len(queue) == 1
    assert not box.busy() and box.drainer is None
