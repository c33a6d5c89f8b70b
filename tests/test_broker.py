from __future__ import annotations

import threading

import pytest

from artifact import (
    ARTIFACT_NAME_HEADER,
    OPERATION_NAME_HEADER,
    GatewayArtifact,
    Message,
    RoutingEngine,
    Runtime,
    SetHeader,
    operation,
)
from artifact.endpoints import TopicBroker, standard_components
from artifact.endpoints import broker as broker_module
from artifact.errors import BrokerStoppedError

from conftest import wait_until


@pytest.fixture
def broker():
    b = TopicBroker()
    yield b
    b.stop()


def test_single_subscriber_receives_all_in_order(broker):
    sub = broker.subscribe("t")
    for i in range(100):
        assert broker.publish("t", Message(body=[i])) == 1
    got = [sub.poll(1.0).body[0] for _ in range(100)]
    assert got == list(range(100))


def test_three_subscribers_each_receive_ten(broker):
    subs = [broker.subscribe("t") for _ in range(3)]
    for i in range(10):
        assert broker.publish("t", Message(body=[i])) == 3
    for sub in subs:
        got = [sub.poll(1.0).body[0] for _ in range(10)]
        assert got == list(range(10))
    assert broker.delivered == 30


def test_publish_without_subscribers_drops(broker):
    assert broker.publish("empty", Message(body=["x"])) == 0
    sub = broker.subscribe("empty")
    assert sub.poll(0.05) is None  # no retention


def test_subscribers_get_private_copies(broker):
    a = broker.subscribe("t")
    b = broker.subscribe("t")
    broker.publish("t", Message(headers={"k": [1]}, body=[1]))
    got_a = a.poll(1.0)
    got_b = b.poll(1.0)
    got_a.headers["k"].append(2)
    assert got_b.headers["k"] == [1]


def test_list_headers_stay_private_through_copies_and_publish(broker):
    original = Message(headers={"k": [1, [2]], "s": "v"}, body="text")
    copy = original.copy()
    copy.headers["k"].append(3)
    copy.headers["k"][1].append(4)
    sub = broker.subscribe("t")
    broker.publish("t", original)
    got = sub.poll(1.0)
    got.headers["k"].append(5)
    got.headers["k"][1].append(6)
    assert original.headers == {"k": [1, [2]], "s": "v"}


def test_stopped_broker_rejects(broker):
    broker.stop()
    with pytest.raises(BrokerStoppedError):
        broker.publish("t", Message())
    with pytest.raises(BrokerStoppedError):
        broker.subscribe("t")


def test_unsubscribe_stops_delivery(broker):
    sub = broker.subscribe("t")
    broker.unsubscribe(sub)
    assert broker.publish("t", Message(body=["x"])) == 0


def test_concurrent_publishers_one_total_order(broker):
    subs = [broker.subscribe("t") for _ in range(2)]
    per_publisher = 200

    def publish(tag):
        for i in range(per_publisher):
            broker.publish("t", Message(body=[f"{tag}:{i}"]))

    threads = [threading.Thread(target=publish, args=(t,)) for t in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    streams = []
    for sub in subs:
        got = [sub.poll(1.0).body[0] for _ in range(2 * per_publisher)]
        assert len(got) == len(set(got))  # no duplicates
        streams.append(got)
    # identical interleaving for every subscriber, each publisher's order kept
    assert streams[0] == streams[1]
    for tag in ("a", "b"):
        seq = [int(x.split(":")[1]) for x in streams[0] if x.startswith(tag)]
        assert seq == list(range(per_publisher))


class Recorder(GatewayArtifact):
    def init(self, channel=None):
        super().init(channel)
        self.seen: list = []

    @operation
    def recv(self, payload=None):
        self.seen.append(payload)


def test_a_full_subscriber_is_skipped_after_the_deadline(monkeypatch):
    monkeypatch.setattr(broker_module, "ENQUEUE_TIMEOUT_S", 0.05)
    runtime = Runtime()
    broker = TopicBroker(queue_capacity=2)
    engine = RoutingEngine(standard_components(runtime, broker))
    try:
        rec = runtime.lookup(runtime.make_artifact("main", "rec", Recorder, []))
        route = engine.define_route(
            "mq:fan",
            [SetHeader(ARTIFACT_NAME_HEADER, "rec"), SetHeader(OPERATION_NAME_HEADER, "recv")],
            "artifact:rec",
        )
        rec.attach_route(route, engine=engine)
        tap = broker.subscribe("fan")  # never polled
        rec.start_listening()
        count = 6
        publisher = threading.Thread(
            target=lambda: [broker.publish("fan", Message(body=[i])) for i in range(count)],
            daemon=True,
        )
        publisher.start()
        publisher.join(10.0)
        assert not publisher.is_alive()
        assert wait_until(lambda: len(rec.seen) == count)
        assert rec.seen == list(range(count))
        assert tap.dropped == count - 2
        assert route._consumer.dropped == 0
        assert [tap.poll(0.0).body for _ in range(2)] == [[0], [1]]
    finally:
        engine.shutdown()
        broker.stop()
        runtime.shutdown()


def test_removing_one_of_two_routes_publishing_to_a_topic_leaves_the_other_delivering():
    runtime = Runtime()
    broker = TopicBroker()
    engine = RoutingEngine(standard_components(runtime, broker))
    try:
        a = engine.define_route("mq:a", [], "mq:t")
        b = engine.define_route("mq:b", [], "mq:t")
        reader = engine.define_route("mq:t", [], "mq:out")
        tap = broker.subscribe("out")
        for route in (a, b, reader):
            engine.start_route(route)
        assert a._producer is b._producer  # both routes send through the one topic
        engine.remove_route(a)
        count = 50
        for i in range(count):
            broker.publish("b", Message(body=[i]))
        assert wait_until(lambda: len(tap) >= count)
        assert [tap.poll(0.0).body for _ in range(count)] == [str(i) for i in range(count)]
        assert tap.poll(0.2) is None  # and each arrived once
        assert reader.stats.delivered == count
    finally:
        engine.shutdown()
        broker.stop()
        runtime.shutdown()
