"""In-process topic broker with exactly-once, in-order delivery per subscriber.

The "mq:" endpoint scheme publishes to and subscribes from broker topics.
The producer side renders the message body to its canonical wire text before
publishing; headers travel with the message in-process. Without subscribers a
published message is dropped (no retention).
"""
from __future__ import annotations

import itertools
import logging
import threading

from ..errors import BrokerStoppedError
from ..messages import Message
from ..routing import (
    DEFAULT_QUEUE_CAPACITY,
    Component,
    Consumer,
    MessageQueue,
    Producer,
    Route,
)
from ..uri import EndpointUri
from ..values import render_value

log = logging.getLogger(__name__)

_WAKE = object()


class Subscription:
    """One subscriber's FIFO stream over a topic."""

    def __init__(self, broker: "TopicBroker", topic: str, sub_id: int, capacity: int):
        self._broker = broker
        self.topic = topic
        self.sub_id = sub_id
        self.queue = MessageQueue(capacity, f"mq:{topic}#{sub_id}")
        self.received = 0

    def poll(self, timeout: float = 0.0) -> Message | None:
        item = self.queue.get(timeout=timeout)
        if isinstance(item, Message):
            self.received += 1
            return item
        return None

    def wake(self) -> None:
        self.queue.force_put(_WAKE)

    def close(self) -> None:
        self._broker.unsubscribe(self)


class _Topic:
    def __init__(self, name: str):
        self.name = name
        self.lock = threading.Lock()
        self.subscribers: list[Subscription] = []


class TopicBroker:
    """Topics are created on first use; publishing fans out one copy per
    subscriber under the topic lock, so all subscribers observe one order."""

    def __init__(self, queue_capacity: int = DEFAULT_QUEUE_CAPACITY):
        self._topics: dict[str, _Topic] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._capacity = queue_capacity
        self._stopped = False
        self.published = 0
        self.delivered = 0

    def _topic(self, name: str) -> _Topic:
        with self._lock:
            if name not in self._topics:
                self._topics[name] = _Topic(name)
            return self._topics[name]

    def subscribe(self, topic: str) -> Subscription:
        if self._stopped:
            raise BrokerStoppedError(topic)
        t = self._topic(topic)
        sub = Subscription(self, topic, next(self._ids), self._capacity)
        with t.lock:
            t.subscribers.append(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        t = self._topic(sub.topic)
        with t.lock:
            if sub in t.subscribers:
                t.subscribers.remove(sub)
        sub.queue.close()

    def subscriber_count(self, topic: str) -> int:
        t = self._topic(topic)
        with t.lock:
            return len(t.subscribers)

    def publish(self, topic: "str | _Topic", message: Message) -> int:
        """Deliver one copy to each current subscriber; returns the count.

        `topic` is a topic name or a `_Topic` this broker made; topics are
        never removed, so a producer may keep one instead of the name.
        """
        t = topic if isinstance(topic, _Topic) else self._topic(topic)
        if self._stopped:
            raise BrokerStoppedError(t.name)
        delivered = 0
        with t.lock:
            for sub in t.subscribers:
                sub.queue.put(message.copy())
                delivered += 1
        with self._lock:
            self.published += 1
            self.delivered += delivered
        return delivered

    def stop(self) -> None:
        self._stopped = True
        with self._lock:
            topics = list(self._topics.values())
        for t in topics:
            with t.lock:
                for sub in t.subscribers:
                    sub.queue.close()
                t.subscribers.clear()

    @property
    def stopped(self) -> bool:
        return self._stopped


# ---------------------------------------------------------------------------
# "mq:" endpoint component


class _MqConsumer(Consumer):
    def __init__(self, subscription: Subscription):
        self._sub = subscription

    def poll(self, timeout: float) -> Message | None:
        return self._sub.poll(timeout)

    def wake(self) -> None:
        self._sub.wake()

    def close(self) -> None:
        self._sub.close()


class _MqProducer(Producer):
    def __init__(self, broker: TopicBroker, topic: str):
        self._broker = broker
        self._topic = broker._topic(topic)

    def send(self, message: Message) -> None:
        self._broker.publish(self._topic, message.with_body(render_value(message.body)))


class MqComponent(Component):
    def __init__(self, broker: TopicBroker):
        self.broker = broker

    def validate(self, uri: EndpointUri, side: str) -> None:
        if not uri.path:
            raise ValueError("mq endpoint needs a topic name: mq:<topic>")

    def create_consumer(self, uri: EndpointUri, route: Route) -> Consumer:
        return _MqConsumer(self.broker.subscribe(uri.path))

    def create_producer(self, uri: EndpointUri, route: Route) -> Producer:
        return _MqProducer(self.broker, uri.path)
