"""In-process topic broker with exactly-once, in-order delivery per subscriber.

The "mq:" endpoint scheme publishes to and subscribes from broker topics.
The producer side renders the message body to its canonical wire text before
publishing; headers travel with the message in-process, copied once per
subscriber by the publish. Publishing takes only the topic's lock. Without
subscribers a published message is dropped (no retention). A subscriber
that stays full for ENQUEUE_TIMEOUT_S misses the message, counted in its
`dropped`.
A subscription is an :class:`~artifact.routing.Inbox`: its listeners hear of
each message it receives. It is also the "mq:" consumer, which adds its route
to those listeners and unsubscribes when closed; a topic is the "mq:"
producer of every route that publishes to it.
"""
from __future__ import annotations

import itertools
import logging
import threading

from ..errors import BrokerStoppedError, QueueFullError
from ..messages import Message
from ..routing import (
    DEFAULT_QUEUE_CAPACITY,
    ENQUEUE_TIMEOUT_S,
    Component,
    Consumer,
    Inbox,
    Producer,
    Route,
)
from ..uri import EndpointUri
from ..values import render_value

log = logging.getLogger(__name__)


class Subscription(Inbox, Consumer):
    """One subscriber's FIFO stream over a topic, and its route's source. Its
    `dropped` counts the messages skipped because it stayed full."""

    def __init__(self, broker: "TopicBroker", topic: str, sub_id: int, capacity: int):
        super().__init__(capacity, f"mq:{topic}#{sub_id}")
        self._broker = broker
        self.topic = topic
        self.sub_id = sub_id

    def poll(self, timeout: float = 0.0) -> Message | None:
        """The next message, waiting up to `timeout` seconds; None if none."""
        return self.get(timeout=timeout)

    def close(self) -> None:
        """Unsubscribe, and end the stream."""
        self._broker.unsubscribe(self)


class _Topic(Producer):
    """A topic, and the "mq:" producer of every route publishing to it;
    `close` stays a no-op, as those routes share it."""

    def __init__(self, broker: "TopicBroker", name: str):
        self._broker = broker
        self.name = name
        self.lock = threading.Lock()
        self.subscribers: list[Subscription] = []
        # guarded by `lock`, which every publish to the topic holds anyway
        self.published = 0
        self.delivered = 0

    def send(self, message: Message) -> None:
        # publish gives each subscriber its own copy, headers included.
        self._broker.publish(self, Message(message.headers, render_value(message.body)))


class TopicBroker:
    """Topics are created on first use; publishing fans out one copy per
    subscriber under the topic lock, so all subscribers observe one order."""

    def __init__(self, queue_capacity: int = DEFAULT_QUEUE_CAPACITY):
        self._topics: dict[str, _Topic] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._capacity = queue_capacity
        self._stopped = False

    def _topic(self, name: str) -> _Topic:
        # Topics are never removed, so only the first use takes the lock.
        t = self._topics.get(name)
        if t is None:
            with self._lock:
                t = self._topics.get(name)
                if t is None:
                    t = self._topics[name] = _Topic(self, name)
        return t

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
        Inbox.close(sub)

    def publish(self, topic: "str | _Topic", message: Message) -> int:
        """Deliver one copy to each current subscriber; returns the count.

        `topic` is a topic name or a `_Topic` this broker made; topics are
        never removed, so a producer may keep one instead of the name.
        """
        t = topic if isinstance(topic, _Topic) else self._topic(topic)
        if self._stopped:
            raise BrokerStoppedError(t.name)
        delivered = []
        with t.lock:
            for sub in t.subscribers:
                try:
                    sub.put(message.copy(), timeout=ENQUEUE_TIMEOUT_S)
                except QueueFullError:
                    with sub._lock:
                        sub.dropped += 1
                    log.warning(
                        "mq:%s subscriber %d full for %.1fs; message skipped",
                        t.name, sub.sub_id, ENQUEUE_TIMEOUT_S,
                    )
                    continue
                delivered.append(sub)
            t.published += 1
            t.delivered += len(delivered)
        # Told outside the topic lock: a listener that drains on this thread
        # may publish to the same topic.
        for sub in delivered:
            sub.notify_listeners()
        return len(delivered)

    @property
    def published(self) -> int:
        """Messages published, over all topics."""
        return sum(t.published for t in self._all_topics())

    @property
    def delivered(self) -> int:
        """Copies handed to subscribers, over all topics."""
        return sum(t.delivered for t in self._all_topics())

    def _all_topics(self) -> list[_Topic]:
        with self._lock:
            return list(self._topics.values())

    def stop(self) -> None:
        self._stopped = True
        for t in self._all_topics():
            with t.lock:
                for sub in t.subscribers:
                    Inbox.close(sub)
                t.subscribers.clear()

    @property
    def stopped(self) -> bool:
        return self._stopped


# ---------------------------------------------------------------------------
# "mq:" endpoint component


class MqComponent(Component):
    def __init__(self, broker: TopicBroker):
        self.broker = broker

    def validate(self, uri: EndpointUri, side: str) -> None:
        if not uri.path:
            raise ValueError("mq endpoint needs a topic name: mq:<topic>")

    def create_consumer(self, uri: EndpointUri, route: Route) -> Consumer:
        return self.broker.subscribe(uri.path)

    def create_producer(self, uri: EndpointUri, route: Route) -> Producer:
        return self.broker._topic(uri.path)
