"""EIP-style route definitions and execution.

A route takes messages from a consumer endpoint, applies an ordered processor
chain, and hands them to a producer endpoint. Endpoint components are
registered by URI scheme. Every started route runs its own consumption loop;
a message whose processing or delivery fails moves to the route's dead-letter
queue with the error attached.
"""
from __future__ import annotations

import itertools
import logging
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .errors import (
    EvalError,
    InvalidTransitionError,
    ProcessorEvalError,
    QueueClosedError,
    QueueFullError,
    UnknownSchemeError,
    UnsupportedEndpointRoleError,
)
from .exprlang import Expr, eval_expr
from .messages import Message
from .uri import EndpointUri, parse_endpoint_uri
from .values import Value, copy_value, is_value

log = logging.getLogger(__name__)

DEFAULT_QUEUE_CAPACITY = 1024
_ROUTE_POLL_S = 0.05


# ---------------------------------------------------------------------------
# bounded FIFO queue


class MessageQueue:
    """Bounded multi-producer/multi-consumer FIFO with blocking put/get."""

    def __init__(self, capacity: int = DEFAULT_QUEUE_CAPACITY, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self._items: deque = deque()
        self._cond = threading.Condition()
        self._closed = False

    def put(self, item, timeout: float | None = None) -> None:
        """Append; blocks while full. QueueFullError after `timeout` seconds."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while len(self._items) >= self.capacity:
                if self._closed:
                    raise QueueClosedError(self.name)
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        raise QueueFullError(self.name)
            if self._closed:
                raise QueueClosedError(self.name)
            self._items.append(item)
            self._cond.notify_all()

    def force_put(self, item) -> None:
        """Append ignoring capacity (control items such as stop sentinels)."""
        with self._cond:
            self._items.append(item)
            self._cond.notify_all()

    def get(self, timeout: float | None = None):
        """Pop the oldest item or return None on timeout / when closed empty."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._items:
                if self._closed:
                    return None
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        return None
            item = self._items.popleft()
            self._cond.notify_all()
            return item

    def try_get(self):
        with self._cond:
            if not self._items:
                return None
            item = self._items.popleft()
            self._cond.notify_all()
            return item

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)


# ---------------------------------------------------------------------------
# dead letters


@dataclass(frozen=True)
class DeadLetter:
    message: Message
    reason: str
    error: Exception | None
    at: float


class DeadLetterQueue:
    """Capacity-bounded terminal holding area; oldest entries drop on overflow."""

    def __init__(self, capacity: int = DEFAULT_QUEUE_CAPACITY):
        self._entries: deque[DeadLetter] = deque()
        self._capacity = capacity
        self._lock = threading.Lock()
        self.dropped = 0
        self.total = 0

    def add(self, message: Message, reason: str, error: Exception | None = None) -> DeadLetter:
        entry = DeadLetter(message, reason, error, time.monotonic())
        with self._lock:
            if len(self._entries) >= self._capacity:
                self._entries.popleft()
                self.dropped += 1
            self._entries.append(entry)
            self.total += 1
        return entry

    def entries(self) -> list[DeadLetter]:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


# ---------------------------------------------------------------------------
# processors


@dataclass(frozen=True)
class Transform:
    """Replace the message body with the evaluated expression result."""

    expr: Expr


@dataclass(frozen=True)
class SetHeader:
    """Set a header to a constant value or to an evaluated expression."""

    key: str
    value: Expr | Value


Processor = Transform | SetHeader


def process(message: Message, processors: Iterable[Processor]) -> Message:
    """Apply processors left-to-right to a private copy of the message."""
    out = message.copy()
    for index, proc in enumerate(processors):
        try:
            if isinstance(proc, Transform):
                out.body = eval_expr(proc.expr, out)
            elif isinstance(proc, SetHeader):
                if isinstance(proc.value, Expr):
                    out.headers[proc.key] = eval_expr(proc.value, out)
                else:
                    out.headers[proc.key] = copy_value(proc.value)
            else:
                raise TypeError(f"not a processor: {proc!r}")
        except EvalError as exc:
            raise ProcessorEvalError(index, exc) from exc
    return out


# ---------------------------------------------------------------------------
# endpoint component protocol


class Consumer:
    """Route source; poll returns the next message or None on timeout."""

    def poll(self, timeout: float) -> Message | None:
        raise NotImplementedError

    def wake(self) -> None:
        """Interrupt a blocked poll (used when the route stops)."""

    def close(self) -> None:
        pass


class Producer:
    """Route sink; send blocks for backpressure, raises on delivery failure."""

    def send(self, message: Message) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class Component:
    """Endpoint factory for one URI scheme."""

    def validate(self, uri: EndpointUri, side: str) -> None:
        """Reject unusable URIs at route-definition time."""

    def create_consumer(self, uri: EndpointUri, route: "Route") -> Consumer:
        raise UnsupportedEndpointRoleError(f"{uri.scheme}: cannot be a route source")

    def create_producer(self, uri: EndpointUri, route: "Route") -> Producer:
        raise UnsupportedEndpointRoleError(f"{uri.scheme}: cannot be a route sink")


class ComponentRegistry:
    def __init__(self):
        self._components: dict[str, Component] = {}
        self._lock = threading.Lock()

    def register(self, scheme: str, component: Component) -> None:
        with self._lock:
            self._components[scheme] = component

    def get(self, scheme: str) -> Component | None:
        with self._lock:
            return self._components.get(scheme)

    def schemes(self) -> list[str]:
        with self._lock:
            return sorted(self._components)


# ---------------------------------------------------------------------------
# routes


class RouteStatus(Enum):
    DEFINED = "defined"
    STARTED = "started"
    STOPPED = "stopped"


@dataclass
class RouteStats:
    consumed: int = 0
    delivered: int = 0
    dead_lettered: int = 0


@dataclass
class Route:
    id: str
    source: EndpointUri
    processors: list[Processor]
    sink: EndpointUri
    status: RouteStatus = RouteStatus.DEFINED
    stats: RouteStats = field(default_factory=RouteStats)
    dead_letters: DeadLetterQueue = field(default_factory=DeadLetterQueue)
    _consumer: Consumer | None = None
    _producer: Producer | None = None
    _thread: threading.Thread | None = None
    _stop: threading.Event = field(default_factory=threading.Event)


class RoutingEngine:
    """Defines routes against a component registry and runs their loops."""

    _ids = itertools.count(1)

    def __init__(self, registry: ComponentRegistry):
        self.registry = registry
        self._routes: dict[str, Route] = {}
        self._lock = threading.Lock()

    def define_route(
        self,
        source: EndpointUri | str,
        processors: Iterable[Processor],
        sink: EndpointUri | str,
        route_id: str | None = None,
    ) -> Route:
        src = parse_endpoint_uri(source) if isinstance(source, str) else source
        dst = parse_endpoint_uri(sink) if isinstance(sink, str) else sink
        for uri, side in ((src, "source"), (dst, "sink")):
            component = self.registry.get(uri.scheme)
            if component is None:
                raise UnknownSchemeError(uri.scheme, side)
            component.validate(uri, side)
        route = Route(
            id=route_id or f"route-{next(self._ids)}",
            source=src,
            processors=list(processors),
            sink=dst,
        )
        with self._lock:
            self._routes[route.id] = route
        return route

    def routes(self) -> list[Route]:
        with self._lock:
            return list(self._routes.values())

    def start_route(self, route: Route) -> None:
        with self._lock:
            if route.status == RouteStatus.STARTED:
                raise InvalidTransitionError(f"{route.id} is already started")
            if route._consumer is None:
                route._consumer = self.registry.get(route.source.scheme).create_consumer(
                    route.source, route
                )
            if route._producer is None:
                route._producer = self.registry.get(route.sink.scheme).create_producer(
                    route.sink, route
                )
            route._stop.clear()
            route.status = RouteStatus.STARTED
            route._thread = threading.Thread(
                target=self._run_route, args=(route,), name=f"route-{route.id}", daemon=True
            )
            route._thread.start()
        log.info("route %s started: %s -> %s", route.id, route.source, route.sink)

    def stop_route(self, route: Route, join_timeout: float = 10.0) -> None:
        """Stop the route's loop and wait for it to exit.

        Raises InvalidTransitionError, leaving the route STARTED, when the
        loop is still running after `join_timeout`; calling again retries.
        """
        with self._lock:
            if route.status != RouteStatus.STARTED:
                raise InvalidTransitionError(f"{route.id} is not started")
            self._signal_stop(route)
        if not self._join(route, join_timeout):
            raise InvalidTransitionError(
                f"{route.id} loop did not exit within {join_timeout:.1f}s; still started"
            )
        route.status = RouteStatus.STOPPED
        log.info("route %s stopped", route.id)

    def _signal_stop(self, route: Route) -> None:
        route._stop.set()
        if route._consumer is not None:
            route._consumer.wake()

    def _join(self, route: Route, timeout: float) -> bool:
        """Wait for the route's loop; False if it is still running."""
        thread = route._thread
        if thread is not None:
            thread.join(timeout)
            if thread.is_alive():
                log.warning("route %s loop did not exit within %.1fs", route.id, timeout)
                return False
        return True

    def signal_all(self) -> None:
        """Ask every started route loop to stop, without waiting."""
        with self._lock:
            for route in self._routes.values():
                if route.status == RouteStatus.STARTED:
                    self._signal_stop(route)

    def shutdown(self, join_timeout: float = 10.0) -> None:
        """Stop every started route and release the endpoints of all routes."""
        with self._lock:
            routes = list(self._routes.values())
            for route in routes:
                if route.status == RouteStatus.STARTED:
                    self._signal_stop(route)
        for route in routes:
            if route.status == RouteStatus.STARTED and self._join(route, join_timeout):
                route.status = RouteStatus.STOPPED
        for route in routes:
            for endpoint in (route._consumer, route._producer):
                if endpoint is not None:
                    try:
                        endpoint.close()
                    except Exception:
                        log.exception("closing endpoint of %s failed", route.id)
            route._consumer = None
            route._producer = None

    # -- consumption loop -----------------------------------------------------

    def _run_route(self, route: Route) -> None:
        consumer, producer = route._consumer, route._producer
        while not route._stop.is_set():
            try:
                message = consumer.poll(_ROUTE_POLL_S)
            except Exception:
                log.exception("route %s consumer poll failed", route.id)
                time.sleep(_ROUTE_POLL_S)
                continue
            if message is None:
                continue
            route.stats.consumed += 1
            try:
                outgoing = process(message, route.processors)
                producer.send(outgoing)
                route.stats.delivered += 1
            except ProcessorEvalError as exc:
                route.stats.dead_lettered += 1
                route.dead_letters.add(message, f"ProcessorEvalError: {exc}", exc)
                log.warning("route %s dead-lettered a message: %s", route.id, exc)
            except Exception as exc:
                route.stats.dead_lettered += 1
                route.dead_letters.add(message, f"DeliveryFailed: {exc}", exc)
                log.warning("route %s delivery failed: %s", route.id, exc)
