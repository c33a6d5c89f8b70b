"""Gateway artifacts: artifacts owning message queues and routes.

A gateway bridges the artifact runtime to protocol endpoints through the
"artifact:" URI scheme. Outbound, agents call :meth:`GatewayArtifact.send_msg`
and a route consuming from ``artifact:<channel>`` drains the gateway's
outgoing queue. Inbound, a route producing to ``artifact:<channel>`` appends
to the addressed gateway's incoming queue; the gateway's dispatch loop reads
the ``ArtifactName``/``OperationName`` header tags and either invokes the
operation on itself, forwards to a linked plain artifact, hands the message
to another known gateway, or dead-letters it.
"""
from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass

from .errors import (
    DeliveryError,
    GatewayStoppedError,
    InvalidTransitionError,
    OperationFailedError,
    RouteNotOwnedError,
    UnknownArtifactError,
    UnknownOperationError,
)
from .messages import ARTIFACT_NAME_HEADER, OPERATION_NAME_HEADER, Message, OpRequest
from .routing import (
    DEFAULT_QUEUE_CAPACITY,
    Component,
    Consumer,
    DeadLetterQueue,
    MessageQueue,
    Producer,
    Route,
    RouteStatus,
    RoutingEngine,
)
from .runtime import Artifact, ArtifactId, LinkRef, OpResult, Runtime
from .uri import EndpointUri
from .values import Value

log = logging.getLogger(__name__)

DEFAULT_POLL_INTERVAL_S = 0.001

_STOP = object()

REASON_MISSING_HEADER = "MissingHeader"
REASON_UNKNOWN_ARTIFACT = "UnknownArtifact"
REASON_UNKNOWN_OPERATION = "UnknownOperation"
REASON_OPERATION_FAILED = "OperationFailed"
REASON_QUEUE_FULL = "QueueFull"


# ---------------------------------------------------------------------------
# dispatch outcomes


@dataclass(frozen=True)
class InvokedSelf:
    operation: str
    result: OpResult


@dataclass(frozen=True)
class Forwarded:
    target: ArtifactId


@dataclass(frozen=True)
class DeadLettered:
    reason: str


DispatchOutcome = InvokedSelf | Forwarded | DeadLettered


@dataclass
class GatewayStats:
    sent: int = 0
    dispatched: int = 0
    invoked_self: int = 0
    forwarded: int = 0
    dead_lettered: int = 0


# ---------------------------------------------------------------------------
# channel registry ("artifact:" scheme)


class _Channel:
    def __init__(self, name: str):
        self.name = name
        self.cond = threading.Condition()
        self.gateways: dict[str, "GatewayArtifact"] = {}
        self.version = 0

    def notify(self) -> None:
        with self.cond:
            self.version += 1
            self.cond.notify_all()


class ChannelRegistry:
    """Maps channel names to the gateways registered on them."""

    def __init__(self):
        self._lock = threading.Lock()
        self._channels: dict[str, _Channel] = {}
        self._route_owners: dict[str, "GatewayArtifact"] = {}

    def channel(self, name: str) -> _Channel:
        with self._lock:
            if name not in self._channels:
                self._channels[name] = _Channel(name)
            return self._channels[name]

    def register(self, channel_name: str, gateway: "GatewayArtifact") -> None:
        chan = self.channel(channel_name)
        with chan.cond:
            chan.gateways[gateway.id.name] = gateway
        chan.notify()

    def unregister(self, channel_name: str, gateway: "GatewayArtifact") -> None:
        chan = self.channel(channel_name)
        with chan.cond:
            chan.gateways.pop(gateway.id.name, None)
        chan.notify()

    def find_gateway(self, name: str) -> "GatewayArtifact | None":
        with self._lock:
            channels = list(self._channels.values())
        for chan in channels:
            with chan.cond:
                gateway = chan.gateways.get(name)
            if gateway is not None:
                return gateway
        return None

    def all_gateways(self) -> list["GatewayArtifact"]:
        with self._lock:
            channels = list(self._channels.values())
        seen: dict[str, "GatewayArtifact"] = {}
        for chan in channels:
            with chan.cond:
                for name, gateway in chan.gateways.items():
                    seen.setdefault(name, gateway)
        return list(seen.values())

    def set_route_owner(self, route_id: str, gateway: "GatewayArtifact") -> None:
        with self._lock:
            self._route_owners[route_id] = gateway

    def route_owner(self, route_id: str) -> "GatewayArtifact | None":
        with self._lock:
            return self._route_owners.get(route_id)


def gateway_channels(runtime: Runtime) -> ChannelRegistry:
    """The per-runtime channel registry, created on first use."""
    registry = runtime.services.get("gateway-channels")
    if registry is None:
        registry = ChannelRegistry()
        runtime.services["gateway-channels"] = registry
    return registry


# ---------------------------------------------------------------------------
# the gateway artifact


class GatewayArtifact(Artifact):
    """Artifact owning incoming/outgoing FIFO queues and attached routes.

    ``init`` parameters: an optional channel name the gateway serves (defaults
    to the artifact's own name). Gateways never share queues; several gateways
    may serve one channel, distinguished by the ``ArtifactName`` header.
    """

    def init(self, channel: str | None = None):
        self.channel = channel or self.id.name
        self.outgoing = MessageQueue(DEFAULT_QUEUE_CAPACITY, f"{self.id.name}.outgoing")
        self.incoming = MessageQueue(DEFAULT_QUEUE_CAPACITY, f"{self.id.name}.incoming")
        self.routes: list[Route] = []
        self.dead_letters = DeadLetterQueue()
        self.stats = GatewayStats()
        self.poll_interval = DEFAULT_POLL_INTERVAL_S
        self._engine: RoutingEngine | None = None
        self._started = False
        self._poller: threading.Thread | None = None
        self._gw_lock = threading.Lock()

    def on_created(self):
        self._channels = gateway_channels(self.runtime)
        self._channel = self._channels.channel(self.channel)
        self._channels.register(self.channel, self)

    def on_dispose(self):
        self._channels.unregister(self.channel, self)
        if self._started:
            self.stop_listening()
        self.outgoing.close()
        self.incoming.close()

    # -- route attachment ----------------------------------------------------

    def attach_route(self, route: Route, engine: RoutingEngine | None = None) -> None:
        """Attach a route whose artifact-scheme side names this gateway."""
        if engine is not None:
            self._engine = engine
        owns = any(
            uri.scheme == "artifact" and uri.path in (self.id.name, self.channel)
            for uri in (route.source, route.sink)
        )
        if not owns:
            raise RouteNotOwnedError(
                f"route {route.id} does not name gateway {self.id.name} "
                f"or channel {self.channel}"
            )
        self._channels.set_route_owner(route.id, self)
        self.routes.append(route)

    # -- lifecycle -------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._started

    def start_listening(self) -> None:
        with self._gw_lock:
            if self._started:
                raise InvalidTransitionError(f"gateway {self.id.name} is already listening")
            if self.routes and self._engine is None:
                raise InvalidTransitionError(
                    f"gateway {self.id.name} has routes but no engine; pass one to attach_route"
                )
            self._started = True
            self._poller = threading.Thread(
                target=self._dispatch_loop, name=f"gateway-{self.id.name}", daemon=True
            )
            self._poller.start()
        for route in self.routes:
            if route.status != RouteStatus.STARTED:
                self._engine.start_route(route)
        log.info("gateway %s listening on channel %r", self.id.name, self.channel)

    def request_stop(self) -> None:
        """Signal the dispatch loop to halt without waiting for it."""
        with self._gw_lock:
            if not self._started:
                return
            self._started = False
        self.incoming.force_put(_STOP)

    def stop_listening(self) -> None:
        with self._gw_lock:
            if not self._started and self._poller is None:
                raise InvalidTransitionError(f"gateway {self.id.name} is not listening")
        for route in self.routes:
            if route.status == RouteStatus.STARTED:
                self._engine.stop_route(route)
        self.request_stop()
        poller = self._poller
        if poller is not None:
            poller.join(timeout=10)
            self._poller = None
        log.info("gateway %s stopped listening", self.id.name)

    # -- outbound ---------------------------------------------------------------

    def send_msg(
        self,
        request: OpRequest,
        extra_headers: dict[str, Value] | None = None,
        timeout: float | None = None,
    ) -> Message:
        """Queue an operation request for the routes consuming this channel."""
        if not self._started:
            raise GatewayStoppedError(f"gateway {self.id.name} is not listening")
        message = request.to_message(extra_headers)
        self.outgoing.put(message, timeout=timeout)
        self.stats.sent += 1
        self._channel.notify()
        return message

    def poll_outgoing(self, max_wait: float = 0.0) -> Message | None:
        """Remove and return the oldest outgoing message; exactly-once removal."""
        item = self.outgoing.get(timeout=max_wait)
        return item if isinstance(item, Message) else None

    # -- inbound ------------------------------------------------------------------

    def enqueue_incoming(self, message: Message, timeout: float | None = None) -> None:
        """Append to the incoming queue; accepted even while stopped."""
        self.incoming.put(message, timeout=timeout)

    def forwarding_table(self) -> dict[str, str]:
        """Name resolution in dispatch order: self, linked artifacts, gateways."""
        table = {self.id.name: "self"}
        for target in self.runtime.links_from(self.id):
            art = self.runtime.find_artifact(target.workspace, target.name)
            if art is not None and not isinstance(art, GatewayArtifact):
                table.setdefault(target.name, "linked")
        for gateway in self._channels.all_gateways():
            table.setdefault(gateway.id.name, "gateway")
        return table

    def deliver(self, message: Message) -> DispatchOutcome:
        """Dispatch one message by its header tags; never raises."""
        outcome = self._dispatch(message)
        self.stats.dispatched += 1
        if isinstance(outcome, InvokedSelf):
            self.stats.invoked_self += 1
        elif isinstance(outcome, Forwarded):
            self.stats.forwarded += 1
        else:
            self.stats.dead_lettered += 1
            self.dead_letters.add(message, outcome.reason)
            log.warning(
                "gateway %s dead-lettered a message: %s", self.id.name, outcome.reason
            )
        return outcome

    def _dispatch(self, message: Message) -> DispatchOutcome:
        name = message.headers.get(ARTIFACT_NAME_HEADER)
        op = message.headers.get(OPERATION_NAME_HEADER)
        if not isinstance(name, str) or not isinstance(op, str) or not name or not op:
            return DeadLettered(REASON_MISSING_HEADER)
        body = message.body
        params = list(body) if isinstance(body, list) else [body]
        request = OpRequest(name, op, params)

        if name == self.id.name:
            return self._invoke_self(request)

        target = self.runtime.find_artifact(self.id.workspace, name)
        if (
            target is not None
            and not isinstance(target, GatewayArtifact)
            and self.runtime.linked(self.id, target.id)
        ):
            return self._invoke_linked(target.id, request)

        gateway = self._channels.find_gateway(name)
        if gateway is not None:
            try:
                gateway.enqueue_incoming(message, timeout=10.0)
            except Exception:
                return DeadLettered(REASON_QUEUE_FULL)
            return Forwarded(gateway.id)

        return DeadLettered(REASON_UNKNOWN_ARTIFACT)

    def _invoke_self(self, request: OpRequest) -> DispatchOutcome:
        try:
            result = self.runtime.exec_op(self.id, request, caller=f"gateway:{self.id.name}")
        except UnknownOperationError:
            return DeadLettered(f"{REASON_UNKNOWN_OPERATION}: {request.operation}")
        except OperationFailedError as exc:
            return DeadLettered(f"{REASON_OPERATION_FAILED}: {exc}")
        return InvokedSelf(request.operation, result)

    def _invoke_linked(self, target: ArtifactId, request: OpRequest) -> DispatchOutcome:
        try:
            self.runtime.exec_op(target, request, caller=LinkRef(self.id, target))
        except UnknownOperationError:
            return DeadLettered(f"{REASON_UNKNOWN_OPERATION}: {request.operation}")
        except (OperationFailedError, UnknownArtifactError) as exc:
            return DeadLettered(f"{REASON_OPERATION_FAILED}: {exc}")
        return Forwarded(target)

    def _dispatch_loop(self) -> None:
        # Exits only on the stop sentinel (queued once per started cycle) or a
        # closed queue, so a restart never races with a stale sentinel.
        while True:
            item = self.incoming.get(timeout=self.poll_interval)
            if item is _STOP:
                return
            if item is None:
                if self.incoming.closed:
                    return
                continue
            self.deliver(item)


# ---------------------------------------------------------------------------
# "artifact:" endpoint component


class _ChannelConsumer(Consumer):
    """Drains the outgoing queues of every gateway registered on a channel."""

    def __init__(self, channel: _Channel):
        self._channel = channel
        self._rr = 0
        self._woken = False  # guarded by the channel's condition

    def _take_wake(self) -> bool:
        if self._woken:
            self._woken = False
            return True
        return False

    def poll(self, timeout: float) -> Message | None:
        """Next outgoing message of the channel; None on timeout or wake()."""
        deadline = None if timeout is None else time.monotonic() + timeout
        cond = self._channel.cond
        while True:
            with cond:
                if self._take_wake():
                    return None
                version = self._channel.version
                gateways = list(self._channel.gateways.values())
            count = len(gateways)
            for offset in range(count):
                gateway = gateways[(self._rr + offset) % count]
                message = gateway.outgoing.try_get()
                if isinstance(message, Message):
                    self._rr = (self._rr + offset + 1) % count
                    return message
            with cond:
                if self._take_wake():
                    return None
                if self._channel.version != version:
                    continue
                if deadline is None:
                    cond.wait()
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                cond.wait(remaining)
                if self._take_wake() or self._channel.version == version:
                    return None

    def wake(self) -> None:
        """End the pending poll, or the next one, with None."""
        with self._channel.cond:
            self._woken = True
            self._channel.cond.notify_all()


class _ChannelProducer(Producer):
    """Delivers to the gateway named by the ArtifactName header on this
    channel, falling back to the owning gateway of the producing route."""

    def __init__(self, registry: ChannelRegistry, channel: _Channel, route: Route | None):
        self._registry = registry
        self._channel = channel
        self._route = route

    def send(self, message: Message) -> None:
        name = message.headers.get(ARTIFACT_NAME_HEADER)
        gateway = None
        with self._channel.cond:
            if isinstance(name, str):
                gateway = self._channel.gateways.get(name)
            if gateway is None and self._route is not None:
                owner = self._registry.route_owner(self._route.id)
                if owner is not None and owner.channel == self._channel.name:
                    gateway = owner
            if gateway is None and len(self._channel.gateways) == 1:
                gateway = next(iter(self._channel.gateways.values()))
        if gateway is None:
            raise DeliveryError(
                f"no gateway on channel {self._channel.name!r} accepts this message"
            )
        gateway.enqueue_incoming(message)


class ArtifactComponent(Component):
    """Endpoint component for the "artifact:" scheme."""

    def __init__(self, registry: ChannelRegistry):
        self._registry = registry

    def validate(self, uri: EndpointUri, side: str) -> None:
        if not uri.path:
            raise ValueError("artifact endpoint needs a channel name: artifact:<channel>")

    def create_consumer(self, uri: EndpointUri, route: Route) -> Consumer:
        return _ChannelConsumer(self._registry.channel(uri.path))

    def create_producer(self, uri: EndpointUri, route: Route) -> Producer:
        return _ChannelProducer(self._registry, self._registry.channel(uri.path), route)
