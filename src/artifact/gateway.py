"""Gateway artifacts: artifacts owning message queues and routes.

A gateway bridges the artifact runtime to protocol endpoints through the
"artifact:" URI scheme. Outbound, agents call :meth:`GatewayArtifact.send_msg`,
which queues the message on the gateway's outgoing queue and makes the
routes consuming ``artifact:<channel>`` ready: they run on their engine's
worker pool, or at once when the agent's thread is a loop thread outside
any operation (an observer of an operation a socket reached). Inbound, a route producing to
``artifact:<channel>`` hands the message to the addressed gateway and, like
Camel's ``direct:`` endpoint, delivers it on the same thread. The incoming
queue is a serial mailbox (:class:`~artifact.routing.Mailbox`): a message
that finds the gateway listening, idle and its queue empty is delivered at
once without being queued; otherwise it is queued, and an enqueuing thread
that finds no other thread delivering drains the queue in FIFO order. So one
thread at a time delivers for a gateway, and no gateway owns a thread. The
channel and gateway tables read per message are read without a lock; their
writers hold one. Delivery reads the ``ArtifactName``/``OperationName`` header tags and
either invokes the operation on itself, forwards to a linked plain artifact,
hands the message to another known gateway, or dead-letters it.
"""
from __future__ import annotations

import logging
import threading
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
    ENQUEUE_TIMEOUT_S,
    Component,
    Consumer,
    DeadLetters,
    Listeners,
    Mailbox,
    MessageQueue,
    Producer,
    Route,
    RouteStatus,
    RoutingEngine,
)
from .runtime import Artifact, ArtifactId, LinkRef, OpResult, Runtime, stages_nothing
from .uri import EndpointUri
from .values import Value

log = logging.getLogger(__name__)

# A hand-off into a full queue gives up after ENQUEUE_TIMEOUT_S: a gateway
# forwarding dead-letters the message as QueueFull, a route producing to
# "artifact:" dead-letters it as DeliveryFailed, send_msg raises QueueFullError.
# How long stop_listening waits for another thread to finish the operation
# it is delivering.
STOP_TIMEOUT_S = 10.0

_UNRESOLVED = object()

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


@dataclass(frozen=True)
class GatewayStats:
    """A gateway's counters at the moment they were read."""

    sent: int = 0
    dispatched: int = 0
    invoked_self: int = 0
    forwarded: int = 0
    dead_lettered: int = 0


# ---------------------------------------------------------------------------
# channel registry ("artifact:" scheme)


class _Channel(Listeners):
    """Writers hold the registry's lock and replace `members` with each
    change, so a reader looks up `gateways` or iterates `members` without it.
    Its listeners are the started routes consuming it; `users` counts the
    route endpoints that hold it."""

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._lock = lock
        self.gateways: dict[str, "GatewayArtifact"] = {}
        self.members: tuple["GatewayArtifact", ...] = ()  # gateways.values()
        self.users = 0


class ChannelRegistry:
    """Maps channel names to the gateways registered on them, and gateway
    names to their gateways.

    Writers hold `lock`, which also guards each channel's gateways,
    listeners and users and whether each gateway listens; `find_gateway`,
    one atomic dict read, takes none. A channel is dropped once no gateway
    is registered on it and no route endpoint holds it.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self._channels: dict[str, _Channel] = {}
        # Gateways by name, in registration order; the first one answers.
        # Each entry is a gateway, or a tuple of two or more, replaced whole.
        self._by_name: dict[str, "GatewayArtifact | tuple[GatewayArtifact, ...]"] = {}

    def _channel_locked(self, name: str) -> _Channel:
        """The channel named `name`, made if need be; the caller holds the lock."""
        chan = self._channels.get(name)
        if chan is None:
            chan = self._channels[name] = _Channel(name, self.lock)
        return chan

    def _drop_if_unused(self, chan: _Channel) -> None:
        """The caller holds the lock."""
        if not chan.gateways and not chan.users and self._channels.get(chan.name) is chan:
            del self._channels[chan.name]

    def use(self, name: str) -> _Channel:
        """The channel named `name`, held by a route endpoint until `release`."""
        with self.lock:
            chan = self._channel_locked(name)
            chan.users += 1
            return chan

    def release(self, chan: _Channel) -> None:
        with self.lock:
            chan.users -= 1
            self._drop_if_unused(chan)

    def register(self, channel_name: str, gateway: "GatewayArtifact") -> _Channel:
        """Register `gateway` on the channel; returns the channel."""
        name = gateway.id.name
        with self.lock:
            chan = self._channel_locked(channel_name)
            replaced = chan.gateways.get(name)
            chan.gateways[name] = gateway
            chan.members = tuple(chan.gateways.values())
            named = self._unindexed(name, replaced)
            self._by_name[name] = gateway if not named else named + (gateway,)
        return chan

    def unregister(self, channel_name: str, gateway: "GatewayArtifact") -> None:
        name = gateway.id.name
        with self.lock:
            chan = self._channels.get(channel_name)
            if chan is None:
                return
            removed = chan.gateways.pop(name, None)
            chan.members = tuple(chan.gateways.values())
            named = self._unindexed(name, removed)
            if not named:
                self._by_name.pop(name, None)
            else:
                self._by_name[name] = named[0] if len(named) == 1 else named
            self._drop_if_unused(chan)

    def _unindexed(self, name: str, gateway: "GatewayArtifact | None") -> tuple:
        """The gateways named `name`, in order, less `gateway`; the caller
        holds the lock."""
        named = self._by_name.get(name, ())
        if type(named) is not tuple:
            named = (named,)
        return tuple(g for g in named if g is not gateway)

    def find_gateway(self, name: str) -> "GatewayArtifact | None":
        named = self._by_name.get(name)
        return named[0] if type(named) is tuple else named

    def all_gateways(self) -> list["GatewayArtifact"]:
        with self.lock:
            return [named[0] if type(named) is tuple else named for named in self._by_name.values()]


def gateway_channels(runtime: Runtime) -> ChannelRegistry:
    """The per-runtime channel registry, created on first use."""
    registry = runtime.services.get("gateway-channels")
    if registry is None:
        registry = ChannelRegistry()
        runtime.services["gateway-channels"] = registry
    return registry


# ---------------------------------------------------------------------------
# the gateway artifact


class _Incoming(MessageQueue, Mailbox):
    """A gateway's incoming queue, and the serial mailbox, open while the
    gateway listens, that drains it. Looks `deliver` up per message, so a
    wrapper set on the class later still sees every delivery."""

    def __init__(self, gateway: "GatewayArtifact"):
        MessageQueue.__init__(self, DEFAULT_QUEUE_CAPACITY, f"{gateway.id.name}.incoming")
        Mailbox.__init__(self, self)
        self._gateway = gateway

    def _handle(self, message: Message) -> None:
        self._gateway.deliver(message)


# The links table of a gateway that has resolved no name; never written, as
# its generation is no runtime's.
_NO_LINKS: tuple[int, dict] = (-1, {})


class GatewayArtifact(DeadLetters, Artifact):
    """Artifact owning incoming/outgoing FIFO queues and attached routes.

    ``init`` parameters: an optional channel name the gateway serves (defaults
    to the artifact's own name). Gateways never share queues; several gateways
    may serve one channel, distinguished by the ``ArtifactName`` header. The
    dead-letter queue is made with the first dead letter.
    """

    # Counters read through `stats`; each instance counts from these.
    _sent = _dispatched = _invoked_self = _forwarded = _dead_lettered = 0

    @stages_nothing
    def init(self, channel: str | None = None):
        self.channel = channel or self.id.name
        self.outgoing = MessageQueue(DEFAULT_QUEUE_CAPACITY, f"{self.id.name}.outgoing")
        self.incoming = _Incoming(self)
        self.routes: list[Route] = []
        self._engine: RoutingEngine | None = None
        # (runtime generation, name -> link to a linked plain artifact or
        # None); a table whose generation is not the runtime's is stale.
        self._links_table: tuple[int, dict[str, LinkRef | None]] = _NO_LINKS

    def on_created(self):
        self._channels = gateway_channels(self.runtime)
        self._channel = self._channels.register(self.channel, self)

    @property
    def stats(self) -> GatewayStats:
        return GatewayStats(
            self._sent, self._dispatched, self._invoked_self, self._forwarded, self._dead_lettered
        )

    def on_dispose(self):
        """Forget the gateway: stop its routes, remove them from the engine,
        closing their endpoints, and drop its registrations."""
        self._channels.unregister(self.channel, self)
        if self.incoming.open:
            self.stop_listening()
        routes, self.routes = self.routes, []
        for route in routes:
            if self._engine is not None:
                self._engine.remove_route(route)
            if route.owner is self:
                route.owner = None
        self.outgoing.close()
        self.incoming.close()

    # -- route attachment ----------------------------------------------------

    def attach_route(self, route: Route, engine: RoutingEngine | None = None) -> None:
        """Attach a route whose artifact-scheme side names this gateway."""
        if engine is not None:
            self._engine = engine
        names = (self._id.name, self.channel)
        source, sink = route.source, route.sink
        if not (
            (source.scheme == "artifact" and source.path in names)
            or (sink.scheme == "artifact" and sink.path in names)
        ):
            raise RouteNotOwnedError(
                f"route {route.id} does not name gateway {self.id.name} "
                f"or channel {self.channel}"
            )
        route.owner = self
        self.routes.append(route)

    # -- lifecycle -------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self.incoming.open

    def start_listening(self) -> None:
        with self._channels.lock:
            if self.incoming.open:
                raise InvalidTransitionError(f"gateway {self.id.name} is already listening")
            if self.routes and self._engine is None:
                raise InvalidTransitionError(
                    f"gateway {self.id.name} has routes but no engine; pass one to attach_route"
                )
            self.incoming.open = True
        for route in self.routes:
            if route.status != RouteStatus.STARTED:
                self._engine.start_route(route)
        log.debug("gateway %s listening on channel %r", self.id.name, self.channel)
        if self.incoming.pending():
            self.incoming.drain()  # what queued while stopped

    def stop_listening(self) -> None:
        """Stop delivering and stop the attached routes.

        Returns once no other thread is delivering for this gateway, or after
        STOP_TIMEOUT_S with a warning; called from an operation this gateway
        is delivering, it returns without waiting for that operation. What
        is queued stays queued until start_listening.
        """
        mailbox = self.incoming
        with self._channels.lock:
            running = [r for r in self.routes if r.status == RouteStatus.STARTED]
            if not mailbox.open and not running and not mailbox.busy():
                raise InvalidTransitionError(f"gateway {self.id.name} is not listening")
            mailbox.open = False
        for route in running:
            self._engine.stop_route(route)
        if not mailbox.wait_idle(STOP_TIMEOUT_S):
            log.warning(
                "gateway %s: an operation still runs %.1fs after stop",
                self.id.name, STOP_TIMEOUT_S,
            )
        log.debug("gateway %s stopped listening", self.id.name)

    # -- outbound ---------------------------------------------------------------

    def send_msg(
        self,
        request: OpRequest,
        extra_headers: dict[str, Value] | None = None,
        timeout: float | None = None,
    ) -> Message:
        """Queue an operation request for the routes consuming this channel
        and make them ready (see the module docstring); returns the queued
        message. QueueFullError when the outgoing queue stays full for
        `timeout` seconds, ENQUEUE_TIMEOUT_S when it is None.

        A route with an empty processor chain may deliver that very object,
        so the caller must not modify it."""
        if not self.incoming.open:
            raise GatewayStoppedError(f"gateway {self.id.name} is not listening")
        message = request.to_message(extra_headers)
        self.outgoing.put(message, ENQUEUE_TIMEOUT_S if timeout is None else timeout)
        self._sent += 1
        self._channel.notify_listeners()
        return message

    def poll_outgoing(self, max_wait: float = 0.0) -> Message | None:
        """Remove and return the oldest outgoing message; exactly-once removal."""
        return self.outgoing.get(timeout=max_wait)

    # -- inbound ------------------------------------------------------------------

    def enqueue_incoming(self, message: Message, timeout: float | None = None) -> None:
        """Deliver the message on this thread when the gateway is listening,
        idle and has nothing queued; otherwise append it to the incoming
        queue and deliver what that holds on this thread, unless another
        thread already does or the gateway is stopped.

        Accepted even while stopped; QueueFullError after `timeout` seconds
        when the queue stays full. An operation of this gateway that
        enqueues into it gets the message after it returns.
        """
        self.incoming.offer(message, timeout)

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
        self._dispatched += 1
        kind = type(outcome)
        if kind is Forwarded:
            self._forwarded += 1
        elif kind is InvokedSelf:
            self._invoked_self += 1
        else:
            self._dead_lettered += 1
            self.dead_letter(message, outcome.reason)
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
        request = _Call(op, tuple(body) if isinstance(body, list) else (body,))

        if name == self.id.name:
            return self._invoke_self(request)

        link = self._linked_target(name)
        if link is not None:
            return self._invoke_linked(link, request)

        gateway = self._channels.find_gateway(name)
        if gateway is not None:
            try:
                gateway.enqueue_incoming(message, timeout=ENQUEUE_TIMEOUT_S)
            except Exception:
                return DeadLettered(REASON_QUEUE_FULL)
            return Forwarded(gateway.id)

        return DeadLettered(REASON_UNKNOWN_ARTIFACT)

    def _linked_target(self, name: str) -> LinkRef | None:
        """The link to the plain artifact `name` in this workspace, or None
        when there is no such artifact or it is not linked from here."""
        generation = self.runtime.generation
        stamp, table = self._links_table
        if stamp != generation:
            # Stamped with the generation read before resolving, so an entry
            # never outlives a change that could alter it.
            table = {}
            self._links_table = (generation, table)
        link = table.get(name, _UNRESOLVED)
        if link is _UNRESOLVED:
            target = self.runtime.find_artifact(self.id.workspace, name)
            if target is None:
                # Not kept: names come from message headers, so a table of
                # absent names could grow without bound.
                return None
            link = None
            if not isinstance(target, GatewayArtifact) and self.runtime.linked(self.id, target.id):
                link = LinkRef(self.id, target.id)
            table[name] = link
        return link

    def _invoke_self(self, request: "_Call") -> DispatchOutcome:
        try:
            result = self.runtime.exec_op(self.id, request, caller=f"gateway:{self.id.name}")
        except UnknownOperationError:
            return DeadLettered(f"{REASON_UNKNOWN_OPERATION}: {request.operation}")
        except OperationFailedError as exc:
            return DeadLettered(f"{REASON_OPERATION_FAILED}: {exc}")
        return InvokedSelf(request.operation, result)

    def _invoke_linked(self, link: LinkRef, request: "_Call") -> DispatchOutcome:
        try:
            self.runtime.exec_op(link.target, request, caller=link)
        except UnknownOperationError:
            return DeadLettered(f"{REASON_UNKNOWN_OPERATION}: {request.operation}")
        except (OperationFailedError, UnknownArtifactError) as exc:
            return DeadLettered(f"{REASON_OPERATION_FAILED}: {exc}")
        return Forwarded(link.target)


class _Call:
    """What `Runtime.exec_op` reads of a request, made from tags `_dispatch`
    has already checked; an OpRequest would check them again."""

    __slots__ = ("operation", "params")

    def __init__(self, operation: str, params: tuple):
        self.operation = operation
        self.params = params


# ---------------------------------------------------------------------------
# "artifact:" endpoint component


class _ChannelConsumer(Consumer):
    """Takes from the outgoing queues of every gateway registered on a
    channel, round robin; each send makes the route ready."""

    def __init__(self, registry: ChannelRegistry, channel: _Channel):
        self._registry = registry
        self._channel = channel
        self._rr = 0
        self._route: Route | None = None

    def start(self, route: Route) -> None:
        self._route = route
        self._channel.add_listener(route)

    def stop(self) -> None:
        self._channel.remove_listener(self._route)

    def try_get(self) -> Message | None:
        gateways = self._channel.members
        count = len(gateways)
        for offset in range(count):
            gateway = gateways[(self._rr + offset) % count]
            message = gateway.outgoing.try_get()
            if message is not None:
                self._rr = (self._rr + offset + 1) % count
                return message
        return None

    def __len__(self) -> int:
        return sum(len(gateway.outgoing) for gateway in self._channel.members)

    def close(self) -> None:
        self._registry.release(self._channel)


class _ChannelProducer(Producer):
    """Delivers to the gateway named by the ArtifactName header on this
    channel, falling back to the producing route's owner (the gateway it is
    attached to, `Route.owner`), then to the channel's only gateway."""

    def __init__(self, registry: ChannelRegistry, channel: _Channel, route: Route | None):
        self._registry = registry
        self._channel = channel
        self._route = route

    def send(self, message: Message) -> None:
        # Lock-free reads of the channel (see _Channel).
        name = message.headers.get(ARTIFACT_NAME_HEADER)
        gateway = self._channel.gateways.get(name) if isinstance(name, str) else None
        if gateway is None and self._route is not None:
            owner = self._route.owner
            if owner is not None and owner.channel == self._channel.name:
                gateway = owner
        if gateway is None:
            members = self._channel.members
            if len(members) == 1:
                gateway = members[0]
        if gateway is None:
            raise DeliveryError(
                f"no gateway on channel {self._channel.name!r} accepts this message"
            )
        gateway.enqueue_incoming(message, timeout=ENQUEUE_TIMEOUT_S)

    def close(self) -> None:
        self._registry.release(self._channel)


class ArtifactComponent(Component):
    """Endpoint component for the "artifact:" scheme."""

    def __init__(self, registry: ChannelRegistry):
        self._registry = registry

    def validate(self, uri: EndpointUri, side: str) -> None:
        if not uri.path:
            raise ValueError("artifact endpoint needs a channel name: artifact:<channel>")

    def create_consumer(self, uri: EndpointUri, route: Route) -> Consumer:
        return _ChannelConsumer(self._registry, self._registry.use(uri.path))

    def create_producer(self, uri: EndpointUri, route: Route) -> Producer:
        return _ChannelProducer(self._registry, self._registry.use(uri.path), route)
