"""Simulated industrial variable server: named variables over line-framed TCP.

Wire protocol (one request or response per LF-terminated line):

    request                  response
    READ <name>              VALUE <name> <version> <value>  |  ERR <reason>
    WRITE <name> <value>     OK  |  ERR <reason>
    SUB <name>               OK  |  ERR <reason>

After a successful SUB the server pushes an unsolicited
``VALUE <name> <version> <value>`` line for every committed write, in version
order. Writes auto-create variables at version 0; reads and subscriptions on
unknown names fail. Values are rendered as canonical wire text and parsed
back as int, then float, then text.

The "vars:" endpoint scheme is `vars:<host>:<port>/<name>?mode=read|subscribe|write`.
The server and every client connection are served by the shared loop (see
`artifact.loop`).
A subscribe source runs its route on that loop as each push arrives. A read
source sends a READ every READ_PERIOD_S from an engine timer, which fires on
the same loop, unless its last one is unanswered, and runs its route on the
loop when a reply brings a new version, so a stalled server holds up only
that source. A write sink run on the loop sends its WRITE without waiting
for the OK, since the loop would have to read it. A client request made off
the loop is answered on the loop, which wakes the requester once it is idle
(`Reactor.call_when_idle`): what the request set off on the loop, such as a
push and the routes and devices it reaches, is handled before the
requester's next request.
"""
from __future__ import annotations

import logging
import threading
from collections import deque
from typing import Callable

from ..errors import ConnectionClosedError, UnknownVariableError, VarStoreProtocolError
from ..loop import LineConnection, shared_loop
from ..messages import Message
from ..routing import (DEFAULT_QUEUE_CAPACITY, Component, Consumer, Inbox, InboxConsumer,
                       Producer, Route)
from ..uri import EndpointUri
from ..values import Value, render_value
from .tcp import LineServer

log = logging.getLogger(__name__)

# How often a mode=read source reads its variable.
READ_PERIOD_S = 0.02

VAR_NAME_HEADER = "var.name"
VAR_VERSION_HEADER = "var.version"


def parse_wire_value(text: str) -> Value:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


class _Var:
    __slots__ = ("value", "version", "push_lock")

    def __init__(self, value: Value):
        self.value = value
        self.version = 0
        # Held by a writer from its commit until its push is queued; taken
        # before the store lock, never while holding it.
        self.push_lock = threading.Lock()


class VarStoreServer:
    """In-memory variable store served over the wire protocol above."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._vars: dict[str, _Var] = {}
        self._subs: dict[str, list[LineConnection]] = {}
        self._lock = threading.Lock()
        self.server = LineServer(host, port, handler=self._handle, name="varstore")
        self.host, self.port = self.server.host, self.server.port

    # -- local API (used by tests and in-process writers) ----------------------

    def write(self, name: str, value: Value) -> int:
        """Commit a write and push it to subscribers; returns the new version
        once its push has gone out, or at once on the shared loop (a wire
        WRITE), which never waits on a peer.

        Writers of one variable take turns on its push lock to commit and
        queue their pushes, so pushes go out in version order. Each writer
        waits for its push after letting the lock go, so a writer on the loop
        is never held up behind one that waits for a subscriber that stopped
        reading; the loop closes that subscriber's connection once its output
        has waited ENQUEUE_TIMEOUT_S. Nothing is sent under the store lock, so
        such a subscriber holds up no read and no other variable.
        """
        with self._lock:
            var = self._vars.get(name)
            if var is None:
                self._vars[name] = _Var(value)
                return 0  # nobody can have subscribed to it yet
        queued = []
        with var.push_lock:
            with self._lock:
                var.value = value
                var.version += 1
                version = var.version
                subscribers = tuple(self._subs.get(name, ()))
            if subscribers:
                line = f"VALUE {name} {version} {render_value(value)}"
                for conn in subscribers:
                    try:
                        queued.append((conn, conn.queue_line(line)))
                    except Exception:
                        self._drop_sub(name, conn)
        for conn, wait in queued:
            try:
                wait()
            except ConnectionClosedError:
                self._drop_sub(name, conn)
        return version

    def read(self, name: str) -> tuple[Value, int]:
        with self._lock:
            var = self._vars.get(name)
            if var is None:
                raise UnknownVariableError(name)
            return var.value, var.version

    def _drop_sub(self, name: str, conn: LineConnection) -> None:
        with self._lock:
            subs = self._subs.get(name)
            if subs and conn in subs:
                subs.remove(conn)

    # -- protocol ---------------------------------------------------------------

    def _handle(self, conn: LineConnection, line: str) -> None:
        parts = line.split(" ", 2)
        command = parts[0] if parts else ""
        if command == "READ" and len(parts) == 2:
            try:
                value, version = self.read(parts[1])
            except UnknownVariableError:
                conn.send_line(f"ERR unknown-variable {parts[1]}")
                return
            conn.send_line(f"VALUE {parts[1]} {version} {render_value(value)}")
        elif command == "WRITE" and len(parts) == 3:
            self.write(parts[1], parse_wire_value(parts[2]))
            conn.send_line("OK")
        elif command == "SUB" and len(parts) == 2:
            name = parts[1]
            with self._lock:
                known = name in self._vars
                if known:
                    self._subs.setdefault(name, []).append(conn)
            conn.send_line("OK" if known else f"ERR unknown-variable {name}")
        else:
            conn.send_line(f"ERR bad-request {command or '<empty>'}")

    def stop(self) -> None:
        self.server.stop()


class VarSubscription(Inbox):
    """Ordered stream of (value, version) pushes for the variable `var`; its
    listeners hear of each push on the shared loop."""

    def __init__(self, var: str):
        super().__init__(DEFAULT_QUEUE_CAPACITY, f"vars-sub:{var}")
        self.var = var

    def poll(self, timeout: float = 0.0):
        return self.get(timeout=timeout)


class _Pending:
    """A request sent and not yet answered; `read_name` for a READ. Whichever
    of the reply and the connection's close takes the request off the
    client's list calls `done` once, on the loop: with the response, or with
    None when the connection closed first."""

    __slots__ = ("read_name", "done")

    def __init__(self, read_name: str | None, done: Callable[[object], None]):
        self.read_name = read_name
        self.done = done


class VarClient:
    """Protocol client on the shared loop.

    The server answers the requests of a connection in the order they came,
    so the client matches each reply to the oldest request still unanswered.
    A request that gives up waiting keeps its place in that order, and the
    reply that comes for it later is dropped, not handed to a later request.

    Subscribed names should not also be read through the same client: READ
    responses and subscription pushes share the VALUE line format.
    `read_later` hands its reply to a callable, on the loop. On the loop,
    `read` and `subscribe` raise at once, since they would wait for the
    loop, and `write` does not wait for its OK: the server answers every
    well-formed WRITE with OK, and an ERR that comes instead is logged.

    A requester off the loop waits on a lock of its own request. The loop
    releases it once it is idle after the reply, or at the latest once the
    reply has waited `loop.IDLE_TURNS` turns of the loop or the loop ends;
    a connection that closes releases it at once, with no reply.
    """

    def __init__(self, host: str, port: int, timeout: float = 5.0):
        self._timeout = timeout
        self._send_lock = threading.Lock()  # keeps `_pending` in send order
        self._state_lock = threading.Lock()
        self._pending: deque[_Pending] = deque()  # oldest first
        self._subs: dict[str, list[VarSubscription]] = {}
        # Guarded by _state_lock: the connection is up, and close was called.
        self._reading = True
        self._closed = False
        self._loop = shared_loop.acquire()
        try:
            self._conn = self._loop.connect(host, port, self._on_line, self._on_close, timeout)
        except BaseException:
            shared_loop.release()
            raise

    def _on_close(self, conn: LineConnection) -> None:
        with self._state_lock:
            self._reading = False
            unanswered = list(self._pending)
            self._pending.clear()
        for pending in unanswered:
            pending.done(None)

    def _on_line(self, line: str) -> None:
        if line.startswith("VALUE "):
            parts = line.split(" ", 3)
            name = parts[1]
            try:
                response = (name, parse_wire_value(parts[3]), int(parts[2]))
            except (IndexError, ValueError):
                response = line  # malformed: an error for the READ it answers
            with self._state_lock:
                pending = self._pending[0] if self._pending else None
                if pending is not None and pending.read_name == name:
                    self._pending.popleft()
                else:
                    pending = None
                    subs = list(self._subs.get(name, ()))
            if pending is None:
                if response is line:
                    log.warning("malformed VALUE line: %r", line)
                    return
                for sub in subs:
                    sub.push((response[1], response[2]))
                return
        else:
            response = line
            with self._state_lock:
                pending = self._pending.popleft() if self._pending else None
            if pending is None:
                log.warning("vars client dropped a line no request waits for: %r", line)
                return
        pending.done(response)

    def _send(self, line: str, done: Callable[[object], None],
              read_name: str | None = None) -> None:
        pending = _Pending(read_name, done)
        with self._send_lock:
            with self._state_lock:
                if not self._reading:
                    raise VarStoreProtocolError(f"connection closed; {line!r} not sent")
                self._pending.append(pending)
            try:
                self._conn.send_line(line)
            except BaseException:
                with self._state_lock:
                    if pending in self._pending:
                        self._pending.remove(pending)
                raise

    def _on_loop(self) -> bool:
        return threading.get_ident() == self._loop.loop_ident

    def _request(self, line: str, read_name: str | None = None):
        if self._on_loop():
            raise VarStoreProtocolError(
                f"{line!r} would wait on the shared loop for its own reply; not sent")
        answered = threading.Lock()
        answered.acquire()
        reply = None

        def done(response) -> None:
            nonlocal reply
            if response is None:  # the connection closed: no reply comes
                answered.release()
                return
            reply = response
            # Woken once the loop is idle, so that the work this reply's
            # request set off on the loop, such as a push and what a route
            # does with it, goes before the requester's next request.
            self._loop.call_when_idle(answered.release)

        self._send(line, done, read_name)
        # Gives up after the timeout; the reply, should it come, is dropped.
        answered.acquire(timeout=self._timeout)
        if reply is None:
            raise VarStoreProtocolError(f"no response to {line!r}")
        return reply

    def read(self, name: str) -> tuple[Value, int]:
        response = self._request(f"READ {name}", read_name=name)
        if isinstance(response, tuple):
            return response[1], response[2]
        if "unknown-variable" in str(response):
            raise UnknownVariableError(name)
        raise VarStoreProtocolError(f"unexpected response {response!r}")

    def read_later(self, name: str, done: Callable[[object], None]) -> None:
        """Send READ <name> and return at once; `done` gets the reply on the
        loop: a (name, value, version) record, an ERR line, or None when the
        connection closes first."""
        self._send(f"READ {name}", done, read_name=name)

    @staticmethod
    def _write_answered(response) -> None:
        """The answer to a WRITE sent on the loop, which nobody waits for."""
        if response is not None and response != "OK":
            log.warning("vars client: a write sent on the shared loop was answered %r",
                        response)

    def write(self, name: str, value: Value) -> None:
        line = f"WRITE {name} {render_value(value)}"
        if self._on_loop():
            self._send(line, self._write_answered)
            return
        response = self._request(line)
        if response != "OK":
            raise VarStoreProtocolError(f"write rejected: {response!r}")

    def subscribe(self, name: str) -> VarSubscription:
        sub = VarSubscription(name)
        with self._state_lock:
            self._subs.setdefault(name, []).append(sub)
        try:
            response = self._request(f"SUB {name}")
        except Exception:
            self._drop(sub)
            raise
        if response != "OK":
            self._drop(sub)
            if "unknown-variable" in str(response):
                raise UnknownVariableError(name)
            raise VarStoreProtocolError(f"subscribe rejected: {response!r}")
        return sub

    def _drop(self, sub: VarSubscription) -> None:
        with self._state_lock:
            subs = self._subs.get(sub.var, [])
            if sub in subs:
                subs.remove(sub)

    def close(self) -> None:
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            self._reading = False  # no request goes out after close
            subs = [sub for subs in self._subs.values() for sub in subs]
        self._conn.close()
        for sub in subs:
            sub.close()  # ends it, and wakes a reader blocked on it
        shared_loop.release()


# ---------------------------------------------------------------------------
# "vars:" endpoint component


def _split_var_path(uri: EndpointUri) -> tuple[str, int, str]:
    authority, sep, name = uri.path.partition("/")
    if not sep or not name:
        raise ValueError(f"vars endpoint needs <host>:<port>/<name>, got {uri.path!r}")
    host, sep, port = authority.rpartition(":")
    if not sep or not host:
        raise ValueError(f"vars endpoint needs host:port, got {authority!r}")
    return host, int(port), name


class _VarSubscribeConsumer(InboxConsumer):
    def __init__(self, client: VarClient, sub: VarSubscription):
        super().__init__(sub)
        self._client = client
        self._name = sub.var

    def try_get(self) -> Message | None:
        record = self._inbox.try_get()
        if record is None:
            return None
        value, version = record
        return Message(
            headers={VAR_NAME_HEADER: self._name, VAR_VERSION_HEADER: version},
            body=[value],
        )

    def close(self) -> None:
        self._client.close()


class _VarReadConsumer(InboxConsumer):
    """Sends a READ each time its engine timer fires, unless the last one is
    unanswered, and emits the value the reply brings once per version."""

    def __init__(self, client: VarClient, name: str):
        super().__init__(Inbox(DEFAULT_QUEUE_CAPACITY, f"vars-read:{name}"))
        self._client = client
        self._name = name
        self._last_version: int | None = None
        self._reading = False  # a READ is unanswered
        self._timer = None

    def start(self, route: Route) -> None:
        super().start(route)
        self._timer = route.every(READ_PERIOD_S, self._fire)

    def _fire(self) -> None:
        if self._reading:
            return
        self._reading = True
        try:
            self._client.read_later(self._name, self._on_reply)
        except (OSError, VarStoreProtocolError) as exc:
            # The client does not reconnect: stay "reading" and send no more.
            log.warning("vars read source %s lost its connection: %s", self._name, exc)

    def _on_reply(self, reply) -> None:
        if reply is None:
            return  # the connection closed: stay "reading" and send no more
        self._reading = False
        if not isinstance(reply, tuple):
            return  # ERR: the variable does not exist (yet)
        _, value, version = reply
        if version == self._last_version:
            return
        self._last_version = version
        self._inbox.push(Message(
            headers={VAR_NAME_HEADER: self._name, VAR_VERSION_HEADER: version},
            body=[value],
        ))

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        super().stop()

    def close(self) -> None:
        super().close()  # wakes a reader blocked on the inbox
        self._client.close()


class _VarWriteProducer(Producer):
    def __init__(self, client: VarClient, name: str):
        self._client = client
        self._name = name

    def send(self, message: Message) -> None:
        body = message.body
        if isinstance(body, list) and len(body) == 1:
            value = body[0]
        else:
            value = body
        self._client.write(self._name, value)

    def close(self) -> None:
        self._client.close()


class VarsComponent(Component):
    def validate(self, uri: EndpointUri, side: str) -> None:
        _split_var_path(uri)
        mode = uri.param("mode", "subscribe" if side == "source" else "write")
        if side == "source" and mode not in ("read", "subscribe"):
            raise ValueError(f"vars source mode must be read or subscribe, got {mode!r}")
        if side == "sink" and mode != "write":
            raise ValueError(f"vars sink mode must be write, got {mode!r}")

    def create_consumer(self, uri: EndpointUri, route: Route) -> Consumer:
        host, port, name = _split_var_path(uri)
        mode = uri.param("mode", "subscribe")
        client = VarClient(host, port)
        if mode == "read":
            return _VarReadConsumer(client, name)
        sub = client.subscribe(name)
        return _VarSubscribeConsumer(client, sub)

    def create_producer(self, uri: EndpointUri, route: Route) -> Producer:
        host, port, name = _split_var_path(uri)
        return _VarWriteProducer(VarClient(host, port), name)
