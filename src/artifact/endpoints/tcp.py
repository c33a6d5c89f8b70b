"""Newline-framed TCP endpoints.

Every socket here and in the variable-server client is a
:class:`~artifact.loop.LineConnection` on the process's shared
`artifact-loop` (see `artifact.loop`), which frames what it receives and
runs the handler of each line. A :class:`LineServer` registers its listener
on that loop, which accepts its peers; every client connection, of a "tcp:"
client endpoint or a variable-server client, is on the same loop. So the
number of servers, clients and peers adds no thread.

A sender writes its frame straight to the socket when no output waits, and
queues only what the socket does not take; the loop drains queued output,
in order, as the socket becomes writable, and closes a connection whose
output has waited ENQUEUE_TIMEOUT_S. A sender on another thread waits until
the socket has taken its frame; the loop never waits on a peer.

The "tcp:" scheme addresses `tcp:<host>:<port>?role=client|server`. A client
endpoint keeps one connection per (host, port), shared between the consumer
and producer side of routes; the shared loop connects it without blocking
and reconnects it with exponential backoff capped at 5 seconds. A client
send goes the same way on and off the loop, and no sender waits for a
connection: while the connection is down, or before its first connect, the
endpoint holds frames in order in one bounded buffer and writes them on
connect before any new frame. A held frame that has waited
ENQUEUE_TIMEOUT_S is dropped at the next connect or failed attempt, and
counted in the endpoint's `dropped`; a send that finds the buffer full
fails. Delivery is at most once: a frame the kernel took before the peer
reset the connection is lost, not sent again, since a second copy could
repeat a command. A connection whose peer has hung up (EPOLLRDHUP) counts
as down from the moment the loop sees it.

A server endpoint accepts any number of peers; its consumer surfaces lines
from all of them, its producer broadcasts. A server send off the loop waits
up to ENQUEUE_TIMEOUT_S for a first peer; on the loop, which alone could
accept one, a send with no peer fails at once. A route consuming from
"tcp:" runs on the loop that read the line, as Camel's ``direct:`` does, so
a reply reaches its gateway without a thread hand-off. That loop reads
nothing more until the route returns, so such a route must not wait for the
loop: a line that finds a stopped route's source full, or a closed
endpoint's source, is dropped at once and counted in the source's
`dropped`.
"""
from __future__ import annotations

import errno
import logging
import os
import select
import socket
import threading
import time
from collections import deque
from functools import partial

from ..errors import ConnectionClosedError
from ..loop import (
    CLIENT_EVENTS,
    CONNECT_TIMEOUT_S,
    ENQUEUE_TIMEOUT_S,
    JOIN_S,
    LineConnection,
    frame_line,
    shared_loop,
    tcp_connect,
)
from ..messages import Message
from ..routing import DEFAULT_QUEUE_CAPACITY, Component, Consumer, Inbox, InboxConsumer, Producer, Route
from ..uri import EndpointUri
from ..values import render_value

log = logging.getLogger(__name__)

BACKOFF_INITIAL_S = 0.05
BACKOFF_CAP_S = 5.0

REMOTE_HEADER = "tcp.remote"


def _drop_line(conn: LineConnection, line: str) -> None:
    """The handler of a server given none."""


class LineServer:
    """TCP listener on the shared loop, which accepts its peers and hands
    each line one sends to `handler(conn, line)`. The server holds a
    reference on the loop from construction to `stop`, and keeps its own
    connections."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, handler=_drop_line,
                 name: str = "tcp"):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((host, port))
            listener.listen(32)
            listener.setblocking(False)
        except OSError:
            listener.close()
            raise
        self.handler = handler
        self.name = name
        self._listener = listener
        self.host, self.port = listener.getsockname()
        self._lock = threading.Lock()
        # Guarded by _lock: the listed connections, and whether stop was called.
        self._conns: set[LineConnection] = set()
        self._conn_event = threading.Condition(self._lock)
        self._stopped = False
        self._loop = shared_loop.acquire()
        self._loop.call_soon(partial(self._loop.watch_fd, listener.fileno(), select.EPOLLIN,
                                     self._accept))
        log.info("%s listening on %s:%d", name, self.host, self.port)

    # -- on the loop ---------------------------------------------------------------

    def _accept(self, events: int) -> None:
        while True:
            try:
                sock, address = self._listener.accept()
            except BlockingIOError:
                return
            except OSError as exc:
                log.warning("%s accept failed: %s", self.name, exc)
                return
            sock.setblocking(False)
            conn = LineConnection(sock, f"{address[0]}:{address[1]}", self._loop, None, self._forget)
            conn.on_line = partial(self.handler, conn)
            # Listed before its first read, so no line is handled before
            # the server knows the connection.
            with self._lock:
                self._conns.add(conn)
                self._conn_event.notify_all()
            self._loop.add(conn)

    def _forget(self, conn: LineConnection) -> None:
        with self._lock:
            self._conns.discard(conn)

    def _close(self, done: threading.Event) -> None:
        """Close the listener and this server's connections, then set `done`
        once the loop has closed their sockets."""
        self._loop.unwatch_fd(self._listener.fileno())
        self._loop.close_socket(self._listener)
        for conn in self.connections():
            conn.close()
        self._loop.call_soon(done.set)  # runs after the sockets are closed

    # -- any thread ----------------------------------------------------------------

    def connections(self) -> list[LineConnection]:
        with self._lock:
            return list(self._conns)

    def wait_for_connection(self, timeout: float) -> bool:
        """Wait up to `timeout` for a peer; on the loop, which alone could
        accept one, only look."""
        if threading.get_ident() == self._loop.loop_ident:
            timeout = 0.0
        deadline = time.monotonic() + timeout
        with self._lock:
            while not self._conns:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._stopped:
                    return False
                self._conn_event.wait(remaining)
            return True

    def broadcast(self, line: str) -> int:
        """Send `line` to every peer, then wait for each; the number of
        peers whose socket took it."""
        waits = []
        for conn in self.connections():
            try:
                waits.append(conn.queue_line(line))
            except ConnectionClosedError:
                pass
        sent = 0
        for wait in waits:
            try:
                wait()
                sent += 1
            except ConnectionClosedError:
                pass
        return sent

    def drop_connections(self) -> int:
        """Close every current connection (used for fault injection)."""
        with self._lock:
            conns, self._conns = self._conns, set()
        for conn in conns:
            conn.close()
        return len(conns)

    def stop(self) -> None:
        """Close the listener and this server's connections on the loop, and
        let the loop go. Off the loop, return once the port can be bound
        again."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            self._conn_event.notify_all()
        done = threading.Event()
        self._loop.call_soon(partial(self._close, done))
        if threading.get_ident() != self._loop.loop_ident and not done.wait(JOIN_S):
            log.warning("%s did not close within %.1fs", self.name, JOIN_S)
        shared_loop.release()


class _ClientHub:
    """One maintained client connection on the shared loop, which connects
    it without blocking and reconnects it with capped backoff. While it is
    down, sends are held in order and written on the next connect."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.peer = f"{host}:{port}"
        self.inbox = Inbox(DEFAULT_QUEUE_CAPACITY, f"tcp:{self.peer}")
        self.dropped = 0  # held frames dropped unsent; guarded by _lock
        # Reentrant: a send the socket refuses closes the connection, which
        # on the loop tells `_on_close` at once.
        self._lock = threading.RLock()
        # Guarded by _lock: the connection while it is up, the frames held
        # while it is not with the time each was held, and whether the hub
        # is closed.
        self._conn: LineConnection | None = None
        self._held: deque[tuple[bytes, float]] = deque()
        self._closed = False
        # The loop's own: a socket whose connect is under way and its
        # deadline, and the wait before the next attempt.
        self._connecting: socket.socket | None = None
        self._connect_deadline = None
        self._backoff = BACKOFF_INITIAL_S
        self.refs = 0
        self._loop = shared_loop.acquire()
        self._loop.call_soon(self._connect)

    # -- on the loop ---------------------------------------------------------------

    def _connect(self) -> None:
        if self._closed:
            return
        sock = None
        try:
            family, kind, proto, _, address = socket.getaddrinfo(
                self.host, self.port, type=socket.SOCK_STREAM)[0]
            sock = socket.socket(family, kind, proto)
            sock.setblocking(False)
            err = sock.connect_ex(address)
        except OSError as exc:
            if sock is not None:
                self._loop.close_socket(sock)
            self._retry(exc)
            return
        if err == 0:
            self._up(sock)
        elif err == errno.EINPROGRESS:
            self._connecting = sock
            self._loop.watch_fd(sock.fileno(), select.EPOLLOUT, self._connect_done)
            self._connect_deadline = self._loop.call_later(CONNECT_TIMEOUT_S, self._connect_timed_out)
        else:
            self._loop.close_socket(sock)
            self._retry(OSError(err, os.strerror(err)))

    def _stop_connecting(self) -> socket.socket | None:
        """Stop watching the connect under way; returns its socket."""
        sock, self._connecting = self._connecting, None
        if sock is not None:
            self._loop.unwatch_fd(sock.fileno())
            self._connect_deadline.cancel()
        return sock

    def _connect_done(self, events: int) -> None:
        sock = self._stop_connecting()
        err = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
        if err:
            self._loop.close_socket(sock)
            self._retry(OSError(err, os.strerror(err)))
        else:
            self._up(sock)

    def _connect_timed_out(self) -> None:
        self._loop.close_socket(self._stop_connecting())
        self._retry(TimeoutError(f"no connection within {CONNECT_TIMEOUT_S:.1f}s"))

    def _retry(self, exc: Exception) -> None:
        log.warning("tcp %s connect failed (%s); retrying in %.2fs", self.peer, exc, self._backoff)
        self._drop_expired()
        self._loop.call_later(self._backoff, self._connect)
        self._backoff = min(self._backoff * 2, BACKOFF_CAP_S)

    def _up(self, sock: socket.socket) -> None:
        """Write the held frames, in order, then take new sends."""
        self._backoff = BACKOFF_INITIAL_S
        conn = LineConnection(sock, self.peer, self._loop, self._on_line, self._on_close,
                              CLIENT_EVENTS)
        self._loop.add(conn)
        self._drop_expired()
        with self._lock:
            closed = self._closed
            if not closed:
                held = self._held
                try:
                    while held:
                        conn.queue_frame(held[0][0])
                        held.popleft()
                    self._conn = conn
                except ConnectionClosedError:
                    pass  # down again: the rest stays held for the next connect
        if closed:
            conn.close()
        else:
            log.info("tcp %s connected", self.peer)

    def _on_line(self, line: str) -> None:
        self.inbox.push(Message(headers={REMOTE_HEADER: self.peer}, body=[line]))

    def _on_close(self, conn: LineConnection) -> None:
        with self._lock:
            if self._conn is conn:
                self._conn = None
            closed = self._closed
        if not closed:
            log.warning("tcp %s disconnected; reconnecting", self.peer)
            # A timer, so a loop that stops meanwhile makes no new socket.
            self._loop.call_later(0.0, self._connect)

    def _drop_expired(self) -> None:
        """Drop the held frames that have waited ENQUEUE_TIMEOUT_S; at each
        connect and each failed attempt."""
        now = time.monotonic()
        with self._lock:
            held, expired = self._held, 0
            while held and now - held[0][1] >= ENQUEUE_TIMEOUT_S:
                held.popleft()
                expired += 1
            self.dropped += expired
        if expired:
            log.warning("tcp %s stayed down for %.1fs; dropped %d held frame(s)",
                        self.peer, ENQUEUE_TIMEOUT_S, expired)

    def _shutdown(self) -> None:
        with self._lock:
            conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()
        sock = self._stop_connecting()
        if sock is not None:
            self._loop.close_socket(sock)

    # -- any thread ----------------------------------------------------------------

    def send_line(self, line: str) -> None:
        """Send one frame; while the connection is down, hold it for the
        next connect. FramingError for a line with a newline, and
        ConnectionClosedError once closed or when the held frames fill the
        buffer. Off the loop, a frame sent on a live connection waits until
        the socket has taken it."""
        data = frame_line(line)
        with self._lock:
            if self._closed:
                raise ConnectionClosedError(self.peer)
            conn = None if self._held else self._conn
            if conn is not None:
                try:
                    wait = conn.queue_frame(data)
                except ConnectionClosedError:
                    conn = None  # it went down under us
            if conn is None:
                if len(self._held) >= DEFAULT_QUEUE_CAPACITY:
                    raise ConnectionClosedError(
                        f"{self.peer} down with {len(self._held)} frames held")
                self._held.append((data, time.monotonic()))
                return
        wait()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self.dropped += len(self._held)
            self._held.clear()
        self.inbox.close()
        self._loop.call_soon(self._shutdown)
        shared_loop.release()


class _ServerHub:
    """Server-role endpoint state: a LineServer feeding an inbox."""

    def __init__(self, host: str, port: int):
        self.inbox = Inbox(DEFAULT_QUEUE_CAPACITY, f"tcp-server:{host}:{port}")
        self.server = LineServer(host, port, handler=self._on_line, name=f"tcp-server:{port}")
        self.refs = 0

    def _on_line(self, conn: LineConnection, line: str) -> None:
        self.inbox.push(Message(headers={REMOTE_HEADER: conn.peer}, body=[line]))

    def close(self) -> None:
        self.inbox.close()
        self.server.stop()


class _TcpConsumer(InboxConsumer):
    def __init__(self, component: "TcpComponent", key, inbox: Inbox):
        super().__init__(inbox)
        self._component = component
        self._key = key

    def close(self) -> None:
        self._component._release(self._key)


class _TcpClientProducer(Producer):
    def __init__(self, component: "TcpComponent", key, hub: _ClientHub):
        self._component = component
        self._key = key
        self._hub = hub

    def send(self, message: Message) -> None:
        self._hub.send_line(render_value(message.body))

    def close(self) -> None:
        self._component._release(self._key)


class _TcpServerProducer(Producer):
    def __init__(self, component: "TcpComponent", key, hub: _ServerHub):
        self._component = component
        self._key = key
        self._hub = hub

    def send(self, message: Message) -> None:
        server = self._hub.server
        if not server.wait_for_connection(ENQUEUE_TIMEOUT_S):
            raise ConnectionClosedError("no connected peer to send to")
        if server.broadcast(render_value(message.body)) == 0:
            raise ConnectionClosedError("no connected peer accepted the frame")

    def close(self) -> None:
        self._component._release(self._key)


class TcpComponent(Component):
    """Endpoint component for `tcp:<host>:<port>?role=client|server`."""

    def __init__(self):
        self._lock = threading.Lock()
        self._hubs: dict[tuple, object] = {}

    @staticmethod
    def _address(uri: EndpointUri) -> tuple[str, int]:
        host, sep, port = uri.path.rpartition(":")
        if not sep or not host:
            raise ValueError(f"tcp endpoint needs host:port, got {uri.path!r}")
        try:
            return host, int(port)
        except ValueError:
            raise ValueError(f"tcp port must be an integer, got {port!r}") from None

    def validate(self, uri: EndpointUri, side: str) -> None:
        self._address(uri)
        role = uri.param("role", "client")
        if role not in ("client", "server"):
            raise ValueError(f"tcp role must be client or server, got {role!r}")

    def _hub_for(self, uri: EndpointUri):
        host, port = self._address(uri)
        role = uri.param("role", "client")
        key = (host, port, role)
        with self._lock:
            hub = self._hubs.get(key)
            if hub is None:
                hub = _ClientHub(host, port) if role == "client" else _ServerHub(host, port)
                self._hubs[key] = hub
            hub.refs += 1
            return key, hub

    def _release(self, key) -> None:
        with self._lock:
            hub = self._hubs.get(key)
            if hub is None:
                return
            hub.refs -= 1
            if hub.refs <= 0:
                del self._hubs[key]
            else:
                hub = None
        if hub is not None:
            hub.close()

    def create_consumer(self, uri: EndpointUri, route: Route) -> Consumer:
        key, hub = self._hub_for(uri)
        return _TcpConsumer(self, key, hub.inbox)

    def create_producer(self, uri: EndpointUri, route: Route) -> Producer:
        key, hub = self._hub_for(uri)
        if isinstance(hub, _ClientHub):
            return _TcpClientProducer(self, key, hub)
        return _TcpServerProducer(self, key, hub)
