"""Newline-framed TCP endpoints.

Frames are UTF-8 text lines terminated by LF, no embedded newlines. Every
socket here and in the variable-server client is a :class:`LineConnection`:
a send past its ENQUEUE_TIMEOUT_S deadline closes it, and its one read loop
hands each line to a handler on the reading thread, dropping a CR before the
LF, replacing invalid UTF-8 and discarding a partial last line. The "tcp:"
scheme addresses `tcp:<host>:<port>?role=client|server`. A client endpoint
keeps one connection per (host, port), shared between the consumer and
producer side of routes, and reconnects with exponential backoff capped at 5
seconds. A server endpoint accepts any number of peers; its consumer
surfaces lines from all of them, its producer broadcasts. A route consuming
from "tcp:" runs on the thread that read the line, as Camel's ``direct:``
does, so a reply reaches its gateway without a thread hand-off. That thread
reads nothing more until the route returns, so such a route must not wait on
its own connection: a client send made on the thread that keeps the
connection fails at once while it is down, since only that thread could
bring it back. A line that finds a stopped route's source full for
ENQUEUE_TIMEOUT_S is dropped and counted in the source's `dropped`.
"""
from __future__ import annotations

import logging
import socket
import threading
import time
from functools import partial
from typing import Callable, Iterable

from ..errors import ConnectionClosedError, FramingError
from ..messages import Message
from ..routing import ENQUEUE_TIMEOUT_S, Component, Consumer, Inbox, Producer, Route, RouteMailbox
from ..uri import EndpointUri
from ..values import render_value

log = logging.getLogger(__name__)

BACKOFF_INITIAL_S = 0.05
BACKOFF_CAP_S = 5.0
JOIN_S = 5.0

REMOTE_HEADER = "tcp.remote"


def frame_line(text: str) -> bytes:
    if "\n" in text or "\r" in text:
        raise FramingError(f"payload contains a newline: {text!r}")
    return text.encode("utf-8") + b"\n"


def tcp_connect(host: str, port: int, timeout: float = 5.0) -> socket.socket:
    """One-shot connect; raises ConnectionRefusedError like the socket API."""
    return socket.create_connection((host, port), timeout=timeout)


def shutdown_socket(sock: socket.socket) -> None:
    """Tear a connection down so peers and blocked reader threads wake up.

    A bare close() does not interrupt a recv() another thread is blocked in,
    and no FIN reaches the peer until that syscall returns."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def join_threads(threads: Iterable[threading.Thread]) -> None:
    """Join `threads` within JOIN_S in all, skipping the calling thread."""
    deadline = time.monotonic() + JOIN_S
    for thread in threads:
        if thread is threading.current_thread():
            continue
        thread.join(max(0.0, deadline - time.monotonic()))
        if thread.is_alive():
            log.warning("%s did not exit within %.1fs", thread.name, JOIN_S)


class LineConnection:
    """A connected socket carrying LF-framed UTF-8 lines.

    The socket's timeout is the send deadline, ENQUEUE_TIMEOUT_S: a send
    that cannot finish by then closes the connection, since part of its
    frame may be gone. The same timeout ends a silent recv, which the read
    loop takes as no more than a silence.
    """

    def __init__(self, sock: socket.socket, peer: str):
        sock.settimeout(ENQUEUE_TIMEOUT_S)
        self.sock = sock
        self.peer = peer
        self._send_lock = threading.Lock()
        self._closing = threading.Lock()  # taken, never released, by close()

    @property
    def closed(self) -> bool:
        return self._closing.locked()

    def send_line(self, line: str) -> None:
        """Send one frame. FramingError, sending nothing, for a line with a
        newline; ConnectionClosedError, closing, if the send fails or times out."""
        data = frame_line(line)
        with self._send_lock:
            try:
                self.sock.sendall(data)
            except OSError as exc:
                self.close()
                raise ConnectionClosedError(self.peer) from exc

    def read_lines(self, on_line: Callable[[str], object]) -> None:
        """Hand each line received to `on_line` until the peer or `close`
        ends the connection, then close it. A handler that raises is logged
        with its line, and reading goes on."""
        buffer = bytearray()
        try:
            while True:
                try:
                    chunk = self.sock.recv(4096)
                except TimeoutError:
                    continue
                if not chunk:
                    break
                buffer += chunk
                start = 0
                while (end := buffer.find(b"\n", start)) >= 0:
                    line = buffer[start:end].rstrip(b"\r").decode("utf-8", errors="replace")
                    start = end + 1
                    try:
                        on_line(line)
                    except Exception:
                        log.exception("tcp %s line handler failed for %r", self.peer, line)
                del buffer[:start]
        except OSError:
            pass
        finally:
            self.close()

    def close(self) -> None:
        if self._closing.acquire(blocking=False):
            shutdown_socket(self.sock)


class LineServer:
    """TCP listener delivering each received line to `handler(conn, line)`
    on a reader thread per connection."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, handler=None, name: str = "tcp"):
        self.handler = handler
        self.name = name
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(32)
        self.host, self.port = self._listener.getsockname()
        self._lock = threading.Lock()
        self._conns: dict[LineConnection, threading.Thread] = {}  # with their readers
        self._conn_event = threading.Condition(self._lock)
        self._stopped = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{name}-accept", daemon=True
        )
        self._accept_thread.start()
        log.info("%s listening on %s:%d", name, self.host, self.port)

    def _accept_loop(self) -> None:
        while not self._stopped:
            try:
                sock, peer = self._listener.accept()
            except OSError:
                return
            if self._stopped:
                shutdown_socket(sock)
                return
            conn = LineConnection(sock, f"{peer[0]}:{peer[1]}")
            reader = threading.Thread(
                target=self._serve, args=(conn,), name=f"tcp-server-conn-{conn.peer}", daemon=True
            )
            # Listed before its reader starts, so no line is handled before
            # the server knows the connection.
            with self._lock:
                self._conns[conn] = reader
                self._conn_event.notify_all()
            reader.start()

    def _serve(self, conn: LineConnection) -> None:
        conn.read_lines(partial(self._handle_line, conn))
        with self._lock:
            self._conns.pop(conn, None)

    def _handle_line(self, conn: LineConnection, line: str) -> None:
        if self.handler is not None:
            self.handler(conn, line)

    def connections(self) -> list[LineConnection]:
        with self._lock:
            return list(self._conns)

    def wait_for_connection(self, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        with self._lock:
            while not self._conns:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._stopped:
                    return False
                self._conn_event.wait(remaining)
            return True

    def broadcast(self, line: str) -> int:
        sent = 0
        for conn in self.connections():
            try:
                conn.send_line(line)
                sent += 1
            except ConnectionClosedError:
                pass
        return sent

    def drop_connections(self) -> int:
        """Close every current connection (used for fault injection)."""
        with self._lock:
            conns, self._conns = self._conns, {}
        for conn in conns:
            conn.close()
        return len(conns)

    def stop(self) -> None:
        """Stop accepting, wait for the accept thread, then drop every peer
        and wait for its reader."""
        self._stopped = True
        # close() alone leaves the accept thread blocked in accept() for good.
        shutdown_socket(self._listener)
        join_threads([self._accept_thread])
        with self._lock:
            readers = list(self._conns.values())
        self.drop_connections()
        join_threads(readers)


class _ClientHub:
    """One maintained client connection; reconnects with capped backoff."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.peer = f"{host}:{port}"
        self.inbox = Inbox(1024, f"tcp:{self.peer}")
        self._lock = threading.Lock()
        self._connected = threading.Condition(self._lock)
        self._conn: LineConnection | None = None
        self._closed = False
        self.refs = 0
        self._thread = threading.Thread(
            target=self._connection_loop, name=f"tcp-client-{self.peer}", daemon=True
        )
        self._thread.start()

    @property
    def _sock(self) -> socket.socket | None:
        """The connected socket, or None."""
        conn = self._conn
        return None if conn is None else conn.sock

    def _connection_loop(self) -> None:
        backoff = BACKOFF_INITIAL_S
        while not self._closed:
            try:
                conn = LineConnection(tcp_connect(self.host, self.port), self.peer)
            except OSError as exc:
                log.warning("tcp %s connect failed (%s); retrying in %.2fs", self.peer, exc, backoff)
                with self._lock:
                    self._connected.wait_for(lambda: self._closed, backoff)
                backoff = min(backoff * 2, BACKOFF_CAP_S)
                continue
            backoff = BACKOFF_INITIAL_S
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                self._conn = conn
                self._connected.notify_all()
            log.info("tcp %s connected", self.peer)
            conn.read_lines(self._on_line)
            with self._lock:
                self._conn = None
            if not self._closed:
                log.warning("tcp %s disconnected; reconnecting", self.peer)

    def _on_line(self, line: str) -> None:
        self.inbox.push(Message(headers={REMOTE_HEADER: self.peer}, body=[line]))

    def send_line(self, line: str, timeout: float = ENQUEUE_TIMEOUT_S) -> None:
        """Send one frame, waiting through reconnects up to `timeout`; on
        the connection's own thread, not waiting at all."""
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                while self._conn is None or self._conn.closed:
                    if self._closed or threading.current_thread() is self._thread:
                        raise ConnectionClosedError(self.peer)
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise ConnectionClosedError(f"{self.peer} unavailable for {timeout:.1f}s")
                    self._connected.wait(remaining)
                conn = self._conn
            try:
                conn.send_line(line)
                return
            except ConnectionClosedError:
                if time.monotonic() >= deadline:
                    raise

    def close(self) -> None:
        with self._lock:
            self._closed = True
            conn = self._conn
            self._connected.notify_all()
        if conn is not None:
            conn.close()
        self.inbox.close()
        join_threads([self._thread])


class _ServerHub:
    """Server-role endpoint state: a LineServer feeding an inbox."""

    def __init__(self, host: str, port: int):
        self.inbox = Inbox(1024, f"tcp-server:{host}:{port}")
        self.server = LineServer(host, port, handler=self._on_line, name=f"tcp-server:{port}")
        self.refs = 0

    def _on_line(self, conn: LineConnection, line: str) -> None:
        self.inbox.push(Message(headers={REMOTE_HEADER: conn.peer}, body=[line]))

    def close(self) -> None:
        self.inbox.close()  # wakes a reader blocked on it, for stop to join
        self.server.stop()


class _TcpConsumer(Consumer):
    def __init__(self, component: "TcpComponent", key, inbox: Inbox):
        self._component = component
        self._key = key
        self._inbox = inbox
        self._mailbox: RouteMailbox | None = None

    def start(self, mailbox: RouteMailbox) -> None:
        self._mailbox = mailbox
        self._inbox.listeners.attach(mailbox.drain)

    def stop(self) -> None:
        self._inbox.listeners.detach(self._mailbox.drain)

    def try_get(self) -> Message | None:
        return self._inbox.try_get()

    def __len__(self) -> int:
        return len(self._inbox)

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
        line = render_value(message.body)
        if not self._hub.server.wait_for_connection(timeout=10.0):
            raise ConnectionClosedError("no connected peer to send to")
        if self._hub.server.broadcast(line) == 0:
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
