"""Newline-framed TCP endpoints.

Frames are UTF-8 text lines terminated by LF, no embedded newlines. Every
socket here and in the variable-server client is a :class:`LineConnection`,
and one framer splits what each receives into lines: it drops a CR before
the LF, replaces invalid UTF-8, logs a line handler that raises and goes on,
and discards a partial last line.

A :class:`LineServer` serves all its peers from one loop thread over
non-blocking sockets, an epoll reactor like the event loop behind Camel's
netty component: the loop accepts peers, reads and frames their bytes, and
runs the server's handler for each line. Only the loop writes to,
unregisters or closes a served socket. A frame the socket does not take at
once waits, in order, in the connection's output buffer until the socket is
writable; output that has waited ENQUEUE_TIMEOUT_S closes the connection.
A sender on another thread waits until the socket has taken its frame; the
loop never waits on a peer.

A client socket, of a "tcp:" client endpoint or a variable-server client,
keeps a thread that reads it and sends with blocking calls: it has no Python
timeout, which would cost a poll() before every recv and send, but a kernel
send deadline (SO_SNDTIMEO) of ENQUEUE_TIMEOUT_S, and a send that misses it
closes the connection.

The "tcp:" scheme addresses `tcp:<host>:<port>?role=client|server`. A client
endpoint keeps one connection per (host, port), shared between the consumer
and producer side of routes, and reconnects with exponential backoff capped
at 5 seconds. A server endpoint accepts any number of peers; its consumer
surfaces lines from all of them, its producer broadcasts. A route consuming
from "tcp:" runs on the thread that read the line, as Camel's ``direct:``
does, so a reply reaches its gateway without a thread hand-off. That thread
reads nothing more until the route returns, so such a route must not wait on
its own connection: a client send made on the thread that keeps the
connection fails at once while it is down, since only that thread could
bring it back. A line that finds a stopped route's source full is dropped
and counted in the source's `dropped`: on a client connection once the
source has stayed full for ENQUEUE_TIMEOUT_S, on a server's loop at once.
"""
from __future__ import annotations

import logging
import os
import select
import socket
import struct
import threading
import time
from collections import deque
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
READ_SIZE = 4096

REMOTE_HEADER = "tcp.remote"

_READ_EVENTS = select.EPOLLIN | select.EPOLLHUP | select.EPOLLERR


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


def _sent() -> None:
    """The wait for a frame that needs none."""


class LineConnection:
    """A connected socket carrying LF-framed UTF-8 lines, read by one thread
    with `read_lines` and written with blocking sends.

    One made by `connect` blocks without a Python timeout and has a kernel
    send deadline of ENQUEUE_TIMEOUT_S for each send call: a send that
    misses it closes the connection, since part of its frame may be gone.
    A recv timeout, should the socket have one, is taken as a silence.
    """

    def __init__(self, sock: socket.socket, peer: str):
        self.sock = sock
        self.peer = peer
        self._buffer = bytearray()  # bytes received after the last LF
        self._send_lock = threading.Lock()
        self._closing = threading.Lock()  # taken, never released, by close()

    @classmethod
    def connect(cls, host: str, port: int, timeout: float = 5.0) -> "LineConnection":
        """Connect within `timeout`, then block with the send deadline."""
        sock = tcp_connect(host, port, timeout)
        try:
            sock.settimeout(None)
            whole = int(ENQUEUE_TIMEOUT_S)
            deadline = struct.pack("ll", whole, int((ENQUEUE_TIMEOUT_S - whole) * 1e6))
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, deadline)
        except OSError:
            sock.close()
            raise
        return cls(sock, f"{host}:{port}")

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

    def feed(self, chunk: bytes, on_line: Callable[[str], object]) -> None:
        """Frame `chunk`, the next bytes received: hand each line it ends to
        `on_line`, logging a handler that raises with its line, and keep the
        bytes after the last LF for the next chunk."""
        buffer = self._buffer
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

    def read_lines(self, on_line: Callable[[str], object]) -> None:
        """Hand each line received to `on_line` until the peer or `close`
        ends the connection, then close it."""
        try:
            while True:
                try:
                    chunk = self.sock.recv(READ_SIZE)
                except TimeoutError:
                    continue
                if not chunk:
                    break
                self.feed(chunk, on_line)
        except OSError:
            pass
        finally:
            self.close()

    def close(self) -> None:
        if self._closing.acquire(blocking=False):
            shutdown_socket(self.sock)


class ServedConnection(LineConnection):
    """A peer of a :class:`LineServer`, on a non-blocking socket that the
    server's loop owns.

    Frames go through an output buffer that the loop drains in order; on
    the loop a frame goes straight to the socket when no output waits.
    """

    def __init__(self, sock: socket.socket, peer: str, server: "LineServer"):
        super().__init__(sock, peer)
        self.fd = sock.fileno()
        self.on_line = partial(server._handle_line, self)
        self._server = server
        # Guarded by _send_lock. Offsets count every byte queued since the
        # connection opened; `_frames` holds the end offset and queue time
        # of each frame in `_out`, oldest first.
        self._out = bytearray()
        self._frames: deque[tuple[int, float]] = deque()
        self._queued = 0
        self._taken = 0
        self._taken_cond = threading.Condition(self._send_lock)

    def send_line(self, line: str) -> None:
        """Send one frame; off the loop, wait until the socket has taken it."""
        self.queue_line(line)()

    def queue_line(self, line: str) -> Callable[[], None]:
        """Queue one frame behind the output before it; return a wait that
        returns once the socket has taken the frame. FramingError, queueing
        nothing, for a line with a newline; ConnectionClosedError if the
        connection is closed before the frame is taken.

        On the loop the frame goes to the socket at once when no output
        waits, and the wait returns at once: the loop never waits on a peer.
        """
        data = frame_line(line)
        if threading.get_ident() == self._server.loop_ident:
            self._send_on_loop(data)
            return _sent
        with self._send_lock:
            if self.closed:
                raise ConnectionClosedError(self.peer)
            idle = not self._out
            self._append(data)
            end = self._queued
        if idle:
            self._server._request_flush(self)
        return partial(self._wait_taken, end, time.monotonic() + ENQUEUE_TIMEOUT_S)

    def _append(self, data: bytes) -> None:
        self._out += data
        self._queued += len(data)
        self._frames.append((self._queued, time.monotonic()))

    def _send_on_loop(self, data: bytes) -> None:
        with self._send_lock:
            if self.closed:
                raise ConnectionClosedError(self.peer)
            if self._out:  # earlier output waits, and the loop sends this after it
                self._append(data)
                return
            try:
                taken = self.sock.send(data)
            except BlockingIOError:
                taken = 0
            except OSError:
                taken = -1
            if taken >= 0:
                self._queued += taken
                self._taken += taken
                if taken == len(data):
                    return
                self._append(data[taken:])
        if taken < 0:
            self._server._finish(self)
            raise ConnectionClosedError(self.peer)
        self._server._watch(self, True)

    def _wait_taken(self, end: int, deadline: float) -> None:
        with self._send_lock:
            while self._taken < end and not self.closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._taken_cond.wait(remaining)
            if self._taken >= end:
                return
        self.close()
        raise ConnectionClosedError(self.peer)

    def close(self) -> None:
        """Close now on the loop; off it, shut the socket down, which wakes
        the loop to close it."""
        if threading.get_ident() == self._server.loop_ident:
            self._server._finish(self)
            return
        with self._send_lock:
            if not self._closing.acquire(blocking=False):
                return
            self._taken_cond.notify_all()
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def _close_on_loop(self) -> None:
        with self._send_lock:
            self._closing.acquire(blocking=False)
            self._taken_cond.notify_all()
            shutdown_socket(self.sock)


class LineServer:
    """TCP listener delivering each received line to `handler(conn, line)`
    on the server's one loop thread."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, handler=None, name: str = "tcp"):
        self.handler = handler
        self.name = name
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(32)
        self._listener.setblocking(False)
        self.host, self.port = self._listener.getsockname()
        self._epoll = select.epoll()
        self._wake_fd = os.eventfd(0, os.EFD_NONBLOCK | os.EFD_CLOEXEC)
        self._epoll.register(self._listener.fileno(), select.EPOLLIN)
        self._epoll.register(self._wake_fd, select.EPOLLIN)
        self.loop_ident: int | None = None
        # The loop's own: its connections by descriptor, and those whose
        # output waits for the socket to be writable.
        self._by_fd: dict[int, ServedConnection] = {}
        self._backlog: set[ServedConnection] = set()
        self._lock = threading.Lock()
        # Guarded by _lock: the listed connections, connections with output
        # queued off the loop, and the stop flag.
        self._conns: set[ServedConnection] = set()
        self._to_flush: list[ServedConnection] = []
        self._stopped = False
        self._conn_event = threading.Condition(self._lock)
        self._thread = threading.Thread(target=self._run, name=f"server-loop-{name}", daemon=True)
        self._thread.start()
        log.info("%s listening on %s:%d", name, self.host, self.port)

    # -- the loop ----------------------------------------------------------------

    def _run(self) -> None:
        self.loop_ident = threading.get_ident()
        poll, by_fd = self._epoll.poll, self._by_fd
        listener_fd, wake_fd = self._listener.fileno(), self._wake_fd
        try:
            while not self._stopped:
                for fd, events in poll(self._poll_timeout()):
                    conn = by_fd.get(fd)
                    if conn is not None:
                        if events & select.EPOLLOUT:
                            self._flush(conn)
                        if events & _READ_EVENTS:
                            self._read(conn)
                    elif fd == listener_fd:
                        self._accept()
                    elif fd == wake_fd:
                        self._on_wake()
                if self._backlog:
                    self._expire()
        except Exception:
            log.exception("%s loop failed; closing its connections", self.name)
        finally:
            self._teardown()

    def _poll_timeout(self) -> float:
        if not self._backlog:
            return -1
        oldest = min(conn._frames[0][1] for conn in self._backlog)
        return max(0.0, oldest + ENQUEUE_TIMEOUT_S - time.monotonic())

    def _accept(self) -> None:
        while True:
            try:
                sock, address = self._listener.accept()
            except BlockingIOError:
                return
            except OSError as exc:
                log.warning("%s accept failed: %s", self.name, exc)
                return
            sock.setblocking(False)
            conn = ServedConnection(sock, f"{address[0]}:{address[1]}", self)
            # Listed before its first read, so no line is handled before
            # the server knows the connection.
            with self._lock:
                self._conns.add(conn)
                self._conn_event.notify_all()
            self._by_fd[conn.fd] = conn
            self._epoll.register(conn.fd, select.EPOLLIN)

    def _read(self, conn: ServedConnection) -> None:
        if not conn.closed:
            try:
                chunk = conn.sock.recv(READ_SIZE)
            except BlockingIOError:
                return
            except OSError:
                chunk = b""
            if chunk:
                conn.feed(chunk, conn.on_line)
                return
        self._finish(conn)

    def _handle_line(self, conn: ServedConnection, line: str) -> None:
        if self.handler is not None:
            self.handler(conn, line)

    def _flush(self, conn: ServedConnection) -> None:
        """Give the socket what it takes of `conn`'s waiting output."""
        with conn._send_lock:
            out = conn._out
            try:
                taken = conn.sock.send(out) if out else 0
            except BlockingIOError:
                taken = 0
            except OSError:
                taken = -1
            if taken > 0:
                del out[:taken]
                conn._taken += taken
                frames = conn._frames
                while frames and frames[0][0] <= conn._taken:
                    frames.popleft()
                conn._taken_cond.notify_all()
            waiting = bool(out)
        if taken < 0:
            self._finish(conn)
        else:
            self._watch(conn, waiting)

    def _watch(self, conn: ServedConnection, waiting: bool) -> None:
        """Wait, or stop waiting, for `conn`'s socket to be writable."""
        if waiting and conn not in self._backlog:
            self._backlog.add(conn)
            self._epoll.modify(conn.fd, select.EPOLLIN | select.EPOLLOUT)
        elif not waiting and conn in self._backlog:
            self._backlog.discard(conn)
            self._epoll.modify(conn.fd, select.EPOLLIN)

    def _expire(self) -> None:
        now = time.monotonic()
        for conn in [c for c in self._backlog if now - c._frames[0][1] >= ENQUEUE_TIMEOUT_S]:
            log.warning("tcp %s took no output for %.1fs; closing it", conn.peer, ENQUEUE_TIMEOUT_S)
            self._finish(conn)

    def _request_flush(self, conn: ServedConnection) -> None:
        """Ask the loop to send what `conn` has queued; off the loop."""
        with self._lock:
            if self._wake_fd < 0:
                return  # stopped, and every connection closed
            self._to_flush.append(conn)
            if len(self._to_flush) == 1:
                os.eventfd_write(self._wake_fd, 1)

    def _on_wake(self) -> None:
        try:
            os.eventfd_read(self._wake_fd)
        except BlockingIOError:
            pass
        with self._lock:
            conns, self._to_flush = self._to_flush, []
        for conn in conns:
            if self._by_fd.get(conn.fd) is conn:
                self._flush(conn)

    def _finish(self, conn: ServedConnection) -> None:
        """Unregister and close `conn`; on the loop."""
        if self._by_fd.get(conn.fd) is not conn:
            return
        del self._by_fd[conn.fd]
        self._epoll.unregister(conn.fd)
        self._backlog.discard(conn)
        with self._lock:
            self._conns.discard(conn)
        conn._close_on_loop()

    def _teardown(self) -> None:
        for conn in list(self._by_fd.values()):
            self._finish(conn)
        with self._lock:
            self._stopped = True
            os.close(self._wake_fd)
            self._wake_fd = -1
            self._to_flush.clear()
            self._conn_event.notify_all()
        self._epoll.close()
        self._listener.close()
        self.loop_ident = None

    # -- any thread ----------------------------------------------------------------

    def connections(self) -> list[ServedConnection]:
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
        """Queue `line` to every peer, then wait for each; the number of
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
        """Stop the loop, which closes the listener and every connection,
        and wait for it."""
        with self._lock:
            self._stopped = True
            if self._wake_fd >= 0:
                os.eventfd_write(self._wake_fd, 1)
            self._conn_event.notify_all()
        join_threads([self._thread])


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
                conn = LineConnection.connect(self.host, self.port)
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
        # On the server's loop, which serves every peer: a full inbox drops
        # the line at once rather than hold up the others.
        self.inbox.push(Message(headers={REMOTE_HEADER: conn.peer}, body=[line]), wait=False)

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
        self._inbox.add_listener(mailbox.drain)

    def stop(self) -> None:
        self._inbox.remove_listener(self._mailbox.drain)

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
