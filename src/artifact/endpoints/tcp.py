"""Newline-framed TCP endpoints.

Frames are UTF-8 text lines terminated by LF, no embedded newlines. Every
socket here and in the variable-server client is a :class:`LineConnection`,
and one framer splits what each receives into lines: it drops a CR before
the LF, replaces invalid UTF-8, logs a line handler that raises and goes on,
and discards a partial last line.

Every socket is non-blocking and owned by one :class:`Reactor`, an epoll
loop thread like the event loop behind Camel's netty component: the loop
reads and frames what each of its sockets receives, runs the line handler
of each line, and is the only thread that unregisters or closes a socket.
Each :class:`LineServer` runs its own loop, which also accepts its peers.
Every client connection in the process, of a "tcp:" client endpoint or a
variable-server client, shares one more loop, the `client-loop` thread: it
starts with the first client connection and is joined when the last one
closes. A client loop also sees a peer hang up (EPOLLRDHUP), and from then
on a sender takes the connection for down.

A sender writes its frame straight to the socket when no output waits, and
queues only what the socket does not take; the loop drains queued output,
in order, as the socket becomes writable, and closes a connection whose
output has waited ENQUEUE_TIMEOUT_S. A sender on another thread waits until
the socket has taken its frame; the loop never waits on a peer.

The "tcp:" scheme addresses `tcp:<host>:<port>?role=client|server`. A client
endpoint keeps one connection per (host, port), shared between the consumer
and producer side of routes; the client loop connects it without blocking
and reconnects it with exponential backoff capped at 5 seconds. A server
endpoint accepts any number of peers; its consumer surfaces lines from all
of them, its producer broadcasts. A route consuming from "tcp:" runs on the
loop that read the line, as Camel's ``direct:`` does, so a reply reaches its
gateway without a thread hand-off. That loop reads nothing more until the
route returns, so such a route must not wait for the loop: a client send
made on the loop fails at once while its connection is down, since only the
loop could bring it back, and a line that finds a stopped route's source
full is dropped at once and counted in the source's `dropped`.
"""
from __future__ import annotations

import errno
import heapq
import itertools
import logging
import os
import select
import socket
import threading
import time
from collections import deque
from functools import partial
from typing import Callable

from ..errors import ConnectionClosedError, FramingError
from ..messages import Message
from ..routing import ENQUEUE_TIMEOUT_S, Component, Consumer, Inbox, Producer, Route, RouteMailbox
from ..uri import EndpointUri
from ..values import render_value

log = logging.getLogger(__name__)

BACKOFF_INITIAL_S = 0.05
BACKOFF_CAP_S = 5.0
CONNECT_TIMEOUT_S = 5.0
JOIN_S = 5.0
READ_SIZE = 4096

REMOTE_HEADER = "tcp.remote"

_READ_EVENTS = select.EPOLLIN | select.EPOLLHUP | select.EPOLLERR | select.EPOLLRDHUP
# What a loop waits for on a served socket, and on a client socket, whose
# peer's FIN it marks at once.
_SERVED_EVENTS = select.EPOLLIN
_CLIENT_EVENTS = select.EPOLLIN | select.EPOLLRDHUP


def frame_line(text: str) -> bytes:
    if "\n" in text or "\r" in text:
        raise FramingError(f"payload contains a newline: {text!r}")
    return text.encode("utf-8") + b"\n"


def tcp_connect(host: str, port: int, timeout: float = CONNECT_TIMEOUT_S) -> socket.socket:
    """One-shot connect; raises ConnectionRefusedError like the socket API."""
    return socket.create_connection((host, port), timeout=timeout)


def _sent() -> None:
    """The wait for a frame that needs none."""


class LineConnection:
    """A connected non-blocking socket carrying LF-framed UTF-8 lines, owned
    by the loop of `reactor`, which hands each line received to `on_line`
    and, once the connection has ended, calls `on_close(conn)`.

    Frames go straight to the socket when no output waits, otherwise through
    an output buffer that the loop drains in order.
    """

    def __init__(self, sock: socket.socket, peer: str, reactor: "Reactor | None",
                 on_line: Callable[[str], object],
                 on_close: Callable[["LineConnection"], object] | None = None,
                 events: int = _SERVED_EVENTS):
        self.sock = sock
        self.fd = sock.fileno()
        self.peer = peer
        self.on_line = on_line
        self.on_close = on_close
        self.events = events  # what the loop waits for while no output waits
        self.hung_up = False  # the loop saw the peer's FIN; set on the loop only
        self._reactor = reactor
        self._buffer = bytearray()  # bytes received after the last LF
        self._send_lock = threading.Lock()
        self._closing = threading.Lock()  # taken, never released, by close()
        # Guarded by _send_lock. Offsets count every byte queued since the
        # connection opened; `_frames` holds the end offset and queue time
        # of each frame in `_out`, oldest first.
        self._out = bytearray()
        self._frames: deque[tuple[int, float]] = deque()
        self._queued = 0
        self._taken = 0
        self._taken_cond = threading.Condition(self._send_lock)

    @property
    def closed(self) -> bool:
        return self._closing.locked()

    def receive(self) -> bool:
        """Frame what one recv brings: hand each line it ends to `on_line`,
        logging a handler that raises with its line, and keep the bytes after
        the last LF for the next recv. False once the peer or `close` has
        ended the connection; a recv that would block is a silence."""
        try:
            chunk = self.sock.recv(READ_SIZE)
        except BlockingIOError:
            return True
        except OSError:
            return False
        if not chunk:
            return False
        buffer, on_line = self._buffer, self.on_line
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
        return True

    def send_line(self, line: str) -> None:
        """Send one frame; off the loop, wait until the socket has taken it."""
        self.queue_line(line)()

    def queue_line(self, line: str) -> Callable[[], None]:
        """Send one frame, or queue it behind the output before it; return a
        wait that returns once the socket has taken the frame. FramingError,
        sending nothing, for a line with a newline; ConnectionClosedError if
        the connection is closed, its peer has hung up, or it closes before
        the frame is taken.

        The frame goes straight to the socket when no output waits, and only
        what the socket does not take is queued. On the loop the wait returns
        at once: the loop never waits on a peer.
        """
        data = frame_line(line)
        wake = failed = False  # wake: the output buffer was empty, so the loop must drain it
        with self._send_lock:
            if self.closed or self.hung_up:
                raise ConnectionClosedError(self.peer)
            if self._out:  # earlier output waits, and the loop sends this after it
                self._append(data)
            else:
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
                        return _sent
                    self._append(data[taken:])
                    wake = True
                else:
                    failed = True
            end = self._queued
        if failed:
            self.close()
            raise ConnectionClosedError(self.peer)
        reactor = self._reactor
        on_loop = threading.get_ident() == reactor.loop_ident
        if wake:
            if on_loop:
                reactor._watch(self, True)
            else:
                reactor.call_soon(partial(reactor._flush_listed, self))
        if on_loop:
            return _sent
        return partial(self._wait_taken, end, time.monotonic() + ENQUEUE_TIMEOUT_S)

    def _append(self, data: bytes) -> None:
        self._out += data
        self._queued += len(data)
        self._frames.append((self._queued, time.monotonic()))

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
        if threading.get_ident() == self._reactor.loop_ident:
            self._reactor._finish(self)
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
        """Mark the connection closed and shut its socket down; the loop
        closes the socket after the events at hand."""
        with self._send_lock:
            self._closing.acquire(blocking=False)
            self._taken_cond.notify_all()
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


class Reactor:
    """An epoll loop thread that owns non-blocking line connections.

    The loop reads and frames what each connection receives, runs its line
    handler, drains its queued output as the socket becomes writable and
    closes it once that output has waited ENQUEUE_TIMEOUT_S. It also runs
    the handlers of other descriptors it watches (`watch_fd`), callables
    handed to it from any thread (`call_soon`) and its own timers
    (`call_later`). `start` starts the thread; `stop` stops it, closing every
    connection, and joins it.
    """

    def __init__(self, thread_name: str):
        self._epoll = select.epoll()
        self._wake_fd = os.eventfd(0, os.EFD_NONBLOCK | os.EFD_CLOEXEC)
        self._epoll.register(self._wake_fd, select.EPOLLIN)
        self.loop_ident: int | None = None
        # The loop's own, but for `add`: its connections by descriptor, the
        # handlers of the other descriptors it watches, the connections
        # whose output waits for the socket to be writable, and its timers
        # as a heap of [deadline, sequence, callable or None once cancelled].
        self._by_fd: dict[int, LineConnection] = {}
        self._handlers: dict[int, Callable[[int], object]] = {self._wake_fd: self._on_wake}
        self._backlog: set[LineConnection] = set()
        self._timers: list[list] = []
        self._timer_seq = itertools.count()
        # Sockets to close once the events at hand are handled: until then
        # no new socket can take the number of one an event names.
        self._dead: list[socket.socket] = []
        self._lock = threading.Lock()
        # Guarded by _lock: the callables handed to the loop, and the stop flag.
        self._calls: list[Callable[[], object]] = []
        self._stopped = False
        self._thread = threading.Thread(target=self._run, name=thread_name, daemon=True)

    def start(self) -> None:
        self._thread.start()

    # -- the loop ----------------------------------------------------------------

    def _run(self) -> None:
        self.loop_ident = threading.get_ident()
        poll, by_fd, handlers = self._epoll.poll, self._by_fd, self._handlers
        hangup, writable, readable = select.EPOLLRDHUP, select.EPOLLOUT, _READ_EVENTS
        try:
            while not self._stopped:
                for fd, events in poll(self._poll_timeout()):
                    conn = by_fd.get(fd)
                    if conn is not None:
                        if events & hangup:
                            conn.hung_up = True
                        if events & writable:
                            self._flush(conn)
                        if events & readable and (conn.closed or not conn.receive()):
                            self._finish(conn)
                    else:
                        handler = handlers.get(fd)
                        if handler is not None:
                            handler(events)
                if self._dead:
                    self._close_dead()
                if self._backlog or self._timers:
                    self._expire()
        except Exception:
            log.exception("%s failed; closing its connections", self._thread.name)
        finally:
            self._teardown()

    def _poll_timeout(self) -> float:
        if not self._backlog and not self._timers:
            return -1
        due = min(conn._frames[0][1] for conn in self._backlog) + ENQUEUE_TIMEOUT_S \
            if self._backlog else float("inf")
        if self._timers:
            due = min(due, self._timers[0][0])
        return max(0.0, due - time.monotonic())

    def _flush(self, conn: LineConnection) -> None:
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

    def _flush_listed(self, conn: LineConnection) -> None:
        if self._by_fd.get(conn.fd) is conn:
            self._flush(conn)

    def _watch(self, conn: LineConnection, waiting: bool) -> None:
        """Wait, or stop waiting, for `conn`'s socket to be writable."""
        if waiting and conn not in self._backlog:
            self._backlog.add(conn)
            self._epoll.modify(conn.fd, conn.events | select.EPOLLOUT)
        elif not waiting and conn in self._backlog:
            self._backlog.discard(conn)
            self._epoll.modify(conn.fd, conn.events)

    def _expire(self) -> None:
        now = time.monotonic()
        for conn in [c for c in self._backlog if now - c._frames[0][1] >= ENQUEUE_TIMEOUT_S]:
            log.warning("tcp %s took no output for %.1fs; closing it", conn.peer, ENQUEUE_TIMEOUT_S)
            self._finish(conn)
        timers = self._timers
        while timers and timers[0][0] <= now:
            call = heapq.heappop(timers)[2]
            if call is not None:
                call()

    def close_socket(self, sock: socket.socket) -> None:
        """Close `sock` after the events at hand; on the loop."""
        self._dead.append(sock)

    def _close_dead(self) -> None:
        dead, self._dead = self._dead, []
        for sock in dead:
            sock.close()

    def _on_wake(self, events: int = 0) -> None:
        try:
            os.eventfd_read(self._wake_fd)
        except BlockingIOError:
            pass
        with self._lock:
            calls, self._calls = self._calls, []
        for call in calls:
            call()

    def _finish(self, conn: LineConnection) -> None:
        """Unregister and close `conn`, then tell its owner; on the loop."""
        fd = conn.fd
        if self._by_fd.get(fd) is not conn:
            return
        del self._by_fd[fd]
        self._epoll.unregister(fd)
        self._backlog.discard(conn)
        conn._close_on_loop()
        self._dead.append(conn.sock)
        if conn.on_close is not None:
            conn.on_close(conn)

    def _teardown(self) -> None:
        self._on_wake()  # what was handed to the loop before it stopped
        for conn in list(self._by_fd.values()):
            self._finish(conn)
        with self._lock:
            self._stopped = True
            os.close(self._wake_fd)
            self._wake_fd = -1
            self._calls.clear()
        self._close_dead()
        self._epoll.close()
        self._timers.clear()
        self.loop_ident = None

    def watch_fd(self, fd: int, events: int, handler: Callable[[int], object]) -> None:
        """Call `handler(events)` on each event of `fd`; on the loop."""
        self._handlers[fd] = handler
        self._epoll.register(fd, events)

    def unwatch_fd(self, fd: int) -> None:
        if self._handlers.pop(fd, None) is not None:
            self._epoll.unregister(fd)

    def call_later(self, delay: float, call: Callable[[], object]) -> list:
        """Call `call()` on the loop after `delay` seconds; on the loop.
        Returns the timer, for `cancel`."""
        timer = [time.monotonic() + delay, next(self._timer_seq), call]
        heapq.heappush(self._timers, timer)
        return timer

    def cancel(self, timer: list) -> None:
        """Cancel a timer `call_later` returned; on the loop."""
        timer[2] = None
        timers = self._timers
        while timers and timers[0][2] is None:
            heapq.heappop(timers)

    # -- any thread ----------------------------------------------------------------

    def call_soon(self, call: Callable[[], object]) -> None:
        """Have the loop call `call()`; dropped once the loop has stopped."""
        with self._lock:
            if self._wake_fd < 0:
                return
            self._calls.append(call)
            if len(self._calls) == 1:
                os.eventfd_write(self._wake_fd, 1)

    def add(self, conn: LineConnection) -> None:
        """Hand the loop `conn`, whose socket is non-blocking."""
        # Listed before it is registered, so the loop knows each event's owner.
        self._by_fd[conn.fd] = conn
        self._epoll.register(conn.fd, conn.events)

    def connect(self, host: str, port: int, on_line: Callable[[str], object],
                on_close: Callable[[LineConnection], object] | None = None,
                timeout: float = CONNECT_TIMEOUT_S) -> LineConnection:
        """Connect within `timeout` on the calling thread and hand the
        connection to the loop."""
        sock = tcp_connect(host, port, timeout)
        sock.setblocking(False)
        conn = LineConnection(sock, f"{host}:{port}", self, on_line, on_close, _CLIENT_EVENTS)
        self.add(conn)
        return conn

    def stop(self) -> None:
        """Stop the loop, which closes every connection, and wait for it."""
        with self._lock:
            self._stopped = True
            if self._wake_fd >= 0:
                os.eventfd_write(self._wake_fd, 1)
        thread = self._thread
        if thread is not threading.current_thread():
            thread.join(JOIN_S)
            if thread.is_alive():
                log.warning("%s did not exit within %.1fs", thread.name, JOIN_S)


class _ClientLoop:
    """The one loop of every client connection in the process: started by
    the first `acquire`, stopped and joined by the `release` of the last."""

    def __init__(self):
        self._lock = threading.Lock()
        self._loop: Reactor | None = None
        self._refs = 0

    def acquire(self) -> Reactor:
        with self._lock:
            if self._loop is None:
                self._loop = Reactor("client-loop")
                self._loop.start()
            self._refs += 1
            return self._loop

    def release(self) -> None:
        with self._lock:
            self._refs -= 1
            if self._refs:
                return
            loop, self._loop = self._loop, None
        loop.stop()


client_loop = _ClientLoop()


class LineServer(Reactor):
    """TCP listener delivering each received line to `handler(conn, line)`
    on the server's one loop thread."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, handler=None, name: str = "tcp"):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((host, port))
            listener.listen(32)
            listener.setblocking(False)
        except OSError:
            listener.close()
            raise
        super().__init__(f"server-loop-{name}")
        self.handler = handler
        self.name = name
        self._listener = listener
        self.host, self.port = listener.getsockname()
        self.watch_fd(self._listener.fileno(), select.EPOLLIN, self._accept)
        # Guarded by _lock: the listed connections.
        self._conns: set[LineConnection] = set()
        self._conn_event = threading.Condition(self._lock)
        self.start()
        log.info("%s listening on %s:%d", name, self.host, self.port)

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
            conn = LineConnection(sock, f"{address[0]}:{address[1]}", self, None, self._forget)
            conn.on_line = partial(self._handle_line, conn)
            # Listed before its first read, so no line is handled before
            # the server knows the connection.
            with self._lock:
                self._conns.add(conn)
                self._conn_event.notify_all()
            self.add(conn)

    def _handle_line(self, conn: LineConnection, line: str) -> None:
        if self.handler is not None:
            self.handler(conn, line)

    def _forget(self, conn: LineConnection) -> None:
        with self._lock:
            self._conns.discard(conn)

    def _teardown(self) -> None:
        super()._teardown()
        self._listener.close()
        with self._lock:
            self._conn_event.notify_all()

    # -- any thread ----------------------------------------------------------------

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
        """Stop the loop, which closes the listener and every connection,
        and wait for it."""
        with self._lock:
            self._stopped = True
            self._conn_event.notify_all()
        super().stop()


class _ClientHub:
    """One maintained client connection on the client loop, which connects
    it without blocking and reconnects it with capped backoff."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.peer = f"{host}:{port}"
        self.inbox = Inbox(1024, f"tcp:{self.peer}")
        self._lock = threading.Lock()
        self._connected = threading.Condition(self._lock)
        # Guarded by _lock: the connection, up or not, and whether closed.
        self._conn: LineConnection | None = None
        self._closed = False
        # The loop's own: a socket whose connect is under way and its
        # deadline, and the wait before the next attempt.
        self._connecting: socket.socket | None = None
        self._connect_deadline: list | None = None
        self._backoff = BACKOFF_INITIAL_S
        self.refs = 0
        self._loop = client_loop.acquire()
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
            self._loop.cancel(self._connect_deadline)
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
        self._loop.call_later(self._backoff, self._connect)
        self._backoff = min(self._backoff * 2, BACKOFF_CAP_S)

    def _up(self, sock: socket.socket) -> None:
        self._backoff = BACKOFF_INITIAL_S
        conn = LineConnection(sock, self.peer, self._loop, self._on_line, self._on_close,
                              _CLIENT_EVENTS)
        self._loop.add(conn)
        with self._lock:
            closed = self._closed
            if not closed:
                self._conn = conn
                self._connected.notify_all()
        if closed:
            conn.close()
        else:
            log.info("tcp %s connected", self.peer)

    def _on_line(self, line: str) -> None:
        self.inbox.push(Message(headers={REMOTE_HEADER: self.peer}, body=[line]), wait=False)

    def _on_close(self, conn: LineConnection) -> None:
        with self._lock:
            if self._conn is conn:
                self._conn = None
            closed = self._closed
        if not closed:
            log.warning("tcp %s disconnected; reconnecting", self.peer)
            # A timer, so a loop that stops meanwhile makes no new socket.
            self._loop.call_later(0.0, self._connect)

    def _shutdown(self) -> None:
        with self._lock:
            conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()
        sock = self._stop_connecting()
        if sock is not None:
            self._loop.close_socket(sock)

    # -- any thread ----------------------------------------------------------------

    def send_line(self, line: str, timeout: float = ENQUEUE_TIMEOUT_S) -> None:
        """Send one frame, waiting through reconnects up to `timeout`; on
        the loop, failing at once while the connection is down."""
        on_loop = threading.get_ident() == self._loop.loop_ident
        deadline = None
        while True:
            with self._lock:
                while (conn := self._conn) is None or conn.closed or conn.hung_up:
                    if self._closed or on_loop:
                        raise ConnectionClosedError(self.peer)
                    if deadline is None:
                        deadline = time.monotonic() + timeout
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise ConnectionClosedError(f"{self.peer} unavailable for {timeout:.1f}s")
                    self._connected.wait(remaining)
            try:
                conn.send_line(line)
                return
            except ConnectionClosedError:
                if deadline is None:
                    deadline = time.monotonic() + timeout
                if on_loop or time.monotonic() >= deadline:
                    raise

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._connected.notify_all()
        self.inbox.close()
        self._loop.call_soon(self._shutdown)
        client_loop.release()


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
