"""Epoll loops: line connections, their sockets and timers on one thread.

A :class:`Reactor` is an epoll loop thread like the event loop behind
Camel's netty component and Netty's ``EventLoop``: it reads and frames what
each of its non-blocking sockets receives, runs the line handler of each
line, drains queued output as a socket becomes writable, runs callables
handed to it from any thread and fires its timers. It is the only thread
that unregisters or closes its sockets.

The process runs one reactor, the `artifact-loop` thread (`shared_loop`):
every listener, every server and client connection and the timers of every
routing engine are on it. It starts with its first user and is stopped and
joined when the last one lets it go. A thread a reactor runs on is marked
(`loop_thread`), so that work made ready on it can run on it at once, as
Camel's ``direct:`` does. Nothing that runs on a loop may wait for that
loop.

A call queued on the loop with `call_when_idle` runs once a poll finds no
socket ready: the lines that the work at hand sends to the loop's own
sockets, and the work they set off, are handled first, the run-to-completion
rule of Seastar's and Netty's loops. A variable-server client wakes a thread
waiting for its reply that way. A loop that never runs dry still runs the
queued calls once the oldest has waited IDLE_TURNS turns that found events,
and a loop that stops runs them as it ends.

Frames are UTF-8 text lines terminated by LF, with no embedded newline. One
framer splits what each connection receives into lines: it drops a CR
before the LF, replaces invalid UTF-8, logs a line handler that raises and
goes on, and discards a partial last line.
"""
from __future__ import annotations

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

from .errors import ConnectionClosedError, FramingError

log = logging.getLogger(__name__)

# How long a hand-off into a full queue waits before the sender gives up and
# counts the message as lost to that receiver; also the deadline of a line
# sent on a socket.
ENQUEUE_TIMEOUT_S = 10.0
CONNECT_TIMEOUT_S = 5.0
JOIN_S = 5.0
READ_SIZE = 4096
# The most turns that find ready events a call queued with `call_when_idle`
# waits, counting the turn that queued it. Each turn carries the lines at
# hand one hop between sockets of the loop: a device chain (a variable push,
# the command it sets off and the device's reply) runs dry on the fourth
# turn, counting the one that read the reply that queued the wake, and eight
# leave such a chain room. Beside traffic that never lets the loop run dry,
# the wake waits these few turns, not a fixed time.
IDLE_TURNS = 8

_READ_EVENTS = select.EPOLLIN | select.EPOLLHUP | select.EPOLLERR | select.EPOLLRDHUP
# What a loop waits for on a served socket, and on a client socket, whose
# peer's FIN it marks at once.
_SERVED_EVENTS = select.EPOLLIN
CLIENT_EVENTS = select.EPOLLIN | select.EPOLLRDHUP


class _LoopThread(threading.local):
    reactor: "Reactor | None" = None  # set on a reactor's own thread


loop_thread = _LoopThread()


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
        """`queue_frame` of the frame of `line`; FramingError, sending
        nothing, for a line with a newline."""
        return self.queue_frame(frame_line(line))

    def queue_frame(self, data: bytes) -> Callable[[], None]:
        """Send one frame, or queue it behind the output before it; return a
        wait that returns once the socket has taken the frame.
        ConnectionClosedError if the connection is closed, its peer has hung
        up, or it closes before the frame is taken.

        The frame goes straight to the socket when no output waits, and only
        what the socket does not take is queued. On the loop the wait returns
        at once: the loop never waits on a peer.
        """
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
        else:
            self._shut_down()

    def _shut_down(self) -> None:
        """Mark the connection closed, wake its waiting senders and shut its
        socket down; the loop closes the socket after the events at hand."""
        with self._send_lock:
            self._closing.acquire(blocking=False)
            self._taken_cond.notify_all()
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


class LoopTimer:
    """A timer of a :class:`Reactor`: it calls `call()` once, or with a
    `period` on every later point of its grid. `cancel()` from any thread."""

    __slots__ = ("call", "period")

    def __init__(self, call: Callable[[], object], period: float | None):
        self.call = call
        self.period = period

    def cancel(self) -> None:
        self.call = None


class Reactor:
    """An epoll loop thread that owns non-blocking line connections.

    The loop reads and frames what each connection receives, runs its line
    handler, drains its queued output as the socket becomes writable and
    closes it once that output has waited ENQUEUE_TIMEOUT_S. It also runs
    the handlers of other descriptors it watches (`watch_fd`), callables
    handed to it from any thread (`call_soon`), timers set from any thread
    (`call_at`, `call_later`) and calls queued on the loop for when it goes
    idle (`call_when_idle`). While such a call waits, the loop polls without
    blocking, and it runs the queued calls, in order, when a poll finds
    nothing ready, when the oldest has waited IDLE_TURNS turns that found
    events and when it ends. Making it starts the thread, `artifact-loop`;
    `stop` stops it, closing every connection, and joins it.
    """

    def __init__(self):
        self._epoll = select.epoll()
        self._wake_fd = os.eventfd(0, os.EFD_NONBLOCK | os.EFD_CLOEXEC)
        self._epoll.register(self._wake_fd, select.EPOLLIN)
        self.loop_ident: int | None = None
        # The loop's own, but for `add`: its connections by descriptor, the
        # handlers of the other descriptors it watches, the connections
        # whose output waits for the socket to be writable, and its timers
        # as a heap of [deadline, sequence, LoopTimer].
        self._by_fd: dict[int, LineConnection] = {}
        self._handlers: dict[int, Callable[[int], object]] = {self._wake_fd: self._on_wake}
        self._backlog: set[LineConnection] = set()
        self._timers: list[list] = []
        self._timer_seq = itertools.count()
        # Sockets to close once the events at hand are handled: until then
        # no new socket can take the number of one an event names.
        self._dead: list[socket.socket] = []
        # Calls to make once the loop goes idle (`call_when_idle`), oldest
        # first, and the turns that found events since the oldest was queued.
        self._idle: list[Callable[[], object]] = []
        self._idle_turns = 0
        self._lock = threading.Lock()
        # Guarded by _lock: the callables handed to the loop, and the stop flag.
        self._calls: list[Callable[[], object]] = []
        self._stopped = False
        self._thread = threading.Thread(target=self._run, name="artifact-loop", daemon=True)
        self._thread.start()

    # -- the loop ----------------------------------------------------------------

    def _run(self) -> None:
        self.loop_ident = threading.get_ident()
        loop_thread.reactor = self
        poll, by_fd, handlers = self._epoll.poll, self._by_fd, self._handlers
        hangup, writable, readable = select.EPOLLRDHUP, select.EPOLLOUT, _READ_EVENTS
        try:
            while not self._stopped:
                ready = poll(0.0 if self._idle else self._poll_timeout())
                for fd, events in ready:
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
                if self._idle:
                    self._idle_turns += 1
                    if not ready or self._idle_turns >= IDLE_TURNS:
                        self._run_idle()
        except Exception:
            log.exception("%s failed; closing its connections", self._thread.name)
        finally:
            self._teardown()
            loop_thread.reactor = None

    def _poll_timeout(self) -> float:
        timers = self._timers
        while timers and timers[0][2].call is None:  # cancelled
            heapq.heappop(timers)
        if not self._backlog and not timers:
            return -1
        due = min(conn._frames[0][1] for conn in self._backlog) + ENQUEUE_TIMEOUT_S \
            if self._backlog else float("inf")
        if timers:
            due = min(due, timers[0][0])
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
            due, _, timer = heapq.heappop(timers)
            call, period = timer.call, timer.period
            if call is None:
                continue
            if period is not None:
                # The next deadline on the timer's grid after now: a source
                # that fell behind catches up by itself when it runs.
                due += period * (int((now - due) // period) + 1)
                heapq.heappush(timers, [due, next(self._timer_seq), timer])
            try:
                call()
            except Exception:
                log.exception("%s timer callback failed", self._thread.name)

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

    def _run_idle(self) -> None:
        calls, self._idle = self._idle, []
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
        conn._shut_down()
        self._dead.append(conn.sock)
        if conn.on_close is not None:
            conn.on_close(conn)

    def _teardown(self) -> None:
        self._on_wake()  # what was handed to the loop before it stopped
        for conn in list(self._by_fd.values()):
            self._finish(conn)
        self._run_idle()  # no caller waits past the loop's end
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

    def connections(self) -> list[LineConnection]:
        """The connections the loop serves; on the loop."""
        return list(self._by_fd.values())

    def call_when_idle(self, call: Callable[[], object]) -> None:
        """Call `call()` once the loop has no ready event left, after the
        work at hand and what it sets off on the loop; on the loop. Queued
        calls run in order when a poll finds nothing ready, when the oldest
        has waited IDLE_TURNS turns that found events, so a loop that never
        runs dry still runs them, and when the loop ends."""
        if not self._idle:
            self._idle_turns = 0
        self._idle.append(call)

    # -- any thread ----------------------------------------------------------------

    def call_at(self, due: float, call: Callable[[], object],
                period: float | None = None) -> LoopTimer:
        """Call `call()` on the loop at monotonic time `due` and, with a
        `period`, every `period` seconds after; dropped once the loop has
        stopped. Returns the timer, for `cancel()`."""
        timer = LoopTimer(call, period)
        if threading.get_ident() == self.loop_ident:
            self._add_timer(due, timer)
        else:
            self.call_soon(partial(self._add_timer, due, timer))
        return timer

    def call_later(self, delay: float, call: Callable[[], object]) -> LoopTimer:
        """Call `call()` on the loop after `delay` seconds."""
        return self.call_at(time.monotonic() + delay, call)

    def _add_timer(self, due: float, timer: LoopTimer) -> None:
        heapq.heappush(self._timers, [due, next(self._timer_seq), timer])

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
        conn = LineConnection(sock, f"{host}:{port}", self, on_line, on_close, CLIENT_EVENTS)
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


class _SharedLoop:
    """The one loop of the process, of every socket and engine timer:
    started by the first `acquire`, stopped and joined by the `release` of
    the last."""

    def __init__(self):
        self._lock = threading.Lock()
        self._loop: Reactor | None = None
        self._refs = 0

    def acquire(self) -> Reactor:
        with self._lock:
            if self._loop is None:
                self._loop = Reactor()
            self._refs += 1
            return self._loop

    def release(self) -> None:
        with self._lock:
            self._refs -= 1
            if self._refs:
                return
            loop, self._loop = self._loop, None
        loop.stop()


shared_loop = _SharedLoop()
