"""EIP-style route definitions and execution.

A route takes messages from a consumer endpoint, applies an ordered processor
chain, and hands them to a producer endpoint. Endpoint components are
registered by URI scheme. No route owns a thread: a route is its own
serial mailbox over its consumer, which buffers what arrives and, while the
route is started, makes it ready to run. A route runs on the loop thread
that feeds it (Camel's ``direct:``): a route made ready on the loop outside
any operation (by a line a socket source read, by a timer, or by an
observer of an operation a socket reached) drains there. Anywhere else,
in-process sources schedule it on the engine's worker pool (SEDA, Camel's
``seda:``), which grows only while its workers are blocked. The engine's
timers run on the process's shared loop (`artifact.loop`). A
route with an empty processor chain hands the message its consumer took to
its producer as is; a chain works on a private copy. A message whose
processing or delivery fails moves to the route's dead-letter queue with
the error attached; the queue is made with the route's first dead letter.
An engine parses each endpoint URI string once and shares the immutable
`EndpointUri` between the routes that name it.
"""
from __future__ import annotations

import itertools
import logging
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

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
from .loop import ENQUEUE_TIMEOUT_S, LoopTimer, Reactor, loop_thread, shared_loop
from .messages import Message
from .runtime import thread_ops
from .uri import EndpointUri, parse_endpoint_uri
from .values import Value, copy_value

log = logging.getLogger(__name__)

DEFAULT_QUEUE_CAPACITY = 1024
# A pool worker left idle this long exits; workers start again on demand.
IDLE_RETIRE_S = 10.0


class _ThreadState(threading.local):
    worker: "_Worker | None" = None  # set on the engine's pool workers


_thread_state = _ThreadState()


# ---------------------------------------------------------------------------
# bounded FIFO queue


class MessageQueue:
    """Bounded multi-producer/multi-consumer FIFO with blocking put/get.

    Getters and putters wait on separate conditions over one lock, and each
    side counts its blocked threads, so an item or a free slot wakes one
    waiter, and only when there is one. A woken thread re-checks the deque
    even when its wait timed out, because a notify can race the timeout and
    would otherwise be lost. Most queues never wait, so each condition is
    made by the first thread that waits on it; a side is notified only while
    it counts a waiter, so its condition exists by then.
    """

    def __init__(self, capacity: int = DEFAULT_QUEUE_CAPACITY, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._not_empty: threading.Condition | None = None  # made by the first get that waits
        self._not_full: threading.Condition | None = None  # made by the first put that waits
        self._getters = 0  # threads blocked in get, guarded by _lock
        self._putters = 0  # threads blocked in put, guarded by _lock
        self._closed = False

    def put(self, item, timeout: float | None = None) -> None:
        """Append; blocks while full. QueueFullError after `timeout` seconds."""
        deadline = None  # read from the clock only once the queue is full
        with self._lock:
            while len(self._items) >= self.capacity:
                if self._closed:
                    raise QueueClosedError(self.name)
                worker = _thread_state.worker
                if worker is not None and worker.next is not None:
                    # The drain parked in this worker's next slot may be the
                    # only one that empties this queue: hand it on first.
                    self._lock.release()
                    try:
                        worker.pool.unpark(worker)
                    finally:
                        self._lock.acquire()
                    continue
                if timeout is None:
                    remaining = None
                else:
                    if deadline is None:
                        deadline = time.monotonic() + timeout
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise QueueFullError(self.name)
                if self._not_full is None:
                    self._not_full = threading.Condition(self._lock)
                self._putters += 1
                try:
                    self._not_full.wait(remaining)
                finally:
                    self._putters -= 1
            if self._closed:
                raise QueueClosedError(self.name)
            self._items.append(item)
            if self._getters:
                self._not_empty.notify()

    def get(self, timeout: float | None = None):
        """Pop the oldest item or return None on timeout / when closed empty."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while not self._items:
                if self._closed:
                    return None
                if deadline is None:
                    remaining = None
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                if self._not_empty is None:
                    self._not_empty = threading.Condition(self._lock)
                self._getters += 1
                try:
                    self._not_empty.wait(remaining)
                finally:
                    self._getters -= 1
            item = self._items.popleft()
            if self._putters:
                self._not_full.notify()
            return item

    def try_get(self):
        with self._lock:
            if not self._items:
                return None
            item = self._items.popleft()
            if self._putters:
                self._not_full.notify()
            return item

    def close(self) -> None:
        """Refuse further puts and wake every blocked getter and putter."""
        with self._lock:
            self._closed = True
            for waiters in (self._not_empty, self._not_full):
                if waiters is not None:
                    waiters.notify_all()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __len__(self) -> int:
        # One atomic read of the deque; only writers take the lock.
        return len(self._items)


class Listeners:
    """Mixin for a source that tells its listeners, in the order they were
    added, that it has something waiting.

    `add_listener` and `remove_listener` replace the listeners under the
    source's `_lock`, so `notify_listeners` takes no lock. One listener is
    kept as is and more in a tuple, so a source with one listener carries no
    object for it but the callable. A source that is also its route's
    consumer gets `start` and `stop` from here: they add and remove the
    route, a callable.
    """

    _lock: threading.Lock
    _listening: "Callable[[], None] | tuple[Callable[[], None], ...] | None" = None

    def add_listener(self, call: Callable[[], None]) -> None:
        with self._lock:
            current = self._listening
            if current is None:
                self._listening = call
            elif type(current) is tuple:
                self._listening = current + (call,)
            else:
                self._listening = (current, call)

    def remove_listener(self, call: Callable[[], None]) -> None:
        with self._lock:
            current = self._listening
            if type(current) is not tuple:
                current = () if current is None else (current,)
            left = tuple(c for c in current if c != call)
            self._listening = left[0] if len(left) == 1 else left or None

    def notify_listeners(self) -> None:
        calls = self._listening
        if type(calls) is tuple:
            for call in calls:
                call()
        elif calls is not None:
            calls()

    def start(self, route: "Route") -> None:
        self.add_listener(route)

    def stop(self, route: "Route") -> None:
        self.remove_listener(route)


class Inbox(MessageQueue, Listeners):
    """A bounded FIFO whose listeners hear of each item put with `push`: the
    buffer of a push-driven route source."""

    def __init__(self, capacity: int = DEFAULT_QUEUE_CAPACITY, name: str = ""):
        super().__init__(capacity, name)
        self.dropped = 0  # items `push` found no room for; guarded by _lock
        # A push dropped an item and none has fit since, so one warning is
        # logged per run of drops; written under _lock.
        self._shedding = False

    def push(self, item) -> None:
        """Put `item` and tell the listeners. An item that finds the inbox
        full or closed is dropped at once and counted, so the loop that
        pushes it goes on serving its connections; the first drop of each
        run of drops is logged."""
        try:
            self.put(item, 0.0)
        except (QueueFullError, QueueClosedError) as exc:
            with self._lock:
                self.dropped += 1
                first = not self._shedding
                self._shedding = True
            if first:
                log.warning("%s is %s", self.name, "closed; dropping every item"
                            if isinstance(exc, QueueClosedError) else
                            "full; dropping items until it has room")
            return
        if self._shedding:
            with self._lock:
                self._shedding = False
        self.notify_listeners()


# ---------------------------------------------------------------------------
# serial mailboxes


class Mailbox:
    """A serial mailbox: messages taken from a source in FIFO order and handed
    to `handle`, by one thread at a time. A subclass may define the method
    `_handle` instead of passing `handle`; a `Route` is such a subclass,
    whose source is its consumer.

    The source offers `try_get()` and `len()`, and `put()` for `offer`. The
    draining thread holds the box's claim, a lock taken without blocking; a
    thread that finds it held leaves its message to the holder, who
    re-checks the source after letting the claim go, so no message is
    stranded. Nothing drains while the box is closed.
    """

    def __init__(self, source, handle: Callable[[Message], object] | None = None):
        self._source = source
        if handle is not None:
            self._handle = handle
        self._claim = threading.Lock()
        self.open = False
        self.drainer: int | None = None  # thread id of the running drain

    def claim(self) -> bool:
        return self.open and self._claim.acquire(blocking=False)

    def release(self) -> bool:
        """Let the claim go, then re-check the source. True when a message
        arrived meanwhile and this thread took the claim back: the caller
        must run the box again, or no other thread might."""
        self._claim.release()
        return self.pending() and self.claim()

    def pending(self) -> bool:
        return self.open and len(self._source) > 0

    def busy(self) -> bool:
        return self._claim.locked()

    def run(self, limit: int = sys.maxsize) -> None:
        """Hand up to `limit` messages to the handler while open; the caller
        holds the claim."""
        source, handle = self._source, self._handle
        self.drainer = threading.get_ident()
        try:
            for _ in range(limit):
                if not self.open:
                    break
                message = source.try_get()
                if message is None:
                    break
                handle(message)
        finally:
            self.drainer = None

    def drain(self) -> None:
        """Drain on this thread until the source is empty, unless another
        thread drains or the box is closed."""
        if self.claim():
            self._drain_claimed()

    def offer(self, message: Message, timeout: float | None = None) -> None:
        """Hand `message` to the handler on this thread when the box is open,
        no other thread drains it and nothing is queued; otherwise put it
        behind what is queued (QueueFullError after `timeout` seconds while
        the source stays full) and drain.

        Offered from inside the handler of this box's drain, the message
        is handed over only after that handler returns."""
        if self.claim():
            # Set before `open` is read again, so a closer that reads it
            # None finds the box closed here, and one that reads it set
            # waits for this delivery.
            self.drainer = threading.get_ident()
            if self.open and not len(self._source):
                self._drain_claimed(message)
                return
            self.drainer = None
            self._claim.release()
        self._source.put(message, timeout=timeout)
        self.drain()

    def _drain_claimed(self, first: Message | None = None) -> None:
        """Hand `first`, when given, and then what the source holds to the
        handler until the re-check after letting the claim go finds nothing.
        The caller holds the claim and, when it passes `first`, has set
        `drainer`."""
        again = True
        while again:
            try:
                if first is not None:
                    try:
                        self._handle(first)
                    finally:
                        self.drainer = None
                    first = None
                else:
                    self.run()
            except BaseException:
                self._claim.release()
                raise
            again = self.release()

    def wait_idle(self, timeout: float) -> bool:
        """Wait for a drain running on another thread; False if it still runs
        after `timeout`. Close the box first. Called from the drain itself it
        does not wait: the drain ends once the message in hand returns."""
        drainer = self.drainer
        if drainer is None or drainer == threading.get_ident():
            return True  # a drain that starts now finds the box closed
        worker = _thread_state.worker
        if worker is not None:
            worker.pool.unpark(worker)
        if not self._claim.acquire(timeout=timeout):
            return False
        self._claim.release()
        return True


class _Worker:
    __slots__ = ("pool", "thread", "next", "wake", "woken")

    def __init__(self, pool: "WorkerPool"):
        self.pool = pool
        self.thread: threading.Thread | None = None
        self.next: Route | None = None  # runs after the drain in hand
        self.wake = threading.Condition(pool._lock)
        self.woken = True  # handed a task and not yet looked for it


class WorkerPool:
    """Runs routes on worker threads it starts on demand.

    A route is scheduled while its claim is held, so it has at most one
    outstanding task, and the pool never needs more workers than there are
    routes. A route a worker schedules waits in that worker's one-task
    next slot and runs on it after the drain in hand (the LIFO slot of
    Tokio's scheduler); one already there moves to the shared FIFO run
    queue, where other threads schedule too. A queued task wakes the worker
    idle the shortest time; the first task starts the first worker.

    The engine's timers run on the shared loop. The pool takes the engine's
    one reference on that loop with its first worker or its first timer
    (`timer_loop`), and `stop` drops it; so an engine that needs neither
    starts no loop.

    When every worker is busy a task waits. A loop timer looks at the queue
    one interpreter switch interval later, and then every interval while
    tasks wait. A look finds the busy workers blocked outside the
    interpreter, in an operation's sleep or I/O, when the process spent
    less than half of the interval on a CPU and the look itself fired
    within half an interval of its deadline. After two such looks in a
    row, each task that has waited an interval gets a worker of its own.
    A thread that holds the interpreter lock shows as CPU time and delays
    the look by an interval, so it starts no worker, which would only
    wait for that lock; so does a loop busy with other work, such as a
    route it runs, since that too makes the look late. The second look
    keeps a process that the machine did not run for a moment from passing
    for blocked workers. A worker idle for IDLE_RETIRE_S exits.
    """

    def __init__(self, name: str):
        self._name = name
        self._loop: Reactor | None = None  # the shared loop, once referenced
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._tasks: deque[tuple[Route, float]] = deque()  # (route, queued at)
        self._workers: list[_Worker] = []
        self._idle: list[_Worker] = []  # waiting for a task, the longest idle first
        self._coming = 0  # workers handed a task, not yet looking for it
        self._check_due: float | None = None  # when the armed check fires
        self._check_since = (0.0, 0.0)  # (monotonic, process CPU) when armed
        self._blocked_looks = 0  # successive checks that found the workers blocked
        self._closing = False

    def schedule(self, route: Route) -> None:
        """Run `route.run_batch()` soon; the caller holds the route's claim."""
        worker = _thread_state.worker
        if worker is not None and worker.pool is self:
            route, worker.next = worker.next, route
            if route is None:
                return
        with self._lock:
            started = self._push(route)
        if started is not None:
            started.start()

    def unpark(self, worker: _Worker) -> None:
        """Move the worker's next-slot task to the shared queue; the worker
        is about to block."""
        route, worker.next = worker.next, None
        if route is not None:
            with self._lock:
                started = self._push(route)
            if started is not None:
                started.start()

    def _push(self, route: Route) -> threading.Thread | None:
        """Queue a task, under the lock; returns a new worker for the caller
        to start once the lock is released, when one is needed."""
        now = time.monotonic()
        self._tasks.append((route, now))
        if self._idle:
            self._hand(self._idle.pop())
        elif not self._workers:
            return self._new_worker()
        elif self._check_due is None and not self._closing:
            self._blocked_looks = 0
            self._arm(now)
        return None

    def _arm(self, now: float) -> None:
        self._check_due = now + sys.getswitchinterval()
        self._check_since = (now, time.process_time())
        self._timer_loop_locked().call_at(self._check_due, self._check)

    def timer_loop(self) -> Reactor:
        """The shared loop, referenced for the engine's timers."""
        with self._lock:
            return self._timer_loop_locked()

    def _timer_loop_locked(self) -> Reactor:
        if self._loop is None:
            self._loop = shared_loop.acquire()
        return self._loop

    def _hand(self, worker: _Worker) -> None:
        worker.woken = True
        self._coming += 1
        worker.wake.notify()

    def _new_worker(self) -> threading.Thread:
        """Under the lock; the pool's looks need the loop from now on."""
        self._timer_loop_locked()
        worker = _Worker(self)
        worker.thread = threading.Thread(
            target=self._run, args=(worker,), name=f"{self._name}-{next(self._ids)}", daemon=True
        )
        self._workers.append(worker)
        self._coming += 1
        return worker.thread

    def _check(self) -> None:
        """Loop timer callback: when the busy workers are blocked, start a
        worker for each task that has waited a switch interval."""
        interval = sys.getswitchinterval()
        started = []
        with self._lock:
            now, cpu = time.monotonic(), time.process_time()
            due, self._check_due = self._check_due, None
            if due is None or self._closing:
                return
            since, cpu_since = self._check_since
            if now - due < interval / 2 and cpu - cpu_since < (now - since) / 2:
                self._blocked_looks += 1
            else:
                self._blocked_looks = 0
            if self._blocked_looks >= 2:
                waited = sum(1 for _ in itertools.takewhile(
                    lambda task: now - task[1] >= interval, self._tasks))
                started = [self._new_worker() for _ in range(waited - self._coming)]
            if self._tasks:
                self._arm(now)
        for thread in started:
            thread.start()

    def _run(self, worker: _Worker) -> None:
        _thread_state.worker = worker
        route: Route | None = None
        try:
            while True:
                started = None
                with self._lock:
                    if route is not None and route.release():
                        # Run again at once unless others wait their turn.
                        if worker.next is None and not self._tasks:
                            worker.next = route
                        else:
                            started = self._push(route)
                    route, worker.next = worker.next, None
                    while route is None:
                        if worker.woken:
                            worker.woken = False
                            self._coming -= 1
                        if self._tasks:
                            route = self._tasks.popleft()[0]
                        elif self._closing:
                            self._workers.remove(worker)
                            return
                        else:
                            self._idle.append(worker)
                            worker.wake.wait(IDLE_RETIRE_S)
                            if not worker.woken:  # no task came: retire
                                self._idle.remove(worker)
                                self._workers.remove(worker)
                                return
                if started is not None:
                    started.start()
                try:
                    route.run_batch()
                except Exception:
                    log.exception("route %s drain failed", route.id)
        finally:
            _thread_state.worker = None

    def stop(self, timeout: float) -> None:
        """Let the workers run what is queued, join them and drop the
        reference on the shared loop; a later schedule or timer takes the
        pool up again."""
        with self._lock:
            self._closing = True
            while self._idle:
                self._hand(self._idle.pop())
            threads = [worker.thread for worker in self._workers]
        me = threading.current_thread()
        for thread in threads:
            # A thread with no ident yet is being started by its scheduler.
            if thread is not me and thread.ident is not None:
                thread.join(timeout)
                if thread.is_alive():
                    log.warning("%s did not exit within %.1fs", thread.name, timeout)
        with self._lock:
            self._closing = False
            self._check_due = None
            loop, self._loop = self._loop, None
        if loop is not None:
            shared_loop.release()


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


class _NoDeadLetters:
    """Reads as an empty DeadLetterQueue and takes no entry."""

    dropped = 0
    total = 0

    def entries(self) -> list[DeadLetter]:
        return []

    def __len__(self) -> int:
        return 0


_NO_DEAD_LETTERS = _NoDeadLetters()
_first_dead_letter = threading.Lock()  # makes each owner's queue once


class DeadLetters:
    """Mixin for an owner of a DeadLetterQueue that is made with its first
    dead letter; until then `dead_letters` reads empty and makes nothing."""

    _dead_letter_queue: DeadLetterQueue | None = None

    @property
    def dead_letters(self) -> "DeadLetterQueue | _NoDeadLetters":
        queue = self._dead_letter_queue
        return _NO_DEAD_LETTERS if queue is None else queue

    def dead_letter(self, message: Message, reason: str, error: Exception | None = None) -> DeadLetter:
        queue = self._dead_letter_queue
        if queue is None:
            with _first_dead_letter:
                if self._dead_letter_queue is None:
                    self._dead_letter_queue = DeadLetterQueue()
                queue = self._dead_letter_queue
        return queue.add(message, reason, error)


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
    """Route source: buffers what arrives and tells the route.

    `start` hands over the started route; the consumer then calls its
    `ready()` as messages arrive, or sets a timer with its `every()`, until
    `stop` hands the same route back, which may happen on any thread. The
    route takes messages with `try_get()`, and `len()` counts those
    waiting. What arrives while stopped stays buffered.
    """

    def start(self, route: "Route") -> None:
        raise NotImplementedError

    def stop(self, route: "Route") -> None:
        pass

    def try_get(self) -> Message | None:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def close(self) -> None:
        pass


class InboxConsumer(Consumer):
    """A route source over an Inbox another object owns (the `tcp:` hub's,
    the `vars:` client's): each push makes the route ready, so a push on
    the loop runs the route there. `close` closes the inbox."""

    def __init__(self, inbox: Inbox):
        self._inbox = inbox

    def start(self, route: "Route") -> None:
        self._inbox.add_listener(route)

    def stop(self, route: "Route") -> None:
        self._inbox.remove_listener(route)

    def try_get(self) -> Message | None:
        return self._inbox.try_get()

    def __len__(self) -> int:
        return len(self._inbox)

    def close(self) -> None:
        self._inbox.close()


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
    """Components by scheme. Writers hold the lock; `get`, one atomic dict
    read, takes none."""

    def __init__(self):
        self._components: dict[str, Component] = {}
        self._lock = threading.Lock()

    def register(self, scheme: str, component: Component) -> None:
        with self._lock:
            self._components[scheme] = component

    def get(self, scheme: str) -> Component | None:
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


@dataclass(frozen=True)
class RouteStats:
    """A route's counters at the moment they were read."""

    consumed: int = 0
    delivered: int = 0
    dead_lettered: int = 0


class Route(DeadLetters, Mailbox):
    """A route, and the serial mailbox that runs it over its consumer.

    Started, the consumer adds the route to its source's listeners (calling
    a route is calling `ready()`) or sets a periodic engine timer with
    `every()`, which fires on the shared loop. `owner` is the gateway the
    route is attached to, if any.

    `ready()` drains at once when it is called on a loop thread outside any
    operation: the two thread-locals it reads are the loop's marker and the
    runtime's operation depth. So a route fed from a loop runs there, and no
    route runs under an artifact lock. Such a route holds up the loop while
    it runs, and must not wait for the loop.
    """

    # Counted by the route's drain, which runs on one thread at a time.
    _consumed = _delivered = _dead_lettered = 0
    _consumer: Consumer | None = None  # also the mailbox's source
    _producer: Producer | None = None
    owner = None  # the GatewayArtifact that attached the route

    def __init__(self, route_id: str, source: EndpointUri, processors: tuple[Processor, ...],
                 sink: EndpointUri, pool: WorkerPool):
        super().__init__(None)
        self.id = route_id
        self.source = source
        self.processors = processors
        self.sink = sink
        self.status = RouteStatus.DEFINED
        self._pool = pool

    def __repr__(self) -> str:
        return f"Route({self.id!r}, {self.source} -> {self.sink}, {self.status.value})"

    @property
    def stats(self) -> RouteStats:
        return RouteStats(self._consumed, self._delivered, self._dead_lettered)

    def ready(self) -> None:
        """A message is waiting: drain it on this loop thread, or schedule a
        drain on the pool, unless one is outstanding."""
        if self.claim():
            if loop_thread.reactor is not None and not thread_ops.depth:
                self._drain_claimed()
            else:
                self._pool.schedule(self)

    __call__ = ready

    def every(self, period_s: float, fire: Callable[[], None], first: float | None = None) -> LoopTimer:
        """Call `fire()` at `first` (default now), then every `period_s`
        seconds on the grid `first` starts, on the shared loop; returns the
        timer, whose `cancel()` from any thread stops it."""
        return self._pool.timer_loop().call_at(
            time.monotonic() if first is None else first, fire, period_s)

    def run_batch(self) -> None:
        """A pool task: drain at most what was waiting when it began."""
        self.run(max(1, len(self._source)))

    def _handle(self, message: Message) -> None:
        self._consumed += 1
        try:
            # The consumer hands each message to this route alone, so an
            # empty chain passes it on as is; a chain works on a copy, and
            # a dead letter keeps the message as consumed.
            outgoing = process(message, self.processors) if self.processors else message
            self._producer.send(outgoing)
            self._delivered += 1
        except ProcessorEvalError as exc:
            self._dead_lettered += 1
            self.dead_letter(message, f"ProcessorEvalError: {exc}", exc)
            log.warning("route %s dead-lettered a message: %s", self.id, exc)
        except Exception as exc:
            self._dead_lettered += 1
            self.dead_letter(message, f"DeliveryFailed: {exc}", exc)
            log.warning("route %s delivery failed: %s", self.id, exc)


class RoutingEngine:
    """Defines routes against a component registry and runs them.

    The engine owns the worker pool its routes run on, which
    starts threads only when a route needs them and holds the engine's
    reference on the shared loop for its timers; `shutdown` joins the
    workers and drops that reference.
    """

    _ids = itertools.count(1)

    def __init__(self, registry: ComponentRegistry):
        self.registry = registry
        self._routes: dict[str, Route] = {}
        # Each endpoint string parsed once; routes share the immutable URI.
        self._uris: dict[str, EndpointUri] = {}
        self._lock = threading.Lock()
        self._pool = WorkerPool("route-worker")

    def define_route(
        self,
        source: EndpointUri | str,
        processors: Iterable[Processor],
        sink: EndpointUri | str,
        route_id: str | None = None,
    ) -> Route:
        src = self._uri(source)
        dst = self._uri(sink)
        for uri, side in ((src, "source"), (dst, "sink")):
            component = self.registry.get(uri.scheme)
            if component is None:
                raise UnknownSchemeError(uri.scheme, side)
            component.validate(uri, side)
        route = Route(route_id or f"route-{next(self._ids)}", src, tuple(processors), dst,
                      self._pool)
        with self._lock:
            self._routes[route.id] = route
        return route

    def _uri(self, endpoint: EndpointUri | str) -> EndpointUri:
        if not isinstance(endpoint, str):
            return endpoint
        uri = self._uris.get(endpoint)
        if uri is None:
            uri = self._uris[endpoint] = parse_endpoint_uri(endpoint)
        return uri

    def routes(self) -> list[Route]:
        with self._lock:
            return list(self._routes.values())

    def start_route(self, route: Route) -> None:
        with self._lock:
            if route.status == RouteStatus.STARTED:
                raise InvalidTransitionError(f"{route.id} is already started")
            if route._consumer is None:
                route._consumer = route._source = self.registry.get(
                    route.source.scheme).create_consumer(route.source, route)
            if route._producer is None:
                route._producer = self.registry.get(route.sink.scheme).create_producer(
                    route.sink, route
                )
            route.open = True
            route.status = RouteStatus.STARTED
            route._consumer.start(route)
        if route.pending():
            route.ready()  # what arrived while stopped
        log.debug("route %s started: %s -> %s", route.id, route.source, route.sink)

    def stop_route(self, route: Route, join_timeout: float = 10.0) -> None:
        """Stop the route and wait for a drain of it on another thread.

        Raises InvalidTransitionError, leaving the route STARTED, when that
        drain is still running after `join_timeout`; calling again retries.
        Called from the route's own drain it does not wait.
        """
        def take() -> list[Route]:
            if route.status != RouteStatus.STARTED:
                raise InvalidTransitionError(f"{route.id} is not started")
            return [route]

        if self._stop(take, join_timeout)[1]:
            raise InvalidTransitionError(
                f"{route.id} drain still running after {join_timeout:.1f}s; still started"
            )
        log.debug("route %s stopped", route.id)

    def remove_route(self, route: Route, join_timeout: float = 10.0) -> None:
        """Stop `route` if it runs, close its endpoints and forget it."""
        def take() -> list[Route]:
            if self._routes.get(route.id) is not route:
                return []
            return [self._routes.pop(route.id)]

        for taken in self._stop(take, join_timeout)[0]:
            self._close_endpoints(taken)

    def shutdown(self, join_timeout: float = 10.0) -> None:
        """Stop every started route, release the endpoints of all routes,
        join the engine's workers and drop its reference on the shared loop."""
        for route in self._stop(lambda: list(self._routes.values()), join_timeout)[0]:
            self._close_endpoints(route)
        self._pool.stop(join_timeout)

    def _stop(self, take: Callable[[], list[Route]],
              join_timeout: float) -> tuple[list[Route], list[Route]]:
        """Under the engine lock, take the routes `take()` returns, and close
        each started one and stop its consumer; then wait for
        a drain of each on another thread and mark it STOPPED. Returns the
        routes taken, and those whose drain still runs after `join_timeout`,
        which stay STARTED."""
        with self._lock:
            routes = take()
            started = [route for route in routes if route.status == RouteStatus.STARTED]
            for route in started:
                route.open = False
                route._consumer.stop(route)
        late = []
        for route in started:
            if route.wait_idle(join_timeout):
                route.status = RouteStatus.STOPPED
            else:
                log.warning("route %s drain still running after %.1fs", route.id, join_timeout)
                late.append(route)
        return routes, late

    @staticmethod
    def _close_endpoints(route: Route) -> None:
        for endpoint in (route._consumer, route._producer):
            if endpoint is not None:
                try:
                    endpoint.close()
                except Exception:
                    log.exception("closing endpoint of %s failed", route.id)
        route._consumer = route._source = None
        route._producer = None
