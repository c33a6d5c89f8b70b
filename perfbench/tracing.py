"""Per-layer tracing for the traced run (`--trace 1`).

The tracer wraps public functions of each layer of the `artifact` package
from outside, for the duration of the message phase only, and restores them
afterwards. Untraced runs never construct it, so they run the program
unwrapped.

A span records a name, a start, an end and the span that was open on the
same thread when it started. Spans are kept in memory, up to `SPAN_CAP`, and
written out as CSV when the run ends. Counts (calls, queue hits, copies) are
kept over the whole phase, whatever the cap.
"""
from __future__ import annotations

import itertools
import statistics
import threading
from pathlib import Path
from time import perf_counter

# Spans, and queue waits, kept per run; the first ones of the phase.
SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.queue_waits: list[float] = []
        self.t0 = 0.0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self._stamps: dict[int, float] = {}
        self.copies = 0
        self.get_hit_ratio = 0.0
        # itertools.count advances atomically under the interpreter lock, so
        # threads can share these counters without a lock.
        self._copies = itertools.count()
        self._gets = itertools.count()
        self._hits = itertools.count()

    # -- wrapping ------------------------------------------------------------

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def _span(self, name: str):
        spans, ids, local = self.spans, self._ids, self._local

        def make(fn):
            def traced(*args, **kwargs):
                stack = getattr(local, "stack", None)
                if stack is None:
                    stack = local.stack = []
                span_id = next(ids)
                parent = stack[-1] if stack else 0
                stack.append(span_id)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    if len(spans) < SPAN_CAP:
                        spans.append((span_id, parent, name, start, end))

            return traced

        return make

    def _counted(self, counter):
        def make(fn):
            def counted(*args, **kwargs):
                next(counter)
                return fn(*args, **kwargs)

            return counted

        return make

    def _queue_put(self, fn):
        stamps = self._stamps

        def put(queue, item, *args, **kwargs):
            if type(item) is not object:  # wake/stop sentinels are bare objects
                stamps[id(item)] = perf_counter()
            return fn(queue, item, *args, **kwargs)

        return put

    def _queue_get(self, fn):
        stamps, waits, gets, hits = self._stamps, self.queue_waits, self._gets, self._hits

        def get(queue, *args, **kwargs):
            item = fn(queue, *args, **kwargs)
            next(gets)
            if item is not None and type(item) is not object:
                next(hits)
                put_at = stamps.pop(id(item), None)
                if put_at is not None and len(waits) < SPAN_CAP:
                    waits.append(perf_counter() - put_at)
            return item

        return get

    def install(self) -> None:
        """Wrap the layer boundaries; takes effect for running threads too."""
        from artifact import gateway, messages, routing, runtime
        from artifact.endpoints import broker, tcp, varstore

        self.t0 = perf_counter()
        self._patch(messages.OpRequest, "to_message", self._span("messages.to_message"))
        self._patch(messages.Message, "copy", self._counted(self._copies))
        # The route loop looks `process` up in its module, and `process` looks
        # up `eval_expr` there, so these wrap top-level evaluations only.
        self._patch(routing, "process", self._span("routing.process"))
        self._patch(routing, "eval_expr", self._span("exprlang.eval_expr"))
        for attr in ("put", "force_put"):
            self._patch(routing.MessageQueue, attr, self._queue_put)
        for attr in ("get", "try_get"):
            self._patch(routing.MessageQueue, attr, self._queue_get)
        self._patch(gateway.GatewayArtifact, "send_msg", self._span("gateway.send_msg"))
        self._patch(gateway.GatewayArtifact, "deliver", self._span("gateway.deliver"))
        self._patch(runtime.Runtime, "exec_op", self._span("runtime.exec_op"))
        self._patch(broker.TopicBroker, "publish", self._span("broker.publish"))
        self._patch(varstore.VarClient, "write", self._span("varstore.write"))
        producer = getattr(tcp, "_TcpClientProducer", None)
        if producer is not None:
            self._patch(producer, "send", self._span("tcp.send"))

    def uninstall(self) -> None:
        """Restore the originals and read the counters."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self._stamps.clear()
        # next() on a fresh count returns how often it advanced before.
        self.copies = next(self._copies)
        gets, hits = next(self._gets), next(self._hits)
        self.get_hit_ratio = hits / gets if gets else 0.0

    # -- results -------------------------------------------------------------

    def durations_us(self, name: str) -> list[float]:
        return [(end - start) * 1e6 for _, _, n, start, end in self.spans if n == name]

    def self_times_us(self, name: str) -> list[float]:
        """Span duration minus the time its direct child spans cover."""
        children: dict[int, float] = {}
        for _, parent, _, start, end in self.spans:
            if parent:
                children[parent] = children.get(parent, 0.0) + (end - start)
        return [
            (end - start - children.get(span_id, 0.0)) * 1e6
            for span_id, _, n, start, end in self.spans
            if n == name
        ]

    def median_us(self, name: str, self_time: bool = False) -> float:
        values = self.self_times_us(name) if self_time else self.durations_us(name)
        return statistics.median(values) if values else 0.0

    def queue_wait_us(self) -> float:
        return statistics.median(self.queue_waits) * 1e6 if self.queue_waits else 0.0

    def write(self, path: Path) -> None:
        """Write the spans as CSV, times in microseconds from install()."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.t0
        with path.open("w", encoding="utf-8") as out:
            out.write("span_id,parent_id,name,start_us,end_us\n")
            for span_id, parent, name, start, end in self.spans:
                out.write(
                    f"{span_id},{parent},{name},"
                    f"{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f}\n"
                )
