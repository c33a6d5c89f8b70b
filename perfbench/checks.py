"""Correctness checks for the benchmark's delivery streams.

Each check compares what the program delivered against values this file
computes on its own, never against a stored copy of earlier output. The
renderer and the temperature round trip below restate the documented wire
format and transform arithmetic instead of calling the program's code.
"""
from __future__ import annotations

import threading
from array import array
from typing import Hashable, Iterable


def wire_text(value) -> str:
    """Canonical wire text of a number or string: integral numbers drop the
    fractional part, other floats use their shortest round-trip form."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return str(int(value)) if value.is_integer() else repr(value)
    if isinstance(value, str):
        return value
    raise TypeError(f"no wire text for {type(value).__name__}")


def celsius_round_trip(celsius: float) -> float:
    """The value a fleet gateway must receive for a reading of `celsius`:
    C -> F as 64-bit float, rendered to wire text, parsed back, F -> C."""
    fahrenheit_text = wire_text(celsius * 1.8 + 32.0)
    return (float(fahrenheit_text) - 32.0) / 1.8


class StreamCheck:
    """Checks one stream of deliveries while it flows.

    The load generator calls `expect` for each operation, in send order, with
    the (destination, body) the program must deliver; the program's threads
    call `deliver` with what they got. Operation i fails when its delivery is
    lost, arrives twice, or arrives after a later operation to the same
    destination. A delivery that matches no operation in flight (wrong value,
    wrong destination, duplicate) is a stray. Memory holds only operations in
    flight, plus 16 bytes per matched delivery for the timings.
    """

    def __init__(self):
        self._pending: dict[tuple[str, Hashable], tuple[int, float]] = {}
        self._last: dict[str, int] = {}
        self._lock = threading.Lock()
        self._sent = 0
        self._reordered: set[int] = set()
        self._strays = 0
        self.latencies_us = array("d")
        self.done_at = array("d")

    @property
    def sent(self) -> int:
        return self._sent

    @property
    def matched(self) -> int:
        return len(self.done_at)

    def expect(self, destination: str, body: Hashable, sent_at: float) -> None:
        """Register the next operation; call from one thread only."""
        key = (destination, body)
        if key in self._pending:
            raise ValueError(f"operations in flight must differ: {key!r}")
        self._pending[key] = (self._sent, sent_at)
        self._sent += 1

    def deliver(self, destination: str, body: Hashable, at: float) -> None:
        """Record one delivery; deliveries to one destination come from one
        thread at a time."""
        entry = self._pending.pop((destination, body), None)
        if entry is None:
            with self._lock:
                self._strays += 1
            return
        i, sent_at = entry
        self.latencies_us.append((at - sent_at) * 1e6)
        self.done_at.append(at)
        if i < self._last.get(destination, -1):
            with self._lock:
                self._reordered.add(i)
        else:
            self._last[destination] = i

    def failures(self) -> tuple[set[int], int]:
        """Indices of failed operations, and the strays no lost operation
        explains."""
        lost = {i for i, _ in self._pending.values()}
        return self._reordered | lost, max(0, self._strays - len(lost))


def count_failed(checks: Iterable[StreamCheck]) -> int:
    """Failed operations over streams that share operation indices: an
    operation fails once however many of its streams are wrong."""
    failed: set[int] = set()
    extra = 0
    for check in checks:
        stream_failed, stream_extra = check.failures()
        failed |= stream_failed
        extra += stream_extra
    return len(failed) + extra
