"""Timer source: emits one message per period with a contiguous tick index."""
from __future__ import annotations

import time

from ..errors import UnsupportedEndpointRoleError
from ..messages import Message
from ..routing import Component, Consumer, Route
from ..uri import EndpointUri


class _TimerConsumer(Consumer):
    """Tick k is due `k` periods after the first. While started, an engine
    timer fires each period on the shared loop and makes the route ready
    there, and a drain emits every tick due by that fire, so a route that
    fell behind catches up without skipping. Ticks that fell due while the
    route was stopped wait for the timer's first fire, which comes at once,
    so they too run on the loop."""

    def __init__(self, name: str, period_s: float):
        self._name = name
        self._period = period_s
        self._index = 0
        self._next_due: float | None = None
        self._timer = None
        self._route: Route | None = None
        self._fired: float | None = None  # the started timer's last fire

    def start(self, route: Route) -> None:
        if self._next_due is None:
            self._next_due = time.monotonic()
        self._route = route
        self._fired = None
        self._timer = route.every(self._period, self._fire, first=self._next_due)

    def _fire(self) -> None:
        self._fired = time.monotonic()
        self._route.ready()

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _due_by(self) -> float:
        """Ticks due by this time are ready: now, or while started, the
        timer's last fire (none before its first)."""
        if self._timer is None:
            return time.monotonic()
        return -float("inf") if self._fired is None else self._fired

    def try_get(self) -> Message | None:
        due_by = self._due_by()
        if self._next_due is None:
            self._next_due = due_by
        if due_by < self._next_due:
            return None
        message = Message(
            headers={"timer.name": self._name, "timer.tick": self._index},
            body=[self._index],
        )
        self._index += 1
        self._next_due += self._period
        return message

    def __len__(self) -> int:
        behind = self._due_by() - self._next_due
        return 0 if behind < 0 else int(behind // self._period) + 1


class TimerComponent(Component):
    def validate(self, uri: EndpointUri, side: str) -> None:
        if side == "sink":
            raise UnsupportedEndpointRoleError("timer: cannot be a route sink")
        raw = uri.param("period_ms")
        if raw is None:
            raise ValueError("timer endpoint needs period_ms: timer:<name>?period_ms=<n>")
        try:
            period = int(raw)
        except ValueError:
            raise ValueError(f"period_ms must be an integer, got {raw!r}") from None
        if period < 1:
            raise ValueError(f"period_ms must be >= 1, got {period}")

    def create_consumer(self, uri: EndpointUri, route: Route) -> Consumer:
        self.validate(uri, "source")
        return _TimerConsumer(uri.path, int(uri.param("period_ms")) / 1000.0)
