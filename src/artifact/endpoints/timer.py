"""Timer source: emits one message per period with a contiguous tick index."""
from __future__ import annotations

import time

from ..errors import UnsupportedEndpointRoleError
from ..messages import Message
from ..routing import Component, Consumer, Route, RouteMailbox
from ..uri import EndpointUri


class _TimerConsumer(Consumer):
    """Tick k is due `k` periods after the first; the engine timer schedules
    the route each period, and a drain emits every tick due by then, so a
    route that fell behind catches up without skipping."""

    def __init__(self, name: str, period_s: float):
        self._name = name
        self._period = period_s
        self._index = 0
        self._next_due: float | None = None
        self._timer = None

    def start(self, mailbox: RouteMailbox) -> None:
        if self._next_due is None:
            self._next_due = time.monotonic()
        self._timer = mailbox.every(self._period, mailbox.ready, first=self._next_due)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def try_get(self) -> Message | None:
        now = time.monotonic()
        if self._next_due is None:
            self._next_due = now
        if now < self._next_due:
            return None
        message = Message(
            headers={"timer.name": self._name, "timer.tick": self._index},
            body=[self._index],
        )
        self._index += 1
        self._next_due += self._period
        return message

    def __len__(self) -> int:
        behind = time.monotonic() - self._next_due
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
