from __future__ import annotations

import threading
import time

import pytest

from artifact.endpoints.timer import TimerComponent, _TimerConsumer
from artifact.uri import parse_endpoint_uri


def test_first_tick_is_zero():
    consumer = _TimerConsumer("t", 0.001)
    message = consumer.try_get()
    assert message.body == [0]
    assert message.headers["timer.tick"] == 0


def test_no_tick_before_it_is_due():
    consumer = _TimerConsumer("t", 10.0)
    assert consumer.try_get().body == [0]
    assert len(consumer) == 0
    assert consumer.try_get() is None


def test_slow_consumer_catches_up_without_skipping():
    consumer = _TimerConsumer("t", 0.005)
    consumer.try_get()
    time.sleep(0.03)  # fall several periods behind
    assert len(consumer) >= 5
    burst = [consumer.try_get().body[0] for _ in range(5)]
    assert burst == [1, 2, 3, 4, 5]


def test_period_validation():
    component = TimerComponent()
    with pytest.raises(ValueError):
        component.validate(parse_endpoint_uri("timer:t?period_ms=0"), "source")
    with pytest.raises(ValueError):
        component.validate(parse_endpoint_uri("timer:t"), "source")
    with pytest.raises(ValueError):
        component.validate(parse_endpoint_uri("timer:t?period_ms=abc"), "source")
    component.validate(parse_endpoint_uri("timer:t?period_ms=10"), "source")


def test_timer_route_into_broker(env):
    route = env.engine.define_route("timer:tick?period_ms=10", [], "mq:ticks")
    tap = env.broker.subscribe("ticks")
    env.engine.start_route(route)
    got = [tap.poll(2.0) for _ in range(5)]
    env.engine.stop_route(route)
    assert all(m is not None for m in got)
    assert [m.body for m in got] == ["0", "1", "2", "3", "4"]


def test_ticks_are_contiguous_despite_jitter(env):
    # Three routes share the one loop, which fires their timers and runs
    # them; one is stopped and restarted.
    before = set(threading.enumerate())
    routes = [
        env.engine.define_route(f"timer:t{i}?period_ms=5", [], f"mq:ticks{i}") for i in range(3)
    ]
    taps = [env.broker.subscribe(f"ticks{i}") for i in range(3)]
    for route in routes:
        env.engine.start_route(route)
    time.sleep(0.05)
    env.engine.stop_route(routes[0])
    time.sleep(0.03)  # ticks fall due while stopped and arrive on restart
    env.engine.start_route(routes[0])
    time.sleep(0.05)
    for route in routes:
        env.engine.stop_route(route)
    started = [t for t in threading.enumerate() if t not in before]
    assert [t.name for t in started] == ["artifact-loop"]
    for tap in taps:
        ticks = [int(m.body) for m in iter(tap.try_get, None)]
        assert len(ticks) >= 9
        assert ticks == list(range(len(ticks)))
    env.close()
    assert not any(t.is_alive() for t in started)
