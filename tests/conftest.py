from __future__ import annotations

import threading
import time

import pytest
from hypothesis import settings

from artifact import Runtime, operation
from artifact.bench.scenarios import BenchEnv
from artifact.runtime import Artifact

settings.register_profile("suite", deadline=None, max_examples=80)
settings.load_profile("suite")


def wait_until(predicate, timeout: float = 5.0, interval: float = 0.005) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# The thread that serves sockets, the loop every listener, connection and
# engine timer shares, and the routing engine's pool workers.
_SOCKET_THREADS = ("artifact-loop", "route-worker")


@pytest.fixture(autouse=True)
def no_socket_thread_left():
    """Fail a test that leaves a loop thread or a pool worker it started
    alive after its teardown."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate()
            if t not in before and t.name.startswith(_SOCKET_THREADS)]
    if left:
        pytest.fail(f"runtime threads alive after teardown: {left}")


class CounterArtifact(Artifact):
    def init(self):
        self.update_property("count", 0)

    @operation
    def inc(self):
        self.update_property("count", self.property_value("count") + 1)

    @operation
    def add(self, amount):
        self.update_property("count", self.property_value("count") + amount)

    @operation
    def boom(self):
        self.update_property("count", 999)
        self.signal("exploded")
        raise RuntimeError("kaboom")


class RecordingObserver:
    """Collects property-change and signal notifications in arrival order."""

    def __init__(self):
        self.lock = threading.Lock()
        self.changes: list[tuple] = []
        self.signals: list = []

    def on_property_change(self, artifact_id, name, value, version):
        with self.lock:
            self.changes.append((artifact_id, name, value, version))

    def on_signal(self, signal):
        with self.lock:
            self.signals.append(signal)

    def change_count(self) -> int:
        with self.lock:
            return len(self.changes)


@pytest.fixture
def runtime():
    rt = Runtime()
    rt.register_template("counter", CounterArtifact)
    try:
        yield rt
    finally:
        rt.shutdown()


@pytest.fixture
def env():
    environment = BenchEnv()
    environment.runtime.register_template("counter", CounterArtifact)
    try:
        yield environment
    finally:
        environment.close()
