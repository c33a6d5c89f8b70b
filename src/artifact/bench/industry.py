"""Interoperability demo: variable server, topic broker and a TCP robot.

A gateway mirrors a numeric variable from the variable server into an
observable property. An agent surrogate focused on that property reacts to
each change by publishing a sensor reading on a broker topic and commanding a
simulated cargo robot over newline-framed TCP (`MOVE <dest>` answered by
`AT <dest>`). A second surrogate subscribes to the sensor topic and logs the
shared values. The demo log records the causal chain with timestamps.
"""
from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from ..endpoints import VarClient, VarStoreServer
from ..endpoints.tcp import LineServer
from ..gateway import GatewayArtifact
from ..messages import ARTIFACT_NAME_HEADER, OPERATION_NAME_HEADER, OpRequest
from ..routefile import RouteFileEntry
from ..routing import Mailbox, SetHeader
from ..runtime import CallbackObserver, operation
from ..values import Value, render_value
from .config import ScenarioConfig
from .scenarios import BenchEnv, _apply_extra_routes

log = logging.getLogger(__name__)

SENSOR_TOPIC = "factory/sensor"
COUNTER_VAR = "counter"


@dataclass(frozen=True)
class DemoEvent:
    ts: float
    kind: str
    detail: Value

    def __str__(self) -> str:
        return f"{self.ts:10.4f}  {self.kind:<16} {render_value(self.detail)}"


class DemoLog:
    """Append-only, thread-safe event log proving the causal chain order."""

    def __init__(self):
        self._lock = threading.Lock()
        self._events: list[DemoEvent] = []
        self._t0 = time.monotonic()

    def add(self, kind: str, detail: Value) -> None:
        with self._lock:
            self._events.append(DemoEvent(time.monotonic() - self._t0, kind, detail))

    def events(self, kind: str | None = None) -> list[DemoEvent]:
        with self._lock:
            if kind is None:
                return list(self._events)
            return [ev for ev in self._events if ev.kind == kind]

    def count(self, kind: str) -> int:
        return len(self.events(kind))

    def wait_for(self, kind: str, count: int, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.count(kind) >= count:
                return True
            time.sleep(0.01)
        return False


class RobotSimulator:
    """Scripted cargo robot speaking a 2-command line protocol."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.server = LineServer(host, port, handler=self._handle, name="robot-sim")
        self.host, self.port = self.server.host, self.server.port

    def _handle(self, conn, line: str) -> None:
        if line.startswith("MOVE "):
            conn.send_line("AT " + line[5:])
        else:
            conn.send_line("ERR unknown-command")

    def drop_connections(self) -> int:
        return self.server.drop_connections()

    def stop(self) -> None:
        self.server.stop()


class MirrorGateway(GatewayArtifact):
    """Keeps an observable property equal to the subscribed variable."""

    @operation
    def counter_changed(self, value):
        self.update_property(COUNTER_VAR, value)


class RobotGateway(GatewayArtifact):
    """Sends MOVE commands outward; logs AT confirmations inbound."""

    def configure(self, demo_log: DemoLog) -> None:
        self._demo_log = demo_log

    @operation
    def robot_reply(self, line):
        self._demo_log.add("robot_at", line)
        self.update_property("last_reply", line)


class SharedValueConsumer:
    """Second surrogate: logs the shared sensor values the broker pushes to
    its subscription, in order, on the publishing thread."""

    def __init__(self, subscription, demo_log: DemoLog):
        self._sub = subscription
        self._log = demo_log
        self._mailbox = Mailbox(subscription, self._on_value)
        self._mailbox.open = True
        subscription.add_listener(self._mailbox.drain)

    def _on_value(self, message) -> None:
        self._log.add("sensor_pub", message.body)

    def stop(self) -> None:
        self._sub.remove_listener(self._mailbox.drain)
        self._mailbox.open = False


class DeviceChain:
    """The device chain of perfbench's device_chain workload, built, started
    and connected: a variable server, a robot simulator, the mirror ("plc"),
    "sensor" and robot gateways with their four routes, an agent surrogate
    that publishes a reading on SENSOR_TOPIC and commands the robot on each
    mirrored change, `tap`, a subscription to that topic, and `client`, a
    variable-server client for the writes that drive the chain. The robot
    gateway is a `robot_class`, whose `robot_reply` operation takes each of
    the robot's lines. `marks`, when given, gets the perf_counter() of the
    start and of the end of each build step: VarStoreServer(),
    RobotSimulator(), the routes defined, the subscribe route started, the
    robot-reply route started, the gateways listening, VarClient() and the
    robot link up. Raises RuntimeError, closed, when the robot link does not
    come up; any other failure to build closes what was made, too."""

    def __init__(self, robot_class: type[GatewayArtifact] = GatewayArtifact,
                 marks: list[float] | None = None):
        mark = marks.append if marks is not None else (lambda at: None)
        mark(perf_counter())
        self.vars_server = VarStoreServer()
        mark(perf_counter())
        self.robot_sim = RobotSimulator()
        mark(perf_counter())
        self.env = BenchEnv()
        self.client: VarClient | None = None
        try:
            self._build(robot_class, mark)
        except BaseException:
            self.close()
            raise

    def _build(self, robot_class: type[GatewayArtifact], mark: Callable[[float], None]) -> None:
        env = self.env
        # The variable must exist before the mirror's route subscribes to it.
        self.vars_server.write(COUNTER_VAR, 0)
        runtime, engine = env.runtime, env.engine
        ws = runtime.default_workspace
        self.mirror = runtime.lookup(runtime.make_artifact(ws, "plc", MirrorGateway, []))
        self.sensor = runtime.lookup(runtime.make_artifact(ws, "sensor", GatewayArtifact, []))
        self.robot = runtime.lookup(runtime.make_artifact(ws, "robot", robot_class, []))
        env.gateways.extend([self.mirror, self.sensor, self.robot])
        tcp_uri = f"tcp:{self.robot_sim.host}:{self.robot_sim.port}?role=client"
        sync = engine.define_route(
            f"vars:{self.vars_server.host}:{self.vars_server.port}/{COUNTER_VAR}?mode=subscribe",
            [SetHeader(ARTIFACT_NAME_HEADER, "plc"),
             SetHeader(OPERATION_NAME_HEADER, "counter_changed")],
            "artifact:plc",
        )
        publish = engine.define_route("artifact:sensor", [], f"mq:{SENSOR_TOPIC}")
        commands = engine.define_route("artifact:robot", [], tcp_uri)
        replies = engine.define_route(
            tcp_uri,
            [SetHeader(ARTIFACT_NAME_HEADER, "robot"),
             SetHeader(OPERATION_NAME_HEADER, "robot_reply")],
            "artifact:robot",
        )
        self.mirror.attach_route(sync, engine=engine)
        self.sensor.attach_route(publish, engine=engine)
        self.robot.attach_route(commands, engine=engine)
        self.robot.attach_route(replies)
        self.tap = env.broker.subscribe(SENSOR_TOPIC)
        mark(perf_counter())
        engine.start_route(sync)
        mark(perf_counter())
        engine.start_route(replies)
        mark(perf_counter())
        for gateway in env.gateways:
            gateway.start_listening()  # the routes not yet started
        runtime.focus(CallbackObserver(on_change=self._agent), self.mirror.id)
        mark(perf_counter())
        self.client = VarClient(self.vars_server.host, self.vars_server.port)
        mark(perf_counter())
        if not self.robot_sim.server.wait_for_connection(timeout=10.0):
            raise RuntimeError("robot link did not come up")
        mark(perf_counter())

    def _agent(self, artifact_id, name, value, version) -> None:
        if name == COUNTER_VAR:
            self.sensor.send_msg(OpRequest("sensor", "reading", [value]))
            self.robot.send_msg(OpRequest("robot", "move", [f"MOVE station-{value}"]))

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        self.env.close()
        self.vars_server.stop()
        self.robot_sim.stop()


class _DemoChain(DeviceChain):
    """The device chain whose agent surrogate logs each change it observes
    and each robot command it sends."""

    def __init__(self, demo_log: DemoLog):
        self._log = demo_log
        super().__init__(robot_class=RobotGateway)
        self.robot.configure(demo_log)

    def _agent(self, artifact_id, name, value, version) -> None:
        if name != COUNTER_VAR:
            return
        self._log.add("counter_observed", value)
        self.sensor.send_msg(OpRequest("sensor", "reading", [value]))
        destination = f"station-{render_value(value)}"
        # Logged first: the reply can be logged before send_msg returns.
        self._log.add("move_sent", destination)
        self.robot.send_msg(OpRequest("robot", "move", [f"MOVE {destination}"]))


def run_industry_demo(
    cfg: ScenarioConfig,
    writes: int = 5,
    fault_after_write: int | None = None,
    extra_routes: list[RouteFileEntry] | None = None,
) -> DemoLog:
    """Run the full chain for `writes` counter increments and return the log.

    Raises RuntimeError when the servers or routes fail to come up.
    """
    demo_log = DemoLog()
    try:
        chain = _DemoChain(demo_log)
    except Exception as exc:
        raise RuntimeError(f"demo startup failed: {exc}") from exc
    consumer = SharedValueConsumer(chain.tap, demo_log)
    try:
        _apply_extra_routes(chain.env, extra_routes)
        for i in range(1, writes + 1):
            demo_log.add("write", i)
            chain.client.write(COUNTER_VAR, i)
            if fault_after_write == i:
                if not demo_log.wait_for("robot_at", i, timeout=10.0):
                    raise RuntimeError(f"robot never confirmed move {i}")
                dropped = chain.robot_sim.drop_connections()
                demo_log.add("fault_injected", f"dropped {dropped} connection(s)")
                # continue only once the command link re-established, so the
                # fault lands between exchanges rather than mid-frame
                if not chain.robot_sim.server.wait_for_connection(timeout=10.0):
                    raise RuntimeError("robot link did not re-establish")

        budget = 10.0 + writes * 0.5
        demo_log.wait_for("sensor_pub", writes, timeout=budget)
        demo_log.wait_for("robot_at", writes, timeout=budget)
        return demo_log
    finally:
        consumer.stop()
        chain.close()
