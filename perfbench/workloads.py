"""The benchmark's workloads, built through the program's public API.

Each workload is an object made from a seed. `build()` creates and starts
one topology and returns it; the runner times that as set-up. `prepare()`
makes the inputs from the seed, after set-up is timed. `drive()` runs the
message phase from the calling thread, which is the only thread that
generates load, and calls `tick(now)` before each send so that the runner can
cut the phase into windows. `evaluate()` returns the checked operation counts
and the timings. Deliveries are checked as they happen (see
`checks.StreamCheck`), so only a few timings per operation stay behind.

- fleet_open: scenario-1 topology. Terminal gateways, each with the quick
  tour's temperature route pair, fed open loop at a fixed aggregate rate.
- router_closed: scenario-2 topology. One router gateway forwarding to many
  linked plain artifacts, fed closed loop with a fixed number in flight.
- device_chain: the industry chain (variable server, mirror gateway,
  observer, agent surrogate, broker, TCP robot), fed closed loop with a
  fixed number of variable writes in flight.
"""
from __future__ import annotations

import random
import threading
import time
from array import array
from dataclasses import dataclass, field
from time import perf_counter

from artifact import (
    ARTIFACT_NAME_HEADER,
    OPERATION_NAME_HEADER,
    Artifact,
    CallbackObserver,
    GatewayArtifact,
    OpRequest,
    SetHeader,
    Transform,
    operation,
    parse_expr,
)
from artifact.bench.industry import COUNTER_VAR, SENSOR_TOPIC, MirrorGateway, RobotSimulator
from artifact.bench.scenarios import BenchEnv
from artifact.endpoints import VarClient, VarStoreServer

from checks import StreamCheck, celsius_round_trip, count_failed, wire_text

# fleet_open: 10 gateways share 1000 msg/s, 100 msg/s each.
FLEET_GATEWAYS = 10
FLEET_RATE_HZ = 1000
TO_FAHRENHEIT = "(request.body[0] * 1.8 + 32).toString()"
TO_CELSIUS = "[ (request.body[0].toString() - 32) / 1.8 ]"

# router_closed: 1000 linked targets, 32 messages in flight.
ROUTER_TARGETS = 1000
ROUTER_IN_FLIGHT = 32
ROUTER_INPUTS = 1 << 16

# device_chain: 16 variable writes in flight.
CHAIN_IN_FLIGHT = 16

# Upper bound on waiting for in-flight work after the send phase.
DRAIN_TIMEOUT_S = 20.0


@dataclass
class Outcome:
    """What one message phase did, after checking."""

    attempted: int
    failed: int
    latencies_us: array
    done_at: array
    generator_lags_us: list[float]
    # Every per-operation array the benchmark filled during the phase; the
    # runner leaves their bytes out of the program's resident set.
    records: list[array]
    problems: list[str] = field(default_factory=list)
    observer_lags_us: array = field(default_factory=lambda: array("d"))

    @property
    def completed(self) -> int:
        return len(self.done_at)

    def record_mb(self) -> float:
        return sum(len(a) * a.itemsize for a in self.records) / 1e6


def _wait_until(predicate, timeout: float, interval: float = 0.002) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(interval)
    return True


def _closed_loop(slots: threading.Semaphore, in_flight: int, seconds: float, send) -> None:
    """Call `send()` each time one of the `in_flight` slots is free, for
    `seconds`, then wait for the operations still in flight. An operation
    gives its slot back when it completes; if every slot stays away for
    DRAIN_TIMEOUT_S the loop ends, and the checks count what was lost."""
    end = perf_counter() + seconds
    while slots.acquire(timeout=DRAIN_TIMEOUT_S):
        if perf_counter() >= end:
            held = 1
            deadline = time.monotonic() + DRAIN_TIMEOUT_S
            while held < in_flight and slots.acquire(
                    timeout=max(0.0, deadline - time.monotonic())):
                held += 1
            return
        send()


def _closed_loop_lags_us(sends: array, done: array, in_flight: int) -> list[float]:
    """How late each send was: send k may go once operation k - in_flight has
    completed, and operations complete in send order."""
    return [
        (sends[k] - done[k - in_flight]) * 1e6
        for k in range(in_flight, min(len(sends), len(done) + in_flight))
    ]


# ---------------------------------------------------------------------------
# fleet_open


class TempSensor(GatewayArtifact):
    """The quick tour's sensor gateway; checks each converted reading."""

    check: StreamCheck

    @operation
    def temp(self, value):
        self.update_property("temp", value)
        self.check.deliver(self.id.name, value, perf_counter())


class FleetTopology:
    def __init__(self):
        self.env = BenchEnv()
        self.check = StreamCheck()
        to_f = parse_expr(TO_FAHRENHEIT)
        to_c = parse_expr(TO_CELSIUS)
        runtime, engine = self.env.runtime, self.env.engine
        ws = runtime.default_workspace
        for i in range(FLEET_GATEWAYS):
            name = f"sensor{i}"
            gateway = runtime.lookup(runtime.make_artifact(ws, name, TempSensor, []))
            gateway.check = self.check
            topic = f"mq:fleet/{name}"
            outbound = engine.define_route(f"artifact:{name}", [Transform(to_f)], topic)
            inbound = engine.define_route(
                topic,
                [SetHeader(ARTIFACT_NAME_HEADER, name),
                 SetHeader(OPERATION_NAME_HEADER, "temp"),
                 Transform(to_c)],
                f"artifact:{name}",
            )
            gateway.attach_route(outbound, engine=engine)
            gateway.attach_route(inbound)
            gateway.start_listening()
            self.env.gateways.append(gateway)

    def close(self) -> None:
        self.env.close()


class FleetOpen:
    name = "fleet_open"

    def __init__(self, seed: int, seconds: float):
        self.seed, self.seconds = seed, seconds
        self.celsius: list[float] = []
        self.expected_c: list[float] = []
        self.lags_us: array = array("d")
        self.dead_letters = 0

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        count = int(FLEET_RATE_HZ * self.seconds) // FLEET_GATEWAYS * FLEET_GATEWAYS
        # Readings are unique after the round trip, so each delivery names
        # the one operation it belongs to.
        seen: set[float] = set()
        while len(self.celsius) < count:
            reading = round(rng.uniform(-40.0, 150.0), 3)
            back = celsius_round_trip(reading)
            if back not in seen:
                seen.add(back)
                self.celsius.append(reading)
                self.expected_c.append(back)

    def build(self) -> FleetTopology:
        return FleetTopology()

    def drive(self, topo: FleetTopology, tick) -> None:
        gateways, check, env = topo.env.gateways, topo.check, topo.env
        names = [g.id.name for g in gateways]
        n = len(gateways)
        period = 1.0 / FLEET_RATE_HZ
        lags = self.lags_us
        start = perf_counter() + 0.005
        for i, celsius in enumerate(self.celsius):
            due = start + i * period
            now = perf_counter()
            if now < due:
                time.sleep(due - now)
                now = perf_counter()
            tick(now)
            lags.append((now - due) * 1e6)
            check.expect(names[i % n], self.expected_c[i], due)
            gateways[i % n].send_msg(OpRequest(names[i % n], "temp", [celsius]))
        _wait_until(lambda: check.matched + env.dead_letter_total() >= check.sent,
                    DRAIN_TIMEOUT_S)
        self.dead_letters = env.dead_letter_total()

    def evaluate(self, topo: FleetTopology) -> Outcome:
        check = topo.check
        problems = []
        if self.dead_letters:
            problems.append(f"{self.dead_letters} message(s) dead-lettered")
        return Outcome(
            attempted=check.sent,
            failed=count_failed([check]),
            latencies_us=check.latencies_us,
            done_at=check.done_at,
            generator_lags_us=list(self.lags_us),
            records=[check.latencies_us, check.done_at, self.lags_us],
            problems=problems,
        )


# ---------------------------------------------------------------------------
# router_closed


class Target(Artifact):
    """Plain artifact reached through the router's link; checks each message
    and frees one in-flight slot."""

    check: StreamCheck
    slots: threading.Semaphore

    @operation
    def recv(self, payload):
        self.check.deliver(self.id.name, payload, perf_counter())
        self.slots.release()


class RouterTopology:
    def __init__(self):
        self.env = BenchEnv()
        self.check = StreamCheck()
        self.slots = threading.Semaphore(ROUTER_IN_FLIGHT)
        runtime, engine = self.env.runtime, self.env.engine
        ws = runtime.default_workspace
        router_id = runtime.make_artifact(ws, "router", GatewayArtifact, [])
        self.router = runtime.lookup(router_id)
        publish = engine.define_route("artifact:router", [], "mq:plant/router")
        subscribe = engine.define_route("mq:plant/router", [], "artifact:router")
        self.router.attach_route(publish, engine=engine)
        self.router.attach_route(subscribe)
        self.targets = []
        for i in range(ROUTER_TARGETS):
            aid = runtime.make_artifact(ws, f"t{i}", Target, [])
            target = runtime.lookup(aid)
            target.check = self.check
            target.slots = self.slots
            runtime.link_artifacts(router_id, aid)
            self.targets.append(target)
        self.router.start_listening()
        self.env.gateways.append(self.router)

    def close(self) -> None:
        self.env.close()


class RouterClosed:
    name = "router_closed"

    def __init__(self, seed: int, seconds: float):
        self.seed, self.seconds = seed, seconds
        self.inputs: list[tuple[int, float, str]] = []
        self.sends: array = array("d")
        self.forwarded = 0
        self.dead_letters = 0

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        for _ in range(ROUTER_INPUTS):
            value = round(rng.uniform(0.0, 1000.0), 3)
            self.inputs.append((rng.randrange(ROUTER_TARGETS), value, wire_text(value)))

    def build(self) -> RouterTopology:
        return RouterTopology()

    def drive(self, topo: RouterTopology, tick) -> None:
        router, check, inputs, sends = topo.router, topo.check, self.inputs, self.sends
        names = [t.id.name for t in topo.targets]

        def send() -> None:
            now = perf_counter()
            tick(now)
            k = len(sends)
            sends.append(now)
            target, value, text = inputs[k % ROUTER_INPUTS]
            check.expect(names[target], f"{k} {text}", now)
            router.send_msg(OpRequest(names[target], "recv", [k, value]))

        _closed_loop(topo.slots, ROUTER_IN_FLIGHT, self.seconds, send)
        self.forwarded = router.stats.forwarded
        self.dead_letters = topo.env.dead_letter_total()

    def evaluate(self, topo: RouterTopology) -> Outcome:
        check = topo.check
        problems = []
        if self.forwarded != check.sent:
            problems.append(f"router forwarded {self.forwarded} of {check.sent}")
        if self.dead_letters:
            problems.append(f"{self.dead_letters} message(s) dead-lettered")
        return Outcome(
            attempted=check.sent,
            failed=count_failed([check]),
            latencies_us=check.latencies_us,
            done_at=check.done_at,
            generator_lags_us=_closed_loop_lags_us(self.sends, check.done_at, ROUTER_IN_FLIGHT),
            records=[check.latencies_us, check.done_at, self.sends],
            problems=problems,
        )


# ---------------------------------------------------------------------------
# device_chain


class Mirror(MirrorGateway):
    """The industry mirror gateway, also checking each applied value."""

    check: StreamCheck
    applied_at: dict

    @operation
    def counter_changed(self, value):
        super().counter_changed(value)
        now = perf_counter()
        self.applied_at[value] = now
        self.check.deliver("plc", value, now)


class Robot(GatewayArtifact):
    """Robot gateway; checks each `AT` reply and frees one in-flight slot."""

    check: StreamCheck
    slots: threading.Semaphore

    @operation
    def robot_reply(self, line):
        self.update_property("last_reply", line)
        self.check.deliver("robot", line, perf_counter())
        self.slots.release()


class ChainTopology:
    def __init__(self):
        # One check per step the chain must show, all indexed by write.
        self.applied, self.observed = StreamCheck(), StreamCheck()
        self.tapped, self.replies = StreamCheck(), StreamCheck()
        self.observer_lags_us = array("d")
        self.slots = threading.Semaphore(CHAIN_IN_FLIGHT)
        self.vars_server = VarStoreServer()
        self.robot_sim = RobotSimulator()
        self.env = env = BenchEnv()
        self.client: VarClient | None = None
        # The variable must exist before the mirror's route subscribes to it.
        self.vars_server.write(COUNTER_VAR, 0)
        runtime, engine = env.runtime, env.engine
        ws = runtime.default_workspace
        self.mirror = runtime.lookup(runtime.make_artifact(ws, "plc", Mirror, []))
        self.mirror.check = self.applied
        self.mirror.applied_at = {}
        self.sensor = runtime.lookup(runtime.make_artifact(ws, "sensor", GatewayArtifact, []))
        self.robot = runtime.lookup(runtime.make_artifact(ws, "robot", Robot, []))
        self.robot.check = self.replies
        self.robot.slots = self.slots
        env.gateways.extend([self.mirror, self.sensor, self.robot])

        vars_uri = (f"vars:{self.vars_server.host}:{self.vars_server.port}/"
                    f"{COUNTER_VAR}?mode=subscribe")
        tcp_uri = f"tcp:{self.robot_sim.host}:{self.robot_sim.port}?role=client"
        sync = engine.define_route(
            vars_uri,
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
        for gateway in env.gateways:
            gateway.start_listening()
        runtime.focus(CallbackObserver(on_change=self._agent), self.mirror.id)
        self.client = VarClient(self.vars_server.host, self.vars_server.port)
        if not self.robot_sim.server.wait_for_connection(timeout=10.0):
            self.close()
            raise RuntimeError("robot link did not come up")

    def _agent(self, artifact_id, name, value, version) -> None:
        """Agent surrogate: on each mirrored change, publish a sensor reading
        and command the robot."""
        if name != COUNTER_VAR:
            return
        now = perf_counter()
        applied_at = self.mirror.applied_at.pop(value, None)
        if applied_at is not None:
            self.observer_lags_us.append((now - applied_at) * 1e6)
        self.observed.deliver("plc", value, now)
        self.sensor.send_msg(OpRequest("sensor", "reading", [value]))
        self.robot.send_msg(OpRequest("robot", "move", [f"MOVE station-{value}"]))

    def drain_tap(self, timeout: float = 0.0) -> None:
        message = self.tap.poll(timeout)
        while message is not None:
            self.tapped.deliver("sensor", message.body, perf_counter())
            message = self.tap.poll(0.0)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        self.env.close()
        self.vars_server.stop()
        self.robot_sim.stop()


class DeviceChain:
    name = "device_chain"

    def __init__(self, seed: int, seconds: float):
        self.seed, self.seconds = seed, seconds
        self.base = 0
        self.sends: array = array("d")
        self.final_counter = None
        self.dead_letters = 0

    def prepare(self) -> None:
        self.base = random.Random(self.seed).randrange(1, 1_000_000)

    def build(self) -> ChainTopology:
        return ChainTopology()

    def drive(self, topo: ChainTopology, tick) -> None:
        client, sends = topo.client, self.sends
        checks = (topo.applied, topo.observed, topo.tapped, topo.replies)

        def send() -> None:
            topo.drain_tap()
            now = perf_counter()
            tick(now)
            sends.append(now)
            value = self.base + len(sends)
            expected = (("plc", value), ("plc", value), ("sensor", wire_text(value)),
                        ("robot", f"AT station-{value}"))
            for check, (destination, body) in zip(checks, expected):
                check.expect(destination, body, now)
            client.write(COUNTER_VAR, value)

        _closed_loop(topo.slots, CHAIN_IN_FLIGHT, self.seconds, send)
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        while topo.tapped.matched < topo.tapped.sent and time.monotonic() < deadline:
            topo.drain_tap(0.05)
        self.final_counter = topo.mirror.property_value(COUNTER_VAR, None)
        self.dead_letters = topo.env.dead_letter_total()

    def evaluate(self, topo: ChainTopology) -> Outcome:
        problems = []
        last = self.base + len(self.sends)
        if self.sends and self.final_counter != last:
            problems.append(f"mirror counter ends at {self.final_counter!r}, not {last}")
        if self.dead_letters:
            problems.append(f"{self.dead_letters} message(s) dead-lettered")
        replies = topo.replies
        checks = (topo.applied, topo.observed, topo.tapped, replies)
        return Outcome(
            attempted=replies.sent,
            failed=count_failed(checks),
            latencies_us=replies.latencies_us,
            done_at=replies.done_at,
            generator_lags_us=_closed_loop_lags_us(self.sends, replies.done_at, CHAIN_IN_FLIGHT),
            records=[self.sends, topo.observer_lags_us] + [
                a for c in checks for a in (c.latencies_us, c.done_at)],
            problems=problems,
            observer_lags_us=topo.observer_lags_us,
        )


WORKLOADS = {w.name: w for w in (FleetOpen, RouterClosed, DeviceChain)}
