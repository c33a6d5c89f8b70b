"""Terminal and router topology scenarios.

Scenario 1 ("terminals"): N gateways, each publishing to and subscribing from
its own broker topic and receiving its own messages back. Each gateway's
route pair runs on the engine's shared worker pool, the inbound route on the
worker that ran the outbound one; the pool adds workers while operations
block, so the simulated service times of different gateways overlap.
Scenario 2 ("router"): a single
gateway with one topic pair forwards messages, addressed per artifact, to N
linked plain artifacts; every dispatch runs through the router's one serial
mailbox.

Each received message executes an operation with a configurable simulated
device service time, so the terminal topology overlaps work that the router
topology must serialize.
"""
from __future__ import annotations

import logging
import random
import time
from dataclasses import replace

from ..endpoints import TopicBroker, standard_components
from ..gateway import GatewayArtifact
from ..messages import OpRequest
from ..routefile import RouteFileEntry, define_routes
from ..routing import RoutingEngine
from ..runtime import Artifact, Runtime, operation
from .config import Scenario, ScenarioConfig
from .metrics import DeliveryCollector, MetricsRow, SweepPoint, rss_mb

log = logging.getLogger(__name__)

QUIESCENCE_POLL_S = 0.02


class BenchEnv:
    """Runtime, broker, component registry and engine wired together."""

    def __init__(self):
        self.runtime = Runtime()
        self.broker = TopicBroker()
        self.registry = standard_components(self.runtime, self.broker)
        self.engine = RoutingEngine(self.registry)
        self.gateways: list[GatewayArtifact] = []

    def close(self) -> None:
        self.runtime.shutdown()
        self.engine.shutdown()
        self.broker.stop()

    def dead_letter_total(self) -> int:
        total = sum(g.dead_letters.total for g in self.gateways)
        total += sum(r.dead_letters.total for r in self.engine.routes())
        return total


class _Worker:
    """Mixin state for operation bodies that simulate device service time."""

    _collector: DeliveryCollector | None = None
    _work_s: float = 0.0

    def configure(self, collector: DeliveryCollector, work_s: float) -> None:
        self._collector = collector
        self._work_s = work_s

    def _serve(self) -> None:
        if self._work_s > 0:
            time.sleep(self._work_s)
        if self._collector is not None:
            self._collector.record(self.id.name)


class TerminalGateway(_Worker, GatewayArtifact):
    """Communication end-point: owns its routes and dispatches its own messages."""

    @operation
    def recv(self, payload=None):
        self._serve()


class RouterGateway(GatewayArtifact):
    """Pure forwarder; inbound messages are addressed to linked artifacts."""


class PlainTarget(_Worker, Artifact):
    """Plain artifact reached through the router's linked operations."""

    @operation
    def recv(self, payload=None):
        self._serve()


# ---------------------------------------------------------------------------
# topology builders


def _build_terminals(env: BenchEnv, cfg: ScenarioConfig, collector: DeliveryCollector):
    ws = env.runtime.default_workspace
    for i in range(cfg.n_artifacts):
        name = f"term{i}"
        aid = env.runtime.make_artifact(ws, name, TerminalGateway, [])
        gateway = env.runtime.lookup(aid)
        gateway.configure(collector, cfg.op_work_ms / 1000.0)
        topic = f"bench/{name}"
        publish = env.engine.define_route(f"artifact:{name}", [], f"mq:{topic}")
        subscribe = env.engine.define_route(f"mq:{topic}", [], f"artifact:{name}")
        gateway.attach_route(publish, engine=env.engine)
        gateway.attach_route(subscribe)
        gateway.start_listening()
        env.gateways.append(gateway)
    return env.gateways


def _build_router(env: BenchEnv, cfg: ScenarioConfig, collector: DeliveryCollector):
    ws = env.runtime.default_workspace
    router_id = env.runtime.make_artifact(ws, "router", RouterGateway, [])
    router = env.runtime.lookup(router_id)
    topic = "bench/router"
    publish = env.engine.define_route("artifact:router", [], f"mq:{topic}")
    subscribe = env.engine.define_route(f"mq:{topic}", [], "artifact:router")
    router.attach_route(publish, engine=env.engine)
    router.attach_route(subscribe)
    router.start_listening()
    env.gateways.append(router)

    targets = []
    for i in range(cfg.n_artifacts):
        name = f"t{i}"
        aid = env.runtime.make_artifact(ws, name, PlainTarget, [])
        target = env.runtime.lookup(aid)
        target.configure(collector, cfg.op_work_ms / 1000.0)
        env.runtime.link_artifacts(router_id, aid)
        targets.append(target)
    return router, targets


# ---------------------------------------------------------------------------
# drive and measure


def _paced_sends(cfg: ScenarioConfig, collector: DeliveryCollector, send_batch) -> int:
    """Run cfg.ticks send rounds, one per period; backpressure stretches the
    pacing but never changes the number of messages sent."""
    rng = random.Random(cfg.seed)
    collector.mark_send_start()
    start = time.monotonic()
    sent = 0
    for tick in range(cfg.ticks):
        sent += send_batch(tick, rng)
        deadline = start + (tick + 1) * cfg.period_ms / 1000.0
        while True:
            delay = deadline - time.monotonic()
            if delay <= 0:
                break
            time.sleep(min(delay, 0.05))
    return sent


def _wait_quiescent(env: BenchEnv, collector: DeliveryCollector, expected: int, timeout: float) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        dead = env.dead_letter_total()
        if collector.total + dead >= expected:
            return dead
        time.sleep(QUIESCENCE_POLL_S)
    log.warning(
        "quiescence timeout: delivered=%d dead=%d expected=%d",
        collector.total, env.dead_letter_total(), expected,
    )
    return env.dead_letter_total()


def _drain_budget_s(cfg: ScenarioConfig, sent: int) -> float:
    return cfg.duration_s + sent * (cfg.op_work_ms / 1000.0) * 1.5 + 30.0


def _finish_row(
    cfg: ScenarioConfig, env: BenchEnv, collector: DeliveryCollector,
    load_time: float, mem: float, sent: int,
) -> MetricsRow:
    dead = _wait_quiescent(env, collector, sent, _drain_budget_s(cfg, sent))
    rate = collector.total / collector.elapsed() if collector.total else 0.0
    return MetricsRow(
        n_artifacts=cfg.n_artifacts,
        load_time_s=load_time,
        mem_mb=mem,
        msgs_per_s=rate,
        sent=sent,
        delivered=collector.total,
        dead_lettered=dead,
    )


def run_scenario1(
    cfg: ScenarioConfig,
    extra_routes: list[RouteFileEntry] | None = None,
    collector: DeliveryCollector | None = None,
) -> MetricsRow:
    """N terminal gateways, each on its own topic, loopback traffic."""
    if cfg.scenario != Scenario.TERMINALS:
        raise ValueError(f"expected a terminals config, got {cfg.scenario}")
    collector = collector if collector is not None else DeliveryCollector()
    env = BenchEnv()
    try:
        t0 = time.perf_counter()
        gateways = _build_terminals(env, cfg, collector)
        load_time = time.perf_counter() - t0
        _apply_extra_routes(env, extra_routes)

        def batch(tick: int, rng: random.Random) -> int:
            for gateway in gateways:
                gateway.send_msg(
                    OpRequest(gateway.id.name, "recv", [f"{tick} {rng.random():.6f}"])
                )
            return len(gateways)

        sent = _paced_sends(cfg, collector, batch)
        mem = rss_mb()
        return _finish_row(cfg, env, collector, load_time, mem, sent)
    finally:
        env.close()


def run_scenario2(
    cfg: ScenarioConfig,
    extra_routes: list[RouteFileEntry] | None = None,
    collector: DeliveryCollector | None = None,
) -> MetricsRow:
    """One router gateway forwarding to N linked plain artifacts."""
    if cfg.scenario != Scenario.ROUTER:
        raise ValueError(f"expected a router config, got {cfg.scenario}")
    collector = collector if collector is not None else DeliveryCollector()
    env = BenchEnv()
    try:
        t0 = time.perf_counter()
        router, targets = _build_router(env, cfg, collector)
        load_time = time.perf_counter() - t0
        _apply_extra_routes(env, extra_routes)

        def batch(tick: int, rng: random.Random) -> int:
            for target in targets:
                router.send_msg(
                    OpRequest(target.id.name, "recv", [f"{tick} {rng.random():.6f}"])
                )
            return len(targets)

        sent = _paced_sends(cfg, collector, batch)
        mem = rss_mb()
        return _finish_row(cfg, env, collector, load_time, mem, sent)
    finally:
        env.close()


def _apply_extra_routes(env: BenchEnv, entries: list[RouteFileEntry] | None) -> None:
    if not entries:
        return
    for route in define_routes(env.engine, entries):
        env.engine.start_route(route)


def run_sweep(
    base: ScenarioConfig,
    ns: list[int],
    extra_routes: list[RouteFileEntry] | None = None,
) -> list[SweepPoint]:
    """Run both topologies at each N; fills the three comparison CSV columns."""
    points = []
    for n in ns:
        row1 = run_scenario1(
            replace(base, scenario=Scenario.TERMINALS, n_artifacts=n), extra_routes
        )
        log.info("%s", row1.summary("scenario1"))
        row2 = run_scenario2(
            replace(base, scenario=Scenario.ROUTER, n_artifacts=n), extra_routes
        )
        log.info("%s", row2.summary("scenario2"))
        points.append(SweepPoint(n, row1, row2))
    return points
