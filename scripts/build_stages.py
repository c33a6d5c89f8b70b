#!/usr/bin/env python3
"""Time each step of building the two scenario topologies, per call.

The build-side twin of ``hotpath_stages.py``. Each build is a fresh
``BenchEnv``. A terminal build makes ``--gateways`` terminal gateways, each
with the scenario-1 route pair ``artifact:<name> -> mq:bench/<name> ->
artifact:<name>``, and starts them listening, as ``bench scenario1`` does; a
router build makes one started router gateway and links ``--targets`` plain
targets to it, as ``bench scenario2`` does. The script prints the
microseconds per call of each step, as the median [min, max] over
``--builds`` builds:

    gateway: make_artifact, define_route, attach_route, start_listening
    target:  make_artifact, link_artifacts

and the sum of a gateway's ``make_artifact`` and ``start_listening``. A
device-chain build makes the topology of perfbench's device_chain: a
variable server, a robot simulator, the mirror, sensor and robot gateways
with their four routes, started, and a variable-server client. It prints
the microseconds of each of its steps that touches a socket, as the median
[min, max] over ``--builds`` builds, and of the whole build:

    VarStoreServer(), RobotSimulator(), vars_route_start (connect and SUB),
    tcp_route_start (the route whose source is the robot's tcp: endpoint),
    VarClient(), whole_build

It then builds ``--count-n`` gateways and as many targets once more and
prints the GC-tracked objects each leaves and the generation-0 collections
the build ran, and under each total a census: the 10 types that leave the
most objects, with the objects of each per gateway or target. A terminal
gateway's channel (``_Channel``) counts once: it is both the queue the
gateway sends to and the consumer of its outbound route.
The cyclic GC stays on throughout, as in a real build.

    PYTHONPATH=src python scripts/build_stages.py [--gateways N] [--targets N] [--builds B]
"""
from __future__ import annotations

import argparse
import gc
import statistics
from collections import Counter
from time import perf_counter

from artifact.bench.industry import DeviceChain
from artifact.bench.scenarios import BenchEnv, PlainTarget, RouterGateway, TerminalGateway

GATEWAY_STAGES = ("make_artifact", "define_route", "attach_route", "start_listening")
TARGET_STAGES = ("make_artifact", "link_artifacts")
CHAIN_STAGES = ("VarStoreServer()", "RobotSimulator()", "vars_route_start", "tcp_route_start",
                "VarClient()", "whole_build")
CENSUS_TYPES = 10  # types listed under each count of objects


def build_terminals(env: BenchEnv, count: int) -> list[float]:
    """Build `count` terminal gateways; returns the seconds spent in each
    gateway stage, summed over the gateways."""
    runtime, engine = env.runtime, env.engine
    ws = runtime.default_workspace
    spent = [0.0] * len(GATEWAY_STAGES)
    for i in range(count):
        name = f"term{i}"
        topic = f"mq:bench/{name}"
        t0 = perf_counter()
        gateway = runtime.lookup(runtime.make_artifact(ws, name, TerminalGateway, []))
        t1 = perf_counter()
        publish = engine.define_route(f"artifact:{name}", [], topic)
        subscribe = engine.define_route(topic, [], f"artifact:{name}")
        t2 = perf_counter()
        gateway.attach_route(publish, engine=engine)
        gateway.attach_route(subscribe)
        t3 = perf_counter()
        gateway.start_listening()
        t4 = perf_counter()
        env.gateways.append(gateway)
        spent[0] += t1 - t0
        spent[1] += (t2 - t1) / 2
        spent[2] += (t3 - t2) / 2
        spent[3] += t4 - t3
    return spent


def build_router(env: BenchEnv, count: int) -> list[float]:
    """Build a started router and link `count` plain targets to it; returns
    the seconds spent in each target stage, summed over the targets."""
    runtime, engine = env.runtime, env.engine
    ws = runtime.default_workspace
    router_id = runtime.make_artifact(ws, "router", RouterGateway, [])
    router = runtime.lookup(router_id)
    router.attach_route(engine.define_route("artifact:router", [], "mq:bench/router"), engine=engine)
    router.attach_route(engine.define_route("mq:bench/router", [], "artifact:router"))
    router.start_listening()
    env.gateways.append(router)
    spent = [0.0] * len(TARGET_STAGES)
    for i in range(count):
        t0 = perf_counter()
        aid = runtime.make_artifact(ws, f"t{i}", PlainTarget, [])
        t1 = perf_counter()
        runtime.link_artifacts(router_id, aid)
        t2 = perf_counter()
        spent[0] += t1 - t0
        spent[1] += t2 - t1
    return spent


def build_chain() -> tuple[list[float], object]:
    """Build one device chain as perfbench's device_chain does; returns the
    seconds of each chain stage and a callable that tears the chain down."""
    t = []
    chain = DeviceChain(marks=t)
    # t: start, VarStoreServer(), RobotSimulator(), routes defined, vars route
    # started, tcp route started, listening, VarClient(), robot link up
    return [t[1] - t[0], t[2] - t[1], t[4] - t[3], t[5] - t[4], t[7] - t[6], t[8] - t[0]], chain.close


def chain_us(builds: int) -> list[list[float]]:
    """One row per device-chain build: µs of each chain stage."""
    rows = []
    for _ in range(builds):
        gc.collect()  # each build starts from the same collector state, as in perfbench
        spent, close = build_chain()
        close()
        rows.append([s * 1e6 for s in spent])
    return rows


def per_call_us(build, count: int, builds: int) -> list[list[float]]:
    """One row per build: µs per call of each stage."""
    rows = []
    for _ in range(builds):
        env = BenchEnv()
        try:
            rows.append([s / count * 1e6 for s in build(env, count)])
        finally:
            env.close()
    return rows


def type_census() -> Counter:
    """GC-tracked objects by type name."""
    return Counter(type(o).__name__ for o in gc.get_objects())


def footprint(build, count: int) -> tuple[float, int, Counter]:
    """(GC-tracked objects left per unit, generation-0 collections, objects
    left by type name) of one build."""
    collections = 0

    def on_gc(phase, info):
        nonlocal collections
        if phase == "start" and info["generation"] == 0:
            collections += 1

    env = BenchEnv()
    try:
        gc.collect()
        # Taken before the count, so the census itself is in both.
        types_before = type_census()
        gc.collect()
        before = len(gc.get_objects())
        gc.callbacks.append(on_gc)
        try:
            build(env, count)
        finally:
            gc.callbacks.remove(on_gc)
        objects = (len(gc.get_objects()) - before) / count
        return objects, collections, type_census() - types_before
    finally:
        env.close()


def report_footprint(unit: str, build, count: int) -> None:
    objects, collections, census = footprint(build, count)
    print(f"tracked objects per {unit}: {objects:.1f}  "
          f"(gen-0 collections in a build of {count}: {collections})")
    for name, left in census.most_common(CENSUS_TYPES):
        print(f"    {name:24s} {left / count:6.2f}")


def report(title: str, stages, rows: list[list[float]]) -> None:
    print(title)
    for i, stage in enumerate(stages):
        values = [r[i] for r in rows]
        print(f"  {stage:18s} {statistics.median(values):7.2f}  "
              f"[{min(values):.2f}, {max(values):.2f}]")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--gateways", type=int, default=10, help="terminal gateways per build")
    parser.add_argument("--targets", type=int, default=1000, help="plain targets per build")
    parser.add_argument("--builds", type=int, default=40)
    parser.add_argument("--count-n", type=int, default=200,
                        help="gateways and targets of the build whose objects are counted")
    args = parser.parse_args()

    per_call_us(build_terminals, args.gateways, 2)  # warm-up: imports, first calls
    gateway_rows = per_call_us(build_terminals, args.gateways, args.builds)
    target_rows = per_call_us(build_router, args.targets, args.builds)
    print(f"{args.builds} builds; us per call, median [min, max] over builds")
    report(f"terminal gateway ({args.gateways} per build)", GATEWAY_STAGES, gateway_rows)
    sums = [r[0] + r[3] for r in gateway_rows]
    print(f"  {'make + listen':18s} {statistics.median(sums):7.2f}  [{min(sums):.2f}, {max(sums):.2f}]")
    report(f"plain target ({args.targets} per build)", TARGET_STAGES, target_rows)
    chain_us(2)  # warm-up
    report("device chain (one per build)", CHAIN_STAGES, chain_us(args.builds))

    report_footprint("gateway", build_terminals, args.count_n)
    report_footprint("target", build_router, args.count_n)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
