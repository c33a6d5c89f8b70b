#!/usr/bin/env python3
"""Time each hop of the router path, one message at a time, on one thread.

Builds the router topology (one router gateway with the route pair
``artifact:router -> mq:plant/router -> artifact:router`` and linked plain
targets) but starts no thread: the routes' consumers and producers are made
from their components and driven from here. Each message goes through

    send_msg -> channel take -> process -> mq send -> subscription take
    -> process -> artifact send (enqueue, deliver, exec_op)

(the ``artifact:`` producer delivers on the thread that sends, so the last
stage includes ``deliver``), and the script prints the microseconds per
message each stage took, as the median over rounds, so a per-hop change can
be sized without the threaded benchmark. Like a started route, a stage runs
``process`` only for a non-empty chain; the topology's chains are empty, so
those two stages time only that test. The script also prints how often
``Message.copy`` ran per message. Wall time equals CPU time here, since
nothing else runs.

    PYTHONPATH=src python scripts/hotpath_stages.py [--messages N] [--rounds R]
"""
from __future__ import annotations

import argparse
import random
import statistics
from time import perf_counter

from artifact import Artifact, GatewayArtifact, Message, OpRequest, operation, process
from artifact.bench.scenarios import BenchEnv

STAGES = (
    "send_msg",
    "channel take",
    "process (out)",
    "mq send",
    "subscription take",
    "process (in)",
    "artifact send",
)


class Target(Artifact):
    @operation
    def recv(self, payload):
        pass


def build(env: BenchEnv, targets: int):
    runtime, engine = env.runtime, env.engine
    ws = runtime.default_workspace
    router_id = runtime.make_artifact(ws, "router", GatewayArtifact, [])
    router = runtime.lookup(router_id)
    outbound = engine.define_route("artifact:router", [], "mq:plant/router")
    inbound = engine.define_route("mq:plant/router", [], "artifact:router")
    router.attach_route(outbound, engine=engine)
    router.attach_route(inbound)
    names = []
    for i in range(targets):
        aid = runtime.make_artifact(ws, f"t{i}", Target, [])
        runtime.link_artifacts(router_id, aid)
        names.append(aid.name)

    def consumer(route):
        return engine.registry.get(route.source.scheme).create_consumer(route.source, route)

    def producer(route):
        return engine.registry.get(route.sink.scheme).create_producer(route.sink, route)

    hops = (
        consumer(outbound),
        outbound.processors,
        producer(outbound),
        consumer(inbound),
        inbound.processors,
        producer(inbound),
    )
    return router, names, hops


def run_round(router, names, hops, messages: int, rng: random.Random) -> list[float]:
    out_consumer, out_chain, mq_producer, mq_consumer, in_chain, in_producer = hops
    totals = [0.0] * len(STAGES)
    forwarded = router.stats.forwarded
    for k in range(messages):
        request = OpRequest(rng.choice(names), "recv", [k, round(rng.uniform(0, 1000), 3)])
        t0 = perf_counter()
        router.send_msg(request)
        t1 = perf_counter()
        message = out_consumer.try_get()
        t2 = perf_counter()
        if out_chain:
            message = process(message, out_chain)
        t3 = perf_counter()
        mq_producer.send(message)
        t4 = perf_counter()
        message = mq_consumer.try_get()
        t5 = perf_counter()
        if in_chain:
            message = process(message, in_chain)
        t6 = perf_counter()
        in_producer.send(message)
        t7 = perf_counter()
        if router.stats.forwarded != forwarded + k + 1:
            raise RuntimeError(f"message {k} was not forwarded: {router.dead_letters.entries()}")
        stamps = (t0, t1, t2, t3, t4, t5, t6, t7)
        for i in range(len(STAGES)):
            totals[i] += stamps[i + 1] - stamps[i]
    return [t / messages * 1e6 for t in totals]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--messages", type=int, default=20000, help="messages per round")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--targets", type=int, default=1000, help="linked plain targets")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    env = BenchEnv()
    router, names, hops = build(env, args.targets)
    # send_msg and delivery only check that the router's incoming mailbox
    # is open; opening it instead of calling start_listening starts no
    # route, so no send or publish schedules one and every stage runs on
    # this thread.
    router.incoming.open = True
    rng = random.Random(args.seed)
    real_copy = Message.copy
    copies = 0

    def counted_copy(message):
        nonlocal copies
        copies += 1
        return real_copy(message)

    try:
        run_round(router, names, hops, min(1000, args.messages), rng)  # warm-up
        rounds = [run_round(router, names, hops, args.messages, rng) for _ in range(args.rounds)]
        # Counted apart from the timed rounds, so the count costs them nothing.
        Message.copy = counted_copy
        run_round(router, names, hops, args.messages, rng)
    finally:
        Message.copy = real_copy
        router.incoming.open = False
        for endpoint in (hops[0], hops[2], hops[3], hops[5]):
            endpoint.close()
        env.close()

    print(f"{args.messages} messages x {args.rounds} rounds, {args.targets} targets, "
          f"{copies / args.messages:.2f} Message.copy calls per message; "
          "us per message, median [min, max] over rounds")
    for i, stage in enumerate(STAGES):
        values = [r[i] for r in rounds]
        print(f"  {stage:18s} {statistics.median(values):7.2f}  "
              f"[{min(values):.2f}, {max(values):.2f}]")
    sums = [sum(r) for r in rounds]
    print(f"  {'total':18s} {statistics.median(sums):7.2f}  [{min(sums):.2f}, {max(sums):.2f}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
