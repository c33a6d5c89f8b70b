#!/usr/bin/env python3
"""Time one message through an ``artifact:`` channel that N gateways share.

For each ``--gateways`` count N, builds N gateways serving the channel
``hub`` and the channel's route consumer, made from its component with no
route started, so nothing runs but this thread. Each step is one
``send_msg`` by the last gateway built, one take from the consumer and one
``len`` of it, as a started route's drain does, and the script checks that
the take returned the message just sent. It prints the microseconds per
message for each N, as the median [min, max] over rounds, and the best
round's cost relative to the first N's. A channel costs the same per
message whatever the number of gateways sharing it when the last column
stays near 1.

    PYTHONPATH=src python scripts/channel_stages.py [--gateways 1 1000] [--messages N] [--rounds R]
"""
from __future__ import annotations

import argparse
import statistics
from time import perf_counter

from artifact import GatewayArtifact, OpRequest
from artifact.bench.scenarios import BenchEnv
from artifact.uri import parse_endpoint_uri

CHANNEL = "hub"


def build(env: BenchEnv, gateways: int):
    """`gateways` listening gateways on CHANNEL; returns the last one and
    the channel's consumer."""
    runtime = env.runtime
    ws = runtime.default_workspace
    built = []
    for i in range(gateways):
        gateway = runtime.lookup(runtime.make_artifact(ws, f"g{i}", GatewayArtifact, [CHANNEL]))
        gateway.start_listening()
        built.append(gateway)
    uri = parse_endpoint_uri(f"artifact:{CHANNEL}")
    consumer = env.registry.get(uri.scheme).create_consumer(uri, None)
    return built[-1], consumer


def run_round(sender, consumer, messages: int) -> float:
    """Microseconds per message of `messages` send, take and len steps."""
    request = OpRequest(sender.id.name, "recv", [0])
    started = perf_counter()
    for _ in range(messages):
        sent = sender.send_msg(request)
        taken = consumer.try_get()
        len(consumer)
        if taken is not sent:
            raise RuntimeError("the channel's consumer did not take the message just sent")
    return (perf_counter() - started) / messages * 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--gateways", type=int, nargs="+", default=[1, 10, 100, 1000],
                        help="gateway counts to probe, in order")
    parser.add_argument("--messages", type=int, default=5000, help="messages per round")
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args()

    print(f"{args.messages} messages x {args.rounds} rounds; us per message, "
          "median [min, max] over rounds, and best round / the first count's")
    first = None
    for count in args.gateways:
        env = BenchEnv()
        try:
            sender, consumer = build(env, count)
            run_round(sender, consumer, min(1000, args.messages))  # warm-up
            rounds = [run_round(sender, consumer, args.messages) for _ in range(args.rounds)]
            consumer.close()
        finally:
            env.close()
        best = min(rounds)
        first = best if first is None else first
        print(f"  {count:6d} {statistics.median(rounds):8.2f}  "
              f"[{best:.2f}, {max(rounds):.2f}]  x{best / first:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
