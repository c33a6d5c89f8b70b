#!/usr/bin/env python3
"""Print the order in which the shared loop handles the lines of a device chain.

Builds the device chain of perfbench's device_chain
(`artifact.bench.industry.DeviceChain`: a variable server, a robot
simulator, the mirror, sensor and robot gateways with their four routes, an
observer that publishes a reading and commands the robot on each mirrored
change) and drives it from this thread with `--in-flight` writes in
flight: the next WRITE goes out as soon as the last one is answered and a
robot reply has freed a slot. Every line the loop receives is noted, on the
loop, as it is handed to its handler:

    WRITE n   the variable server reads the write of value n
    OK n      the writer's client reads its answer
    V n       the mirror's subscription reads the push of value n
    MOVE n    the robot simulator reads the command of chain n
    AT n      the robot gateway's tcp: endpoint reads the robot's reply

and, off the loop, `woken n` when the writer's write of value n returns.
The script prints these events for `--show` chains from the middle of the
run, in order, with the microseconds since the first one shown. It then
counts the chains whose writer was woken, and whose next WRITE the loop
handled, before their AT: a writer woken while its chain is still on the
loop competes with the loop for the interpreter lock, and a chain whose
next WRITE goes first waits for work of the next chain. Last comes the
median time from a WRITE to its AT. `--pin` runs the process on one CPU, as
perfbench does.

    PYTHONPATH=src python scripts/chain_timeline.py [--chains N] [--in-flight K] [--show S] [--pin]
"""
from __future__ import annotations

import argparse
import os
import threading
from collections import deque
from time import perf_counter

from artifact import GatewayArtifact, operation
from artifact.bench.industry import COUNTER_VAR, DeviceChain
from artifact.endpoints import VarClient
from artifact.loop import shared_loop

LABELS = {"WRITE": "WRITE", "OK": "OK", "VALUE": "V", "MOVE": "MOVE", "AT": "AT"}


class Robot(GatewayArtifact):
    """The robot gateway; each reply frees one slot of the writer."""

    slots: threading.Semaphore

    @operation
    def robot_reply(self, line):
        self.update_property("last_reply", line)
        self.slots.release()


class Timeline:
    """(perf_counter, label, chain) of each line the loop hands to a handler."""

    def __init__(self):
        self.events: list[tuple[float, str, int]] = []
        self.recording = False
        self._answered: deque[int] = deque()  # writes sent and not yet answered

    def sent(self, value: int) -> None:
        self._answered.append(value)

    def wrap(self, on_line):
        """`on_line`, noting each line first; on the loop."""
        def noted(line: str) -> None:
            if self.recording:
                self._note(line)
            on_line(line)
        return noted

    def _note(self, line: str) -> None:
        head, _, rest = line.partition(" ")
        label = LABELS.get(head)
        if label is None:
            return
        if label == "OK":
            if not self._answered:
                return
            chain = self._answered.popleft()
        else:
            # WRITE counter n | VALUE counter version n | MOVE station-n | AT station-n
            chain = int(rest.rsplit(" ", 1)[-1].rpartition("-")[2])
        self.events.append((perf_counter(), label, chain))


def drive(client: VarClient, tap, timeline: Timeline, slots: threading.Semaphore,
          chains: int, in_flight: int) -> None:
    for value in range(1, chains + 1):
        while tap.poll(0.0) is not None:  # the readings, so the topic never fills
            pass
        if not slots.acquire(timeout=10.0):
            raise RuntimeError(f"no robot reply freed a slot before write {value}")
        timeline.sent(value)
        client.write(COUNTER_VAR, value)
        timeline.events.append((perf_counter(), "woken", value))
    for _ in range(in_flight):  # every chain ends with its AT
        if not slots.acquire(timeout=10.0):
            raise RuntimeError("the last chains did not end")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chains", type=int, default=400)
    parser.add_argument("--in-flight", type=int, default=16)
    parser.add_argument("--show", type=int, default=3)
    parser.add_argument("--pin", action="store_true",
                        help="run on one CPU, as perfbench does")
    args = parser.parse_args()
    if args.pin:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    slots = threading.Semaphore(args.in_flight)
    timeline = Timeline()
    chain = DeviceChain(robot_class=Robot)
    chain.robot.slots = slots
    client, tap = chain.client, chain.tap
    reactor = shared_loop.acquire()
    try:
        client.write(COUNTER_VAR, 0)  # the server has accepted the writer's connection
        wrapped = threading.Event()

        def wrap_every_connection() -> None:  # on the loop, which owns the list
            for conn in reactor.connections():
                conn.on_line = timeline.wrap(conn.on_line)
            wrapped.set()

        reactor.call_soon(wrap_every_connection)
        if not wrapped.wait(5.0):
            raise RuntimeError("the loop did not run the wrap")
        timeline.recording = True
        drive(client, tap, timeline, slots, args.chains, args.in_flight)
        timeline.recording = False
    finally:
        chain.close()
        shared_loop.release()

    report(sorted(timeline.events), args.chains, max(1, args.chains // 2), args.show)


def report(events: list[tuple[float, str, int]], chains: int, first: int, show: int) -> None:
    shown = range(first, first + show)
    window = [e for e in events if e[2] in shown or (e[1] == "WRITE" and e[2] - 1 in shown)]
    print(f"chains {chains}; the events of chains {first}-{first + show - 1}, in order")
    start = window[0][0] if window else 0.0
    for at, label, chain in window:
        print(f"{(at - start) * 1e6:10.1f} us  {label:5s} {chain}")
    when = {}
    for index, (at, label, chain) in enumerate(events):
        when.setdefault((label, chain), (index, at))
    ended = [n for n in range(1, chains) if ("AT", n) in when and ("WRITE", n) in when]
    for label, step in (("woken", 0), ("WRITE", 1)):
        early = sum(when[(label, n + step)][0] < when[("AT", n)][0]
                    for n in ended if (label, n + step) in when)
        what = "writer woken" if label == "woken" else "next WRITE handled"
        print(f"{what} before the AT of its chain: {early} of {len(ended)} chains")
    spans = sorted((when[("AT", n)][1] - when[("WRITE", n)][1]) * 1e6 for n in ended)
    if spans:
        print(f"WRITE to AT, median: {spans[len(spans) // 2]:.1f} us")

if __name__ == "__main__":
    main()
