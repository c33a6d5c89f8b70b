"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload router_closed --seed 1 --seconds 20 --trace 0

The program under test is imported from `src/` of the checkout this file
sits in. A run builds the workload's topology several times (set-up time is
the median), keeps the last one, drives the message phase for `--seconds`,
checks every delivery and prints the end-to-end metrics (`--trace 0`) or the
per-layer metrics of a traced run (`--trace 1`). The last line of standard
output is the JSON result; the exit code is 0 only when every check passed.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACE_DIR = HERE / "out"

SETUP_REPEATS = 15
QUIET_S = 1.0
# The message phase is cut into windows of about this length; throughput,
# latency and CPU per message are medians over windows, so a few seconds in
# which a shared host deschedules the benchmark move them less.
WINDOW_S = 1.0
# A run that has not ended by then is killed by SIGALRM, without a result.
RUN_LIMIT_S = 170
# A torn-down topology has settled once its thread count stops falling for
# this long; threads that never exit stay counted.
SETTLE_QUIET_S = 0.2


# ---------------------------------------------------------------------------
# process readings


def pin_to_one_cpu() -> None:
    """Run this process, and every thread it starts later, on one CPU.

    The program's threads share one interpreter lock, so it computes on about
    one core either way. Left to the kernel, device_chain flips between runs
    where its threads share a core (about 2.9k chains/s, 350 us of CPU per
    chain) and runs where they are spread over two and hand the lock across
    cores (about 1.5k chains/s, 780 us); pinning removes that lottery.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def cpu_s() -> float:
    """Process CPU of all threads, user plus system."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def ctx_switches() -> int:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_nvcsw + usage.ru_nivcsw


def rss_mb() -> float:
    """Current resident set, from /proc/self/statm."""
    with open("/proc/self/statm", encoding="ascii") as statm:
        resident_pages = int(statm.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 1e6


def os_threads() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise RuntimeError("no Threads: line in /proc/self/status")


def settle(threads: int) -> None:
    """Wait until the threads of a torn-down topology have exited."""
    count, since = os_threads(), perf_counter()
    while count > threads and perf_counter() - since < SETTLE_QUIET_S:
        time.sleep(0.005)
        now = os_threads()
        if now < count:
            count, since = now, perf_counter()


class Windows:
    """Marks (time, process CPU) about every WINDOW_S of the message phase."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []
        self._next = 0.0

    def tick(self, now: float) -> None:
        if now >= self._next:
            self.marks.append((now, cpu_s()))
            self._next = now + WINDOW_S

    def stats(self, done_at, latencies_us) -> list[tuple[float, float, float]]:
        """(msg/s, p50 us, CPU us per msg) of each window with completions;
        a completion belongs to the window it ended in."""
        completions = sorted(zip(done_at, latencies_us))
        ends = [at for at, _ in completions]
        rows = []
        for (t0, cpu0), (t1, cpu1) in zip(self.marks, self.marks[1:]):
            lo, hi = bisect.bisect_left(ends, t0), bisect.bisect_left(ends, t1)
            if hi == lo:
                continue
            count = hi - lo
            p50 = statistics.median(latency for _, latency in completions[lo:hi])
            rows.append((count / (t1 - t0), p50, (cpu1 - cpu0) * 1e6 / count))
        return rows


# ---------------------------------------------------------------------------
# one run


def run(workload, tracer) -> tuple[object, dict, dict]:
    baseline_threads = os_threads()
    workload.build().close()  # warm-up: imports, first-use caches
    settle(baseline_threads)
    setup_times = []
    for repeat in range(SETUP_REPEATS):
        gc.collect()  # each build starts from the same collector state
        start = perf_counter()
        topo = workload.build()
        setup_times.append(perf_counter() - start)
        if repeat < SETUP_REPEATS - 1:
            topo.close()
            settle(baseline_threads)
    try:
        workload.prepare()
        idle_cores = 0.0
        if tracer is not None:
            cpu0, wall0 = cpu_s(), perf_counter()
            time.sleep(QUIET_S)
            idle_cores = (cpu_s() - cpu0) / (perf_counter() - wall0)
            tracer.install()
        windows = Windows()
        switches0 = ctx_switches()
        try:
            workload.drive(topo, windows.tick)
            windows.marks.append((perf_counter(), cpu_s()))  # closes the last window
        finally:
            if tracer is not None:
                tracer.uninstall()
        switches = ctx_switches() - switches0
        rss, threads = rss_mb(), os_threads()
    finally:
        topo.close()
    outcome = workload.evaluate(topo)
    rss -= outcome.record_mb()
    completed = max(outcome.completed, 1)
    rows = windows.stats(outcome.done_at, outcome.latencies_us) or [(0.0, 0.0, 0.0)]
    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_msg_s": (statistics.median(row[0] for row in rows), "msg/s"),
        "latency_p50_us": (statistics.median(row[1] for row in rows), "us"),
        "cpu_us_per_msg": (statistics.median(row[2] for row in rows), "us"),
        "rss_mb": (rss, "MB"),
        "os_threads": (threads, "count"),
    }
    per_layer = {}
    if tracer is not None:
        lags = outcome.generator_lags_us or [0.0]
        observer_lags = outcome.observer_lags_us
        per_layer = {
            "messages.to_message_us": (tracer.median_us("messages.to_message"), "us"),
            "messages.copies_per_op": (tracer.copies / completed, "count"),
            "routing.process_us": (tracer.median_us("routing.process"), "us"),
            "routing.queue_wait_us": (tracer.queue_wait_us(), "us"),
            "routing.get_hit_ratio": (tracer.get_hit_ratio, "ratio"),
            "gateway.send_msg_us": (tracer.median_us("gateway.send_msg"), "us"),
            "gateway.deliver_self_us": (tracer.median_us("gateway.deliver", self_time=True), "us"),
            "gateway.idle_cpu_cores": (idle_cores, "cores"),
            "runtime.exec_op_us": (tracer.median_us("runtime.exec_op"), "us"),
            "runtime.observer_lag_us": (statistics.median(observer_lags) if observer_lags else 0.0,
                                        "us"),
            "exprlang.eval_us": (tracer.median_us("exprlang.eval_expr"), "us"),
            "broker.publish_us": (tracer.median_us("broker.publish"), "us"),
            "varstore.write_rtt_us": (tracer.median_us("varstore.write"), "us"),
            "tcp.send_us": (tracer.median_us("tcp.send"), "us"),
            "process.ctx_switches_per_op": (switches / completed, "count"),
            "bench.generator_lag_us": (statistics.median(lags), "us"),
            "bench.generator_lag_max_us": (max(lags), "us"),
        }
    return outcome, end_to_end, per_layer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "artifact" / "__init__.py").is_file():
        print(f"perfbench: the program is missing: no package at {SRC / 'artifact'}",
              file=sys.stderr)
        return 2
    signal.alarm(RUN_LIMIT_S)
    pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS  # imports the program

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    outcome, end_to_end, per_layer = run(workload, tracer)
    if tracer is not None:
        trace_file = TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write(trace_file)
        print(f"spans: {len(tracer.spans)} written to {trace_file}", file=sys.stderr)

    correct = outcome.attempted > 0 and outcome.failed == 0 and not outcome.problems
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    # The human-readable line gives the end-to-end figures of traced runs
    # too, which shows the tracing overhead; the JSON line gives one set.
    summary = " ".join(f"{name}={value:.6g}{unit}"
                       for name, (value, unit) in {**end_to_end, **per_layer}.items())
    print(f"{args.workload} seed={args.seed} trace={args.trace} attempted={outcome.attempted} "
          f"failed={outcome.failed} correct={correct} {summary}")
    metrics = per_layer if tracer is not None else end_to_end
    print(json.dumps({
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
