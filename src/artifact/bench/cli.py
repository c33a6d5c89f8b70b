"""Benchmark CLI: `bench scenario1|scenario2|industry [options]`.

Single runs print a metrics line. With `--sweep`, both topologies run at each
N and the three comparison CSVs are written to `--out`. Exit code is 0 iff
the message-conservation invariant (sent == delivered + dead-lettered) held.
"""
from __future__ import annotations

import argparse
import logging
import sys

from ..routefile import load_route_file
from .config import Scenario, ScenarioConfig
from .industry import run_industry_demo
from .metrics import emit_csv
from .scenarios import run_scenario1, run_scenario2, run_sweep

log = logging.getLogger(__name__)

DEFAULT_SWEEP = "10,50,100,200"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=10, help="number of artifacts")
    parser.add_argument("--period-ms", type=int, default=100, help="send period per artifact")
    parser.add_argument("--duration-s", type=float, default=10.0, help="send phase length")
    parser.add_argument("--seed", type=int, default=0, help="payload RNG seed")
    parser.add_argument(
        "--op-work-ms", type=float, default=5.0,
        help="simulated device service time per received message",
    )
    parser.add_argument(
        "--sweep", nargs="?", const=DEFAULT_SWEEP, default=None, metavar="N,N,...",
        help=f"run both topologies over these N values (default {DEFAULT_SWEEP!r}) "
             "and emit comparison CSVs",
    )
    parser.add_argument("--out", default=".", help="directory for CSV output")
    parser.add_argument("--routes", default=None, help="declarative route file to add")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench", description="artifact gateway benchmark harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p1 = sub.add_parser("scenario1", help="N terminal gateways, one topic each")
    _add_common(p1)
    p2 = sub.add_parser("scenario2", help="one router gateway, N linked artifacts")
    _add_common(p2)
    pi = sub.add_parser("industry", help="variable server + broker + TCP robot demo")
    pi.add_argument("--writes", type=int, default=5, help="counter writes to perform")
    pi.add_argument(
        "--fault-after", type=int, default=None, metavar="K",
        help="drop the robot connection after write K and continue once it is back",
    )
    pi.add_argument("--seed", type=int, default=0)
    pi.add_argument("--routes", default=None, help="declarative route file to add")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(levelname)s %(name)s: %(message)s"
    )
    routes = load_route_file(args.routes) if args.routes else None

    if args.command == "industry":
        cfg = ScenarioConfig(scenario=Scenario.INDUSTRY, seed=args.seed)
        demo_log = run_industry_demo(
            cfg, writes=args.writes, fault_after_write=args.fault_after, extra_routes=routes
        )
        for event in demo_log.events():
            print(event)
        complete = (
            demo_log.count("sensor_pub") == args.writes
            and demo_log.count("robot_at") == args.writes
        )
        print(f"chain complete: {complete}")
        return 0 if complete else 1

    scenario = Scenario.TERMINALS if args.command == "scenario1" else Scenario.ROUTER
    cfg = ScenarioConfig(
        scenario=scenario,
        n_artifacts=args.n,
        period_ms=args.period_ms,
        duration_s=args.duration_s,
        seed=args.seed,
        op_work_ms=args.op_work_ms,
    )

    if args.sweep:
        ns = [int(part) for part in args.sweep.split(",") if part.strip()]
        points = run_sweep(cfg, ns, extra_routes=routes)
        for point in points:
            print(point.scenario1.summary("scenario1"))
            print(point.scenario2.summary("scenario2"))
        for path in emit_csv(points, args.out):
            print(f"wrote {path}")
        ok = all(p.scenario1.conserved and p.scenario2.conserved for p in points)
        return 0 if ok else 1

    runner = run_scenario1 if scenario == Scenario.TERMINALS else run_scenario2
    row = runner(cfg, routes)
    print(row.summary(args.command))
    return 0 if row.conserved else 1


if __name__ == "__main__":
    sys.exit(main())
