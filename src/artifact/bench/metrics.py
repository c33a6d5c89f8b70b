"""Metrics rows, the delivery collector and CSV emission."""
from __future__ import annotations

import logging
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from ..errors import NoDataError

log = logging.getLogger(__name__)

CSV_HEADER = "nArtifacts,Scenario1,Scenario2"

MEMORY_CSV = "Experiment1Memory.csv"
LOAD_TIME_CSV = "Experiment1LoadingTime.csv"
MSGS_PER_SEC_CSV = "Experiment1nMsgsPerSec.csv"


@dataclass
class MetricsRow:
    n_artifacts: int
    load_time_s: float
    mem_mb: float
    msgs_per_s: float
    sent: int
    delivered: int
    dead_lettered: int

    @property
    def conserved(self) -> bool:
        return self.delivered + self.dead_lettered == self.sent

    def summary(self, label: str) -> str:
        return (
            f"{label} n={self.n_artifacts} load={self.load_time_s:.3f}s "
            f"mem={self.mem_mb:.1f}MB rate={self.msgs_per_s:.1f}msg/s "
            f"sent={self.sent} delivered={self.delivered} dead={self.dead_lettered}"
        )


@dataclass
class SweepPoint:
    n_artifacts: int
    scenario1: MetricsRow
    scenario2: MetricsRow


class DeliveryCollector:
    """Thread-safe counters shared by the scenario's operation bodies."""

    def __init__(self):
        self._lock = threading.Lock()
        self.total = 0
        self.per_name: dict[str, int] = {}
        self.first_send_ts: float | None = None
        self.last_delivery_ts: float | None = None

    def mark_send_start(self) -> None:
        with self._lock:
            if self.first_send_ts is None:
                self.first_send_ts = time.monotonic()

    def record(self, name: str) -> None:
        with self._lock:
            self.total += 1
            self.per_name[name] = self.per_name.get(name, 0) + 1
            self.last_delivery_ts = time.monotonic()

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self.per_name)

    def elapsed(self) -> float:
        with self._lock:
            if self.first_send_ts is None or self.last_delivery_ts is None:
                return 0.0
            return max(self.last_delivery_ts - self.first_send_ts, 1e-9)


def rss_mb() -> float:
    """Best-effort current resident set size of this process, in megabytes.

    Without psutil it reads /proc/self/statm, not the peak that getrusage
    reports; where neither is available it returns 0.0.
    """
    try:
        import psutil

        return psutil.Process().memory_info().rss / 1e6
    except ImportError:
        pass
    try:
        with open("/proc/self/statm", encoding="ascii") as statm:
            resident_pages = int(statm.read().split()[1])
        return resident_pages * os.sysconf("SC_PAGE_SIZE") / 1e6
    except (OSError, ValueError, IndexError):
        return 0.0


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def emit_csv(points: list[SweepPoint], out_dir: str | Path) -> list[Path]:
    """Write the three sweep CSVs; one line per sweep point after the header."""
    if not points:
        raise NoDataError("no sweep points to emit")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    columns = {
        MEMORY_CSV: lambda row: row.mem_mb,
        LOAD_TIME_CSV: lambda row: row.load_time_s,
        MSGS_PER_SEC_CSV: lambda row: row.msgs_per_s,
    }
    paths = []
    for filename, metric in columns.items():
        path = out / filename
        lines = [CSV_HEADER]
        for point in points:
            lines.append(
                f"{point.n_artifacts},{_fmt(metric(point.scenario1))},"
                f"{_fmt(metric(point.scenario2))}"
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
        log.info("wrote %s", path)
    return paths
