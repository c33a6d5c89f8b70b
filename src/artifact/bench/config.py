"""Scenario configuration for the benchmark harness."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Scenario(str, Enum):
    TERMINALS = "terminals"
    ROUTER = "router"
    INDUSTRY = "industry"


@dataclass
class ScenarioConfig:
    scenario: Scenario
    n_artifacts: int = 10
    period_ms: int = 100
    duration_s: float = 10.0
    seed: int = 0
    # Simulated per-operation device service time. The sleep releases the GIL,
    # so terminal gateways, each delivering on its own inbound route's thread,
    # overlap it while the single router serializes it.
    op_work_ms: float = 5.0

    def __post_init__(self):
        if self.n_artifacts < 1:
            raise ValueError("n_artifacts must be >= 1")
        if self.period_ms < 1:
            raise ValueError("period_ms must be >= 1")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be > 0")
        if self.op_work_ms < 0:
            raise ValueError("op_work_ms must be >= 0")

    @property
    def ticks(self) -> int:
        """Number of send rounds; fixed by duration and period, so dispatch
        counts are deterministic even when backpressure stretches the run."""
        return max(1, int(self.duration_s * 1000 / self.period_ms))
