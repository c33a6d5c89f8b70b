"""What building the scenario topologies leaves behind.

Every GC-tracked object a build leaves counts towards the next cyclic-GC
collection, and a collection that lands inside a build lengthens it. A build
starts no thread, so these counts are deterministic.
"""
from __future__ import annotations

import gc

from artifact.bench.config import Scenario, ScenarioConfig
from artifact.bench.metrics import DeliveryCollector
from artifact.bench.scenarios import BenchEnv, _build_router, _build_terminals

N = 200


def _footprint(build, scenario: Scenario) -> tuple[float, int]:
    """(GC-tracked objects left per artifact, generation-0 collections) of
    one build of N artifacts."""
    collections = 0

    def on_gc(phase, info):
        nonlocal collections
        if phase == "start" and info["generation"] == 0:
            collections += 1

    env = BenchEnv()
    try:
        cfg = ScenarioConfig(scenario=scenario, n_artifacts=N)
        collector = DeliveryCollector()
        gc.collect()
        before = len(gc.get_objects())
        gc.callbacks.append(on_gc)
        try:
            build(env, cfg, collector)
        finally:
            gc.callbacks.remove(on_gc)
        return (len(gc.get_objects()) - before) / N, collections
    finally:
        env.close()


def test_a_terminal_build_leaves_few_objects_per_gateway_and_few_collections():
    objects, collections = _footprint(_build_terminals, Scenario.TERMINALS)
    assert objects <= 40, f"{objects:.1f} tracked objects per terminal gateway"
    assert collections <= 10, f"{collections} generation-0 collections in one build of {N}"


def test_a_router_build_leaves_few_objects_per_target():
    objects, _ = _footprint(_build_router, Scenario.ROUTER)
    assert objects <= 5, f"{objects:.1f} tracked objects per plain target"
