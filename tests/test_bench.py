from __future__ import annotations

import sys

import pytest

from artifact.bench import (
    CSV_HEADER,
    MetricsRow,
    Scenario,
    ScenarioConfig,
    SweepPoint,
    emit_csv,
    run_scenario1,
    run_scenario2,
)
from artifact.bench.cli import main
from artifact.bench.metrics import rss_mb
from artifact.bench.scenarios import DeliveryCollector
from artifact.errors import NoDataError


def _cfg(scenario, **overrides):
    base = dict(
        scenario=scenario,
        n_artifacts=2,
        period_ms=20,
        duration_s=0.2,
        seed=7,
        op_work_ms=0.0,
        poll_interval_ms=5.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_scenario1_conserves_messages():
    row = run_scenario1(_cfg(Scenario.TERMINALS))
    assert row.sent == 2 * 10
    assert row.delivered == row.sent
    assert row.dead_lettered == 0
    assert row.conserved
    assert row.msgs_per_s > 0
    assert row.load_time_s > 0


def test_scenario1_single_gateway_loopback():
    collector = DeliveryCollector()
    row = run_scenario1(_cfg(Scenario.TERMINALS, n_artifacts=1), collector=collector)
    assert row.delivered == row.sent
    assert collector.snapshot() == {"term0": row.sent}


def test_scenario2_forward_conservation():
    collector = DeliveryCollector()
    row = run_scenario2(_cfg(Scenario.ROUTER, n_artifacts=3), collector=collector)
    assert row.conserved
    per_target = collector.snapshot()
    assert set(per_target) == {"t0", "t1", "t2"}
    assert set(per_target.values()) == {row.sent // 3}


def test_dispatch_counts_deterministic_under_fixed_seed():
    first = DeliveryCollector()
    second = DeliveryCollector()
    run_scenario2(_cfg(Scenario.ROUTER, n_artifacts=3), collector=first)
    run_scenario2(_cfg(Scenario.ROUTER, n_artifacts=3), collector=second)
    assert first.snapshot() == second.snapshot()
    assert first.total == second.total


def test_scenario_guards_topology():
    with pytest.raises(ValueError):
        run_scenario1(_cfg(Scenario.ROUTER))
    with pytest.raises(ValueError):
        run_scenario2(_cfg(Scenario.TERMINALS))


def test_scenario1_aggregate_rate_grows_with_n():
    # every terminal sends once per period, so the delivered rate scales with N
    slow = run_scenario1(_cfg(Scenario.TERMINALS, n_artifacts=1, duration_s=0.5))
    fast = run_scenario1(_cfg(Scenario.TERMINALS, n_artifacts=6, duration_s=0.5))
    assert fast.msgs_per_s > slow.msgs_per_s


def _row(n, value):
    return MetricsRow(
        n_artifacts=n, load_time_s=value, mem_mb=value * 10, msgs_per_s=value * 100,
        sent=10, delivered=10, dead_lettered=0,
    )


def test_emit_csv_shape(tmp_path):
    points = [SweepPoint(10, _row(10, 1.0), _row(10, 0.5)),
              SweepPoint(20, _row(20, 2.0), _row(20, 0.6))]
    paths = emit_csv(points, tmp_path)
    assert len(paths) == 3
    for path in paths:
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("10,")
        assert lines[2].startswith("20,")


def test_emit_csv_header_byte_exact(tmp_path):
    points = [SweepPoint(10, _row(10, 1.0), _row(10, 0.5))]
    for path in emit_csv(points, tmp_path):
        raw = path.read_bytes()
        assert raw.startswith(b"nArtifacts,Scenario1,Scenario2\n")


def test_emit_csv_empty_rows(tmp_path):
    with pytest.raises(NoDataError):
        emit_csv([], tmp_path)


def test_cli_single_run(capsys):
    code = main([
        "scenario1", "--n", "2", "--period-ms", "20", "--duration-s", "0.2",
        "--op-work-ms", "0",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "scenario1 n=2" in out


def test_cli_sweep_writes_csvs(tmp_path, capsys):
    code = main([
        "scenario1", "--period-ms", "20", "--duration-s", "0.2", "--op-work-ms", "0",
        "--sweep", "1,2", "--out", str(tmp_path),
    ])
    assert code == 0
    for name in ("Experiment1Memory.csv", "Experiment1LoadingTime.csv",
                 "Experiment1nMsgsPerSec.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3


def test_cli_route_file_option(tmp_path):
    routes = tmp_path / "extra.routes"
    routes.write_text('route { from = "mq:x/in"; to = "mq:x/out" }\n', encoding="utf-8")
    code = main([
        "scenario2", "--n", "2", "--period-ms", "20", "--duration-s", "0.2",
        "--op-work-ms", "0", "--routes", str(routes),
    ])
    assert code == 0


def test_rss_mb_without_psutil_reads_current_not_peak(monkeypatch):
    monkeypatch.setitem(sys.modules, "psutil", None)  # import psutil now fails
    size_mb = 64
    before = rss_mb()
    buffer = b"\x01" * (size_mb * 10**6)  # written, so resident
    held = rss_mb()
    del buffer
    after = rss_mb()
    assert held - before > size_mb * 0.75
    assert held - after > size_mb * 0.75
