"""Smoke test: scripts/build_stages.py runs end to end on small builds."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_build_stages_script_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "build_stages.py"),
         "--gateways", "3", "--targets", "10", "--builds", "2", "--count-n", "20"],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    stages = [line.split()[0] for line in lines
              if line.startswith("  ") and not line.startswith("    ")]
    assert stages == ["make_artifact", "define_route", "attach_route", "start_listening",
                      "make", "make_artifact", "link_artifacts",
                      "VarStoreServer()", "RobotSimulator()", "vars_route_start", "tcp_route_start",
                      "VarClient()", "whole_build"]
    censuses = {}
    for unit in ("gateway", "target"):
        total = next(i for i, line in enumerate(lines)
                     if line.startswith(f"tracked objects per {unit}:"))
        census = censuses[unit] = []
        for line in lines[total + 1:]:
            if not line.startswith("    "):
                break
            census.append(line.split())
        # The top 10 types, most objects first, each with its objects per unit.
        assert len(census) == 10
        counts = [float(count) for _, count in census]
        assert counts == sorted(counts, reverse=True) and counts[-1] > 0
    assert ["Route", "2.00"] in censuses["gateway"]  # a gateway's route pair
