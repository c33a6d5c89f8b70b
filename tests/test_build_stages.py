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
    stages = [line.split()[0] for line in result.stdout.splitlines() if line.startswith("  ")]
    assert stages == ["make_artifact", "define_route", "attach_route", "start_listening",
                      "make", "make_artifact", "link_artifacts",
                      "VarStoreServer()", "RobotSimulator()", "vars_route_start", "tcp_route_start",
                      "VarClient()", "whole_build"]
    assert "tracked objects per gateway" in result.stdout
    assert "tracked objects per target" in result.stdout
