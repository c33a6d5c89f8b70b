"""Smoke test: scripts/hotpath_stages.py runs end to end on a small load."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_hotpath_stages_script_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "hotpath_stages.py"),
         "--messages", "50", "--rounds", "1", "--targets", "10"],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    stages = [line.split()[0] for line in result.stdout.splitlines()[1:]]
    assert stages[0] == "send_msg" and stages[-1] == "total"
    assert "artifact" in stages
