"""Smoke test: scripts/chain_timeline.py runs end to end on a few chains."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_chain_timeline_script_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "chain_timeline.py"), "--chains", "40", "--show", "2"],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    events = [tuple(line.split()[2:4]) for line in lines if " us " in line]
    for chain in ("20", "21"):
        steps = [label for label, n in events if n == chain]
        assert [s for s in steps if s not in ("OK", "woken")] == ["WRITE", "V", "MOVE", "AT"]
        assert {"OK", "woken"} <= set(steps)
    assert ("WRITE", "22") in events  # the next WRITE of the last chain shown
    assert any(line.startswith("writer woken before the AT of its chain: ") for line in lines)
    assert any(line.startswith("WRITE to AT, median: ") for line in lines)
