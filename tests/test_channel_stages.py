"""scripts/channel_stages.py runs, and a shared channel costs the same per
message at any number of gateways."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_shared_channel_costs_the_same_per_message_at_any_size():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "channel_stages.py"),
         "--gateways", "1", "1000", "--messages", "2000", "--rounds", "3"],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    # "  <gateways> <median> [<min>, <max>] x<ratio>": the best rounds, one
    # process, so the ratio holds on a loaded box where wall times do not.
    best = {int(cols[0]): float(cols[2].strip("[,")) for cols in
            (line.split() for line in result.stdout.splitlines()[1:])}
    assert sorted(best) == [1, 1000]
    assert best[1000] < 2 * best[1], result.stdout
