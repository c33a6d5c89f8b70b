from __future__ import annotations

import threading
import time

from artifact.loop import shared_loop

from conftest import wait_until


def test_a_periodic_timer_set_and_cancelled_off_the_loop_fires_on_it_and_skips_missed_points():
    loop = shared_loop.acquire()
    fired = []

    def fire():
        fired.append((time.monotonic(), threading.get_ident()))
        if len(fired) == 2:
            time.sleep(0.12)  # the loop misses two points of the grid

    try:
        start = time.monotonic() + 0.05
        timer = loop.call_at(start, fire, period=0.05)  # set from this thread
        assert wait_until(lambda: len(fired) >= 4)
        timer.cancel()
        cancelled_at = len(fired)
        time.sleep(0.15)
        assert len(fired) <= cancelled_at + 1  # one may have been under way
        assert {ident for _, ident in fired} == {loop.loop_ident}
        # The next point after the stall, not a burst of the missed ones.
        assert fired[3][0] - fired[2][0] >= 0.025
        for at, _ in fired[:4]:
            assert at >= start
    finally:
        shared_loop.release()
