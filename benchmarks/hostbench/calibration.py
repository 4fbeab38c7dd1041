"""The host-speed yardstick every rep interleaves with its work.

A shared host's speed drifts by tens of percent over seconds to minutes.
Each rep therefore times one fixed pure-Python loop (the loop of
``benchmarks/bench_engine_speed.py``) at its start, before and after its
timed region and between the cells inside it, and reports host times
multiplied by ``CAL_REF_S / mean loop time``: seconds on a host where the
loop always takes ``CAL_REF_S``.  The loop passes themselves are kept out
of every timing and out of the profile.
"""

import time

#: the loop's time on the host that recorded the first baseline, when quiet
CAL_REF_S = 0.080


def calibrate() -> tuple[float, float]:
    """One pass of the loop: ``(wall seconds, cpu seconds)``."""
    c0, t0 = time.process_time(), time.perf_counter()
    s = 0
    for i in range(2_000_000):
        s += i & 7
    return time.perf_counter() - t0, time.process_time() - c0
