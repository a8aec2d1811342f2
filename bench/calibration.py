"""A fixed unit of pure-Python work that tracks the machine's speed.

On a shared machine the speed of identical work drifts by a fifth or more
over tens of seconds, longer than one run.  The worker times one unit
before every operation call, and a round's calls are scaled by
REFERENCE_UNIT_S over the median unit time of that round.  Times are then
reported as they would read at the reference speed, and a slow or fast
stretch of the machine moves the unit and the calls alike.

The unit touches nothing of qlin, so a change to the program moves the
calls and not the unit.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# about the median time of one unit on the machine the baseline comes
# from (2 vCPUs, "Intel(R) Xeon(R) Processor", Python 3.11.7); it only
# sets the scale, and stays fixed so that runs on one machine compare.
REFERENCE_UNIT_S = 2.1e-3


def unit() -> int:
    """Tuple keys, dict and set updates, calls and a keyed sort: the kind
    of work the checker and the explorers do."""
    d: dict = {}
    for i in range(1500):
        k = ((i * 7919) % 1009, i % 13)
        d.setdefault(k, []).append(i)
    s = sorted(d.items(), key=lambda kv: (kv[0][1], -kv[0][0]))
    seen = set()
    for k, v in s:
        seen.add(k[0] ^ len(v))
    return len(seen)


def time_unit() -> float:
    t = perf_counter()
    unit()
    return perf_counter() - t


def scale(unit_times) -> float:
    """Factor that turns times taken alongside unit_times into times at
    the reference speed."""
    return REFERENCE_UNIT_S / statistics.median(unit_times)
