"""The machine's speed, measured next to every op.

The CPUs of the container this benchmark was built on switch between a
fast and a slow mode: a fixed piece of pure-Python work takes about 3.3 ms
or about 5.5 ms, in episodes of one to a few seconds, and CPU time grows
with wall time, so the slowdown is the core's, not the scheduler's.
Raw op times therefore spread by a quarter from one run to the next.

Every op is bracketed by two probes of fixed work unrelated to the
library, and its times are scaled by REFERENCE_S over the probes' mean:
they read as if the probe had taken REFERENCE_S.  A probe is timed in
thread CPU time, so a thread the library might leave running in the
background cannot slow it down and flatter the op.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

# probe time that the scaled figures refer to: roughly the probe's median
# on the container above, so scaled and raw times are of the same size
REFERENCE_S = 0.0025


@dataclass(frozen=True, order=True)
class _Pair:
    a: int
    b: int


def _work() -> int:
    """Object creation, hashing, dict updates and a sort: the mix of
    interpreter work the library's model code does."""
    counts: dict = {}
    acc = 0
    for i in range(1000):
        pair = _Pair(i % 37, i % 11)
        counts[pair] = counts.get(pair, 0) + 1
        acc += (pair.a * pair.b) % 7
    return acc + len(sorted(counts))


def probe() -> float:
    """Thread CPU seconds of one fixed piece of work."""
    start = time.thread_time()
    _work()
    return time.thread_time() - start


def scale(before: float, after: float) -> float:
    """Factor from a time measured between two probes to reference time."""
    return 2 * REFERENCE_S / (before + after)
