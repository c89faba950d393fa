"""A fixed reference computation that tracks the machine's current speed.

The shared virtual machine the benchmark runs on changes speed by itself,
by up to two times within seconds, and ``time.process_time()`` drifts just
like wall time.  ``measure()`` times a fixed piece of pure Python that does
what relend does most (breadth-first search over tuple vertices with a dict
and a sort) and uses no relend code, so no change to the program can move
it.  A time taken right beside it is scaled to the reference speed, at
which ``measure()`` reads exactly ``NOMINAL_S``:

    scaled = seconds * NOMINAL_S / reference time

A slow stretch slows the job and the reference alike and cancels; a slower
program still reads slower.
"""

from __future__ import annotations

import time

# The kernel's time at the reference speed: about the median of
# ``measure()`` on a 2-vCPU x86-64 virtual machine with Python 3.11.7.
NOMINAL_S = 0.010

_RADIUS = 14
_STEPS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
# vertices of the L1 ball of radius 14 in Z^3
_BALL = 4089


def kernel() -> int:
    """Breadth-first ball in Z^3, then the ball sorted by (norm, vertex)."""
    dist = {(0, 0, 0): 0}
    frontier = [(0, 0, 0)]
    for r in range(1, _RADIUS + 1):
        nxt = []
        for v in frontier:
            for s in _STEPS:
                w = (v[0] + s[0], v[1] + s[1], v[2] + s[2])
                if w not in dist:
                    dist[w] = r
                    nxt.append(w)
        frontier = nxt
    return len(sorted(dist, key=lambda p: (dist[p], p)))


def measure() -> float:
    """Wall time of one run of ``kernel``."""
    start = time.perf_counter()
    n = kernel()
    seconds = time.perf_counter() - start
    if n != _BALL:
        raise AssertionError(f"reference ball has {n} vertices, not {_BALL}")
    return seconds


def scale(seconds: float, refs: list[float]) -> float:
    """``seconds`` at the reference speed, given reference times taken beside it."""
    return seconds * NOMINAL_S * len(refs) / sum(refs)
