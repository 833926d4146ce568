"""A fixed pure-Python workload that serves as a yardstick of host speed.

On a shared machine the host's speed drifts: minutes-long spells run the
same code a third slower. Best-of estimates filter short bursts but not
such spells. This workload never changes with the program, so timing it
in the same run, with the same best-of estimate, measures the spell;
dividing it out leaves the program's own speed.

It uses the operations the simulator spends its time on: a heap of timed
events, small slotted objects, callbacks, and dict and list updates. It
imports nothing from the program, so a change to the program cannot
speed it up.
"""

from __future__ import annotations

import heapq
import time

#: Best-of time of :func:`unit` on the host the constants were set on
#: (2-vCPU x86-64 container, Python 3.11). Scaled figures read as host
#: time on that host at its fastest.
NOMINAL_UNIT_S = 0.0050


class _Event:
    __slots__ = ("t", "seq", "node", "work")

    def __init__(self, t: float, seq: int, node: int, work: float):
        self.t = t
        self.seq = seq
        self.node = node
        self.work = work

    def __lt__(self, other: "_Event") -> bool:
        return (self.t, self.seq) < (other.t, other.seq)


class _Node:
    __slots__ = ("free_at", "served", "waits")

    def __init__(self) -> None:
        self.free_at = 0.0
        self.served = 0
        self.waits: list = []


def unit(events: int = 2000) -> float:
    """Run one fixed unit of work; returns its host seconds."""
    start = time.perf_counter()
    nodes = [_Node() for _ in range(8)]
    stats: dict = {}
    heap: list = []
    state = 12345
    t = 0.0
    for seq in range(events):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        t += (state % 1000) / 1e6
        heapq.heappush(heap, _Event(t, seq, state % 8, (state >> 10) % 500 / 1e6))
    while heap:
        ev = heapq.heappop(heap)
        node = nodes[ev.node]
        begin = max(ev.t, node.free_at)
        node.free_at = begin + ev.work
        node.served += 1
        node.waits.append(begin - ev.t)
        key = ev.seq & 63
        stats[key] = stats.get(key, 0.0) + node.free_at - ev.t
    if sum(n.served for n in nodes) != events:
        raise AssertionError("reference workload lost events")
    return time.perf_counter() - start


class Yardstick:
    """Samples of :func:`unit` taken through a run."""

    def __init__(self) -> None:
        self.samples: list = []

    def sample(self) -> None:
        """Time a dozen units; the best of them is what counts."""
        for _ in range(12):
            self.samples.append(unit())

    @property
    def slowdown(self) -> float:
        """Host slowdown of this run against the nominal host (>1 is
        slower): best-of unit time over :data:`NOMINAL_UNIT_S`."""
        return min(self.samples) / NOMINAL_UNIT_S
