"""Process model: a request being executed on a node.

Each admitted request becomes a :class:`SimProcess` whose service demand is
laid out as an alternating plan of CPU bursts and disk-I/O bursts, mirroring
the paper's simulator ("each request job will be modeled as a sequence of CPU
bursts and I/O bursts, submitted to the CPU queue and I/O queue").

The plan is built once at admission; the virtual-memory manager may splice
extra I/O bursts (page faults) into the plan while the process runs.
"""

from __future__ import annotations

import enum
import math
from typing import List, Optional, Tuple

from repro.workload.request import Request

#: Burst kinds inside an execution plan.
CPU_BURST = 0
IO_BURST = 1

#: Minimum CPU sliver used when a request is pure-I/O: the server still
#: parses the request and writes the response.
MIN_CPU_SLIVER = 20e-6


class ProcState(enum.IntEnum):
    """Lifecycle of a :class:`SimProcess` on its node."""

    NEW = 0
    READY = 1      # waiting in a CPU run queue
    RUNNING = 2    # on the CPU
    IO_WAIT = 3    # queued at or using the disk
    DONE = 4


def build_plan(
    cpu_total: float,
    io_total: float,
    io_chunk: float,
    rng=None,
) -> List[Tuple[int, float]]:
    """Lay out a request's demand as alternating CPU and I/O bursts.

    The I/O demand is cut into chunks of roughly ``io_chunk`` seconds and the
    CPU demand is spread evenly between them, starting and ending with CPU
    (parse / respond).  When ``rng`` is given, chunk boundaries are jittered
    by up to 30% to avoid lock-step convoy effects between identical
    requests; ``rng`` is anything with ``Generator.uniform``'s
    ``uniform(low, high, size)`` (a node passes its
    :class:`~repro.core.draws.BlockStream`).

    >>> plan = build_plan(0.03, 0.02, 0.016)
    >>> abs(sum(d for k, d in plan if k == CPU_BURST) - 0.03) < 1e-12
    True
    >>> abs(sum(d for k, d in plan if k == IO_BURST) - 0.02) < 1e-12
    True
    """
    if cpu_total < 0 or io_total < 0:
        raise ValueError("burst totals must be >= 0")
    if io_chunk <= 0:
        raise ValueError("io_chunk must be positive")
    if io_total <= 0:
        return [(CPU_BURST, MIN_CPU_SLIVER if MIN_CPU_SLIVER > cpu_total
                 else cpu_total)]

    n_io = max(1, math.ceil(io_total / io_chunk))
    io_sizes = [io_total / n_io] * n_io
    cpu_each = max(cpu_total, MIN_CPU_SLIVER) / (n_io + 1)
    if rng is not None and n_io > 1:
        # Jitter interior boundaries while preserving the totals.
        deltas = rng.uniform(-0.3, 0.3, size=n_io - 1)
        for i, d in enumerate(deltas):
            shift = io_sizes[i] * d
            io_sizes[i] -= shift
            io_sizes[i + 1] += shift

    plan: List[Tuple[int, float]] = []
    for size in io_sizes:
        plan.append((CPU_BURST, cpu_each))
        plan.append((IO_BURST, size))
    plan.append((CPU_BURST, cpu_each))
    return plan


class SimProcess:
    """A request in execution on one node.

    Tracks the burst plan cursor, the decayed CPU-usage accumulator that
    drives the multilevel-feedback priority, and bookkeeping for metrics
    (per-resource time actually consumed, queueing delays).
    """

    __slots__ = (
        "request",
        "node_id",
        "plan",
        "plan_idx",
        "burst_remaining",
        "state",
        "cpu_usage",
        "usage_stamp",
        "priority",
        "resident_pages",
        "pending_fault_pages",
        "admit_time",
        "finish_time",
        "cpu_time_used",
        "io_time_used",
        "dispatch_latency",
        "slice_event",
    )

    def __init__(self, request: Request, node_id: int, plan: List[Tuple[int, float]],
                 admit_time: float, dispatch_latency: float = 0.0):
        self.request = request
        self.node_id = node_id
        self.plan = plan
        self.plan_idx = 0
        self.burst_remaining = plan[0][1] if plan else 0.0
        self.state = ProcState.NEW
        self.cpu_usage = 0.0          # decayed accumulator (seconds)
        self.usage_stamp = admit_time  # when cpu_usage was last decayed
        self.priority = 0
        self.resident_pages = 0
        self.pending_fault_pages = 0
        self.admit_time = admit_time
        self.finish_time: Optional[float] = None
        self.cpu_time_used = 0.0
        self.io_time_used = 0.0
        self.dispatch_latency = dispatch_latency
        self.slice_event = None       # CPU slice-end event, for preemption

    # -- plan navigation ----------------------------------------------------

    @property
    def current_kind(self) -> Optional[int]:
        """Kind of the burst at the cursor, or ``None`` past the end."""
        if self.plan_idx >= len(self.plan):
            return None
        return self.plan[self.plan_idx][0]

    def advance(self) -> Optional[int]:
        """Move to the next burst; return its kind or ``None`` if finished."""
        self.plan_idx += 1
        if self.plan_idx >= len(self.plan):
            self.burst_remaining = 0.0
            return None
        self.burst_remaining = self.plan[self.plan_idx][1]
        return self.plan[self.plan_idx][0]

    def splice_io(self, duration: float) -> None:
        """Insert a page-fault I/O burst just after the current burst."""
        if duration <= 0:
            return
        self.plan.insert(self.plan_idx + 1, (IO_BURST, duration))

    @property
    def finished(self) -> bool:
        return self.plan_idx >= len(self.plan)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimProcess req={self.request.req_id} node={self.node_id} "
            f"state={self.state.name} idx={self.plan_idx}/{len(self.plan)}>"
        )
