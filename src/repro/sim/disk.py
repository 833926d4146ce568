"""Round-robin disk scheduler (one disk per node).

"The I/O queue also maintains a set of I/O processes and is scheduled using
round-robin."  A process's pending I/O burst is served in slices of
``pages_per_slice * page_time`` seconds; after each slice the process moves
to the tail of the queue if it still has I/O left in the burst, so
concurrent I/O-bound processes share the disk fairly.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.obs.trace import IO_OFF, IO_ON
from repro.sim.config import DiskConfig
from repro.sim.engine import Engine
from repro.sim.process import ProcState, SimProcess

_EPS = 1e-12


class Disk:
    """FCFS-within-slice, round-robin-across-processes disk model.

    Parameters
    ----------
    engine:
        Shared event engine.
    cfg:
        Disk constants (page time, slice size).
    on_burst_done:
        Callback ``fn(proc)`` invoked when a process's current I/O burst is
        fully served.
    """

    __slots__ = ("engine", "cfg", "on_burst_done", "queue", "current",
                 "busy_time", "slices_served", "_current_event", "_slice_cb",
                 "_tracer")

    def __init__(self, engine: Engine, cfg: DiskConfig,
                 on_burst_done: Callable[[SimProcess], None]):
        self.engine = engine
        self.cfg = cfg
        self.on_burst_done = on_burst_done
        self.queue: deque[SimProcess] = deque()
        self.current: Optional[SimProcess] = None
        self.busy_time = 0.0
        self.slices_served = 0
        self._current_event = None
        # Cached bound callback: scheduled once per disk slice.
        self._slice_cb = self._on_slice_end
        #: Observability tap (set by the cluster; ``None`` = disabled).
        self._tracer = None

    def submit(self, proc: SimProcess) -> None:
        """Queue the process's current I/O burst (``proc.burst_remaining``)."""
        if proc.burst_remaining <= _EPS:
            # Degenerate zero-length burst: complete immediately.
            self.on_burst_done(proc)
            return
        proc.state = ProcState.IO_WAIT
        self.queue.append(proc)
        if self.current is None:
            self._serve_next()

    @property
    def pending(self) -> int:
        """Processes queued at or using the disk."""
        return len(self.queue) + (1 if self.current is not None else 0)

    def abort_all(self) -> None:
        """Drop every queued and in-service burst (node failure)."""
        if self._current_event is not None:
            self._current_event.cancel()
            self._current_event = None
        if self.current is not None and self._tracer is not None:
            self._tracer.record(IO_OFF, self.current.request.req_id,
                                self.current.node_id)
        self.current = None
        self.queue.clear()

    def abort(self, proc: SimProcess) -> bool:
        """Drop one process's pending burst (request cancellation).

        Returns ``True`` if the process was in service or queued here.
        """
        if self.current is proc:
            if self._current_event is not None:
                self._current_event.cancel()
                self._current_event = None
            if self._tracer is not None:
                self._tracer.record(IO_OFF, proc.request.req_id,
                                    proc.node_id)
            self.current = None
            self._serve_next()
            return True
        try:
            self.queue.remove(proc)
        except ValueError:
            return False
        return True

    def _serve_next(self) -> None:
        if not self.queue:
            return
        proc = self.queue.popleft()
        slice_len = min(self.cfg.slice_time, proc.burst_remaining)
        self.current = proc
        engine = self.engine
        self._current_event = engine.schedule_at(
            engine.now + slice_len, self._slice_cb, proc, slice_len)
        if self._tracer is not None:
            self._tracer.record(IO_ON, proc.request.req_id, proc.node_id)

    def _on_slice_end(self, proc: SimProcess, slice_len: float) -> None:
        assert proc is self.current
        if self._tracer is not None:
            self._tracer.record(IO_OFF, proc.request.req_id, proc.node_id)
        self.current = None
        self._current_event = None
        self.busy_time += slice_len
        self.slices_served += 1
        proc.io_time_used += slice_len
        proc.burst_remaining -= slice_len
        if proc.burst_remaining <= _EPS:
            proc.burst_remaining = 0.0
            # The completion callback may synchronously submit a follow-up
            # burst (e.g. a spliced refault), which starts service itself;
            # only serve the queue if the disk is still idle afterwards.
            self.on_burst_done(proc)
        else:
            self.queue.append(proc)
        if self.current is None:
            self._serve_next()
