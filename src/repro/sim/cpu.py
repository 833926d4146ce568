"""BSD-4.3-flavoured CPU scheduler (one CPU per node).

Implements the paper's description of its simulator: "CPU scheduling is
based on the UNIX BSD 4.3 strategy.  The process ready queue is a multilevel
feedback queue divided into multiple lists according to process priority.
Processes are scheduled based on priority and may be preempted following
quantum expiration."

Mechanics
---------
* 32 priority levels (configurable); level 0 is best.
* A process's level is ``min(levels-1, decayed_cpu_usage / usage_per_level)``
  — CPU hogs sink, interactive/short processes stay on top.  This is the
  classic ``p_usrpri = PUSER + p_cpu/4`` rule with constants folded.
* The usage accumulator decays multiplicatively once per priority-update
  period (100 ms).  Decay is applied lazily from timestamps instead of with
  a periodic event, which is mathematically identical and far cheaper.
* Quantum expiry requeues the process at its (worse) current level.
* A waking process with a strictly better level preempts the running one
  (BSD preempts on return from the wakeup's interrupt).
* Every switch to a different process than the one last on the CPU is
  charged the context-switch overhead.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.obs.trace import CPU_OFF, CPU_ON
from repro.sim.config import CPUConfig
from repro.sim.engine import Engine
from repro.sim.process import ProcState, SimProcess

_EPS = 1e-12


class CPU:
    """Preemptive multilevel-feedback-queue CPU for one node.

    Parameters
    ----------
    engine:
        Shared event engine.
    cfg:
        Scheduler constants.
    on_burst_done:
        Callback ``fn(proc)`` invoked when a process finishes its current
        CPU burst (the node then routes it to the disk or to completion).
    """

    __slots__ = (
        "engine", "cfg", "on_burst_done", "queues", "current",
        "_last_proc", "busy_time", "_slice_start", "_slice_overhead",
        "_slice_len", "switches", "preemptions", "_occupied", "_slice_cb",
        "_tracer", "_quantum", "_switch_cost", "_period", "_decay",
        "_per_level", "_top",
    )

    def __init__(self, engine: Engine, cfg: CPUConfig,
                 on_burst_done: Callable[[SimProcess], None]):
        self.engine = engine
        self.cfg = cfg
        self.on_burst_done = on_burst_done
        self.queues: list[deque[SimProcess]] = [deque() for _ in range(cfg.num_queues)]
        self.current: Optional[SimProcess] = None
        self._last_proc: Optional[SimProcess] = None
        self.busy_time = 0.0      # cumulative busy (work + switch overhead)
        self._slice_start = 0.0
        self._slice_overhead = 0.0
        self._slice_len = 0.0
        self.switches = 0
        self.preemptions = 0
        # Bitmask of non-empty run-queue levels: bit i set <=> queues[i]
        # holds at least one process.  Lets dispatch find the best level
        # with one bit trick instead of scanning 32 deques.
        self._occupied = 0
        # Cached bound callback: scheduled once per slice, which makes it
        # the single most-scheduled callable in the simulator.
        self._slice_cb = self._on_slice_end
        #: Observability tap (set by the cluster; ``None`` = disabled).
        self._tracer = None
        # Scheduler constants read on every slice.
        self._quantum = cfg.quantum
        self._switch_cost = cfg.context_switch_overhead
        self._period = cfg.priority_update_period
        self._decay = cfg.usage_decay
        self._per_level = cfg.usage_per_level
        self._top = cfg.num_queues - 1

    # -- priority bookkeeping ------------------------------------------------
    # make_runnable and _on_slice_end inline these two on the hot path;
    # the arithmetic must stay identical to keep runs bit-reproducible.

    def _decay_usage(self, proc: SimProcess, now: float) -> None:
        period = self._period
        elapsed = now - proc.usage_stamp
        if elapsed < period:
            return
        periods = int(elapsed / period)
        proc.cpu_usage *= self._decay ** periods
        proc.usage_stamp += periods * period

    def _level(self, proc: SimProcess, now: float) -> int:
        self._decay_usage(proc, now)
        level = int(proc.cpu_usage / self._per_level)
        top = self._top
        return top if level > top else level

    # -- public interface ----------------------------------------------------

    def make_runnable(self, proc: SimProcess) -> None:
        """Add a process to the run queue; may preempt the running one."""
        period = self._period
        elapsed = self.engine.now - proc.usage_stamp
        if elapsed >= period:
            periods = int(elapsed / period)
            proc.cpu_usage *= self._decay ** periods
            proc.usage_stamp += periods * period
        level = int(proc.cpu_usage / self._per_level)
        if level > self._top:
            level = self._top
        proc.priority = level
        current = self.current
        if current is None and not self._occupied:
            # Idle CPU, empty run queue: dispatch would pick this process.
            self._run(proc)
            return
        proc.state = ProcState.READY
        self.queues[level].append(proc)
        self._occupied |= 1 << level
        if current is None:
            self._dispatch()
        elif level < current.priority:
            self._preempt()

    @property
    def runnable(self) -> int:
        """Processes ready or running (the node's CPU queue length)."""
        n = sum(len(q) for q in self.queues)
        return n + (1 if self.current is not None else 0)

    def abort_all(self) -> None:
        """Drop every queued and running process (node failure)."""
        if self.current is not None:
            if self.current.slice_event is not None:
                self.current.slice_event.cancel()
                self.current.slice_event = None
            if self._tracer is not None:
                self._tracer.record(CPU_OFF, self.current.request.req_id,
                                    self.current.node_id)
        self.current = None
        for queue in self.queues:
            queue.clear()
        self._occupied = 0
        self._last_proc = None

    def abort(self, proc: SimProcess) -> bool:
        """Drop one process (request deadline/cancellation).

        Returns ``True`` if the process was running or queued here.  The
        partial slice of a running victim is not charged — the same
        approximation :meth:`abort_all` makes for crashes.
        """
        if self.current is proc:
            if proc.slice_event is not None:
                proc.slice_event.cancel()
                proc.slice_event = None
            if self._tracer is not None:
                self._tracer.record(CPU_OFF, proc.request.req_id,
                                    proc.node_id)
            self.current = None
            self._dispatch()
            return True
        for level, queue in enumerate(self.queues):
            try:
                queue.remove(proc)
            except ValueError:
                continue
            if not queue:
                self._occupied &= ~(1 << level)
            return True
        return False

    # -- internals -----------------------------------------------------------

    def _preempt(self) -> None:
        """Stop the current slice early and put the process back to READY."""
        proc = self.current
        assert proc is not None
        now = self.engine.now
        if proc.slice_event is not None:
            proc.slice_event.cancel()
            proc.slice_event = None
        if self._tracer is not None:
            self._tracer.record(CPU_OFF, proc.request.req_id, proc.node_id)
        work = max(0.0, now - (self._slice_start + self._slice_overhead))
        self.busy_time += now - self._slice_start
        proc.cpu_time_used += work
        self._decay_usage(proc, now)
        proc.cpu_usage += work
        proc.burst_remaining -= work
        self._last_proc = proc
        self.preemptions += 1
        self.current = None
        proc.state = ProcState.READY
        if proc.burst_remaining <= _EPS:
            # The burst happened to finish exactly at the preemption point.
            proc.burst_remaining = 0.0
            self.on_burst_done(proc)
        else:
            level = self._level(proc, now)
            proc.priority = level
            self.queues[level].append(proc)
            self._occupied |= 1 << level
        if self.current is None and self._occupied:
            self._dispatch()

    def _dispatch(self) -> None:
        """Put the best-priority ready process on the CPU (if any)."""
        occupied = self._occupied
        if not occupied:
            return
        level = (occupied & -occupied).bit_length() - 1
        queue = self.queues[level]
        proc = queue.popleft()
        proc.priority = level
        if not queue:
            self._occupied = occupied & ~(1 << level)
        self._run(proc)

    def _run(self, proc: SimProcess) -> None:
        """Start a slice of ``proc`` now, charging a context switch when a
        different process last held the CPU."""
        if proc is not self._last_proc:
            overhead = self._switch_cost
            if overhead:
                self.switches += 1
        else:
            overhead = 0.0
        slice_len = proc.burst_remaining
        if self._quantum < slice_len:
            slice_len = self._quantum
        self.current = proc
        proc.state = ProcState.RUNNING
        engine = self.engine
        now = engine.now
        self._slice_start = now
        self._slice_overhead = overhead
        self._slice_len = slice_len
        proc.slice_event = engine.schedule_at(
            now + (overhead + slice_len), self._slice_cb, proc
        )
        if self._tracer is not None:
            self._tracer.record(CPU_ON, proc.request.req_id, proc.node_id)

    def _on_slice_end(self, proc: SimProcess) -> None:
        assert proc is self.current
        proc.slice_event = None
        if self._tracer is not None:
            self._tracer.record(CPU_OFF, proc.request.req_id, proc.node_id)
        # Charge the slice to the CPU and the process (decaying the usage
        # accumulator first, exactly as _decay_usage does).
        work = self._slice_len
        self.busy_time += self._slice_overhead + work
        proc.cpu_time_used += work
        now = self.engine.now
        period = self._period
        elapsed = now - proc.usage_stamp
        if elapsed >= period:
            periods = int(elapsed / period)
            proc.cpu_usage *= self._decay ** periods
            proc.usage_stamp += periods * period
        proc.cpu_usage += work
        proc.burst_remaining -= work
        self._last_proc = proc
        self.current = None
        if proc.burst_remaining <= _EPS:
            proc.burst_remaining = 0.0
            self.on_burst_done(proc)
        else:
            # Quantum expiry: requeue at the (now worse) level.
            level = self._level(proc, now)
            proc.priority = level
            proc.state = ProcState.READY
            self.queues[level].append(proc)
            self._occupied |= 1 << level
        if self.current is None and self._occupied:
            self._dispatch()
