"""A server node: one CPU, one disk, one memory pool.

The node admits :class:`~repro.workload.request.Request` objects, lays their
service demand out as a burst plan (prepending the CGI fork cost and any
cold-start page-fault I/O), and shepherds the resulting
:class:`~repro.sim.process.SimProcess` between the CPU and the disk until it
completes.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.draws import BlockStream
from repro.obs.trace import ADMIT, START
from repro.sim.config import SimConfig
from repro.sim.cpu import CPU
from repro.sim.disk import Disk
from repro.sim.engine import Engine
from repro.sim.memory import MemoryManager
from repro.sim.process import (
    CPU_BURST,
    IO_BURST,
    ProcState,
    SimProcess,
    build_plan,
)
from repro.workload.request import Request, RequestKind


class Node:
    """One homogeneous cluster node.

    Parameters
    ----------
    engine:
        Shared event engine.
    cfg:
        Cluster configuration (node-level constants are read from it).
    node_id:
        Index of this node within the cluster.
    rng:
        Node-private random generator (static cache misses, burst
        jitter), drawn from in blocks (see :attr:`rng`).
    on_complete:
        Callback ``fn(node, proc)`` invoked when a request finishes.
    """

    __slots__ = ("engine", "cfg", "node_id", "_draws", "on_complete",
                 "cpu", "disk", "memory", "active", "admitted", "completed",
                 "static_misses", "cpu_speed", "disk_speed", "procs",
                 "failed", "failures", "backlog", "busy_slots", "transfers",
                 "_release_cb", "_tracer", "_max_procs", "_bandwidth",
                 "_io_chunk")

    def __init__(self, engine: Engine, cfg: SimConfig, node_id: int,
                 rng: np.random.Generator,
                 on_complete: Callable[["Node", SimProcess], None]):
        self.engine = engine
        self.cfg = cfg
        self.node_id = node_id
        #: Every draw the node makes is a double: the static cache-miss
        #: test and ``build_plan``'s jitter share one block stream.
        self._draws = BlockStream(rng)
        self.on_complete = on_complete
        self.cpu = CPU(engine, cfg.cpu, self._advance)
        self.disk = Disk(engine, cfg.disk, self._advance)
        self.memory = MemoryManager(cfg.memory)
        self.active = 0
        self.admitted = 0
        self.completed = 0
        self.static_misses = 0
        #: Heterogeneity: speed multipliers relative to the reference node.
        self.cpu_speed = cfg.node_cpu_speed(node_id)
        self.disk_speed = cfg.node_disk_speed(node_id)
        #: In-flight processes in admission order, for failure handling (a
        #: dict, not a set: a crash must restart them in an order that does
        #: not depend on object addresses).
        self.procs: Dict[SimProcess, None] = {}
        self.failed = False
        self.failures = 0
        #: Requests waiting for a free server process (listen backlog).
        self.backlog: deque = deque()
        #: Worker processes in use (serving or draining a response).
        self.busy_slots = 0
        self.transfers = 0
        #: Worker-pool cap (0 = unlimited) and client downlink (0 = no
        #: transfer phase), read on every admission and completion.
        self._max_procs = cfg.connections.max_processes
        self._bandwidth = cfg.connections.client_bandwidth
        #: Target disk time per I/O burst of a request's plan.
        self._io_chunk = cfg.disk.slice_time * 2.0
        #: Cached bound callback (scheduled once per response transfer).
        self._release_cb = self._release_slot
        #: Observability tap (set by the cluster; ``None`` = disabled).
        self._tracer = None

    @property
    def rng(self) -> np.random.Generator:
        """The node's generator.  Reading it re-syncs the block stream,
        so the generator is positioned exactly as if every draw had been
        a scalar call."""
        return self._draws.generator

    # -- admission ------------------------------------------------------------

    def admit(self, request: Request,
              dispatch_latency: float = 0.0) -> Optional[SimProcess]:
        """Accept a request on this node.

        Starts execution immediately and returns the process, unless the
        server-process pool is exhausted — then the request waits in the
        listen backlog and ``None`` is returned (it starts when a worker
        frees up).

        ``dispatch_latency`` is the network time already spent getting the
        request here (remote CGI hop); it is recorded so response times can
        include it without simulating the wire.
        """
        if self.failed:
            raise RuntimeError(f"node {self.node_id} is down")
        self.admitted += 1
        cap = self._max_procs
        backlogged = cap > 0 and self.busy_slots >= cap
        tr = self._tracer
        if tr is not None:
            tr.record(ADMIT, request.req_id, self.node_id, (backlogged,))
        if backlogged:
            self.backlog.append((request, dispatch_latency))
            return None
        return self._start(request, dispatch_latency)

    def _start(self, request: Request,
               dispatch_latency: float) -> SimProcess:
        dynamic = request.kind is RequestKind.DYNAMIC
        plan = self._build_plan(request, dynamic)
        proc = SimProcess(request, self.node_id, plan, self.engine.now,
                          dispatch_latency)
        cold = self.memory.admit(proc)
        if cold:
            fault_io = cold * self.cfg.disk.page_time / self.disk_speed
            # Cold-start faults hit before the script's own work: insert
            # after the fork burst (index 0) for CGI, at the front otherwise.
            insert_at = 1 if dynamic and plan[0][0] == CPU_BURST else 0
            plan.insert(insert_at, (IO_BURST, fault_io))
            proc.burst_remaining = plan[0][1]
        tr = self._tracer
        if tr is not None:
            tr.record(START, request.req_id, self.node_id, (len(plan),))
        self.active += 1
        self.busy_slots += 1
        self.procs[proc] = None
        if plan[0][0] == CPU_BURST:
            self.cpu.make_runnable(proc)
        else:
            self.disk.submit(proc)
        return proc

    def _build_plan(self, request: Request,
                    dynamic: bool) -> List[Tuple[int, float]]:
        cfg = self.cfg
        io_demand = request.io_demand
        if not dynamic and cfg.memory.enable_paging:
            # Static requests are CPU-only unless the file cache misses, in
            # which case the file must be read from disk.  Misses get more
            # likely as CGI working sets squeeze the cache.
            if self._draws.random() < self.memory.static_miss_probability():
                pages = max(1, -(-request.size_bytes //
                                 cfg.memory.page_size))
                io_demand += pages * cfg.disk.page_time
                self.static_misses += 1
        # Heterogeneity: demands are stated for the reference node; a
        # faster CPU/disk executes the same demand in proportionally less
        # virtual time.
        cpu_demand = request.cpu_demand / self.cpu_speed
        io_demand /= self.disk_speed
        plan = build_plan(cpu_demand, io_demand, self._io_chunk,
                          self._draws)
        if dynamic and cfg.cpu.fork_overhead > 0:
            plan.insert(0, (CPU_BURST,
                            cfg.cpu.fork_overhead / self.cpu_speed))
        return plan

    # -- burst plumbing ---------------------------------------------------------

    def _advance(self, proc: SimProcess) -> None:
        """A burst finished (CPU or disk): hand the process to the device
        of its next burst, or complete it."""
        if proc.pending_fault_pages:
            proc.splice_io(self.memory.collect_refaults(proc)
                           * self.cfg.disk.page_time / self.disk_speed)
        kind = proc.advance()
        if kind is None:
            self._complete(proc)
        elif kind == CPU_BURST:
            self.cpu.make_runnable(proc)
        else:
            self.disk.submit(proc)

    def _complete(self, proc: SimProcess) -> None:
        proc.state = ProcState.DONE
        proc.finish_time = self.engine.now
        self.memory.release(proc)
        self.active -= 1
        self.completed += 1
        del self.procs[proc]
        self.on_complete(self, proc)
        # The worker stays pinned until the response drains to the client;
        # server-site response time (above) excludes this, capacity doesn't.
        if self._bandwidth:
            transfer = self.cfg.connections.transfer_time(
                proc.request.size_bytes)
            if transfer > 0.0:
                self.transfers += 1
                self.engine.call_later(transfer, self._release_cb,
                                       self.failures)
                return
        self.busy_slots -= 1
        if self.backlog:
            self._start_backlog()

    def _release_slot(self, epoch: int) -> None:
        """Free a worker slot taken while ``failures == epoch``.

        A crash reclaims every slot at once, so a response transfer that
        was still draining when the node failed must not free a second
        one after it.
        """
        if epoch != self.failures:
            return
        self.busy_slots -= 1
        if self.backlog:
            self._start_backlog()

    def _start_backlog(self) -> None:
        """Start backlogged requests while worker slots are free."""
        if self.failed:
            return
        cap = self._max_procs
        while self.backlog and (cap <= 0 or self.busy_slots < cap):
            request, latency = self.backlog.popleft()
            self._start(request, latency)

    def abort_request(self, req_id: int) -> bool:
        """Abort one backlogged or in-flight request (deadline expiry).

        The victim's resources are released and its worker slot freed (which
        may start a backlogged request); no completion callback fires.
        Returns ``True`` if the request was found on this node.
        """
        for idx, (request, _) in enumerate(self.backlog):
            if request.req_id == req_id:
                del self.backlog[idx]
                return True
        proc = next((p for p in self.procs if p.request.req_id == req_id),
                    None)
        if proc is None:
            return False
        self.cpu.abort(proc)
        self.disk.abort(proc)
        self.memory.release(proc)
        proc.slice_event = None
        del self.procs[proc]
        self.active -= 1
        self.busy_slots -= 1
        if self.backlog:
            self._start_backlog()
        return True

    # -- failure / recovery -------------------------------------------------------

    def fail(self) -> Tuple[List[SimProcess], List[Request]]:
        """Crash the node: abort all in-flight work and reject admissions.

        Returns ``(aborted_processes, backlogged_requests)`` so the
        cluster can restart that work elsewhere ("if a slave node fails, a
        master node may need to restart a dynamic content process on
        another node").
        """
        if self.failed:
            return [], []
        self.failed = True
        self.failures += 1
        self.cpu.abort_all()
        self.disk.abort_all()
        aborted = list(self.procs)
        for proc in aborted:
            self.memory.release(proc)
            proc.slice_event = None
        self.procs.clear()
        queued = [request for request, _ in self.backlog]
        self.backlog.clear()
        self.active = 0
        self.busy_slots = 0
        return aborted, queued

    def recover(self) -> None:
        """Bring a crashed (or standby) node back into service, empty."""
        self.failed = False

    # -- load introspection (what rstat() would report) --------------------------

    @property
    def cpu_queue_length(self) -> int:
        return self.cpu.runnable

    @property
    def disk_queue_length(self) -> int:
        return self.disk.pending

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Node {self.node_id} active={self.active} "
                f"cpuq={self.cpu_queue_length} diskq={self.disk_queue_length}>")
