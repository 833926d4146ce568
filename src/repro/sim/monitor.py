"""Load information: one table and one view for both substrates.

"In our implementation, we use the Unix rstat() function to collect the load
information on each node" and the scheduler "use[s] periodically-updated I/O
and CPU load information".

:class:`LoadTable` holds that information: smoothed **CPUIdleRatio** and
**DiskAvailRatio** per node, membership, last-sample times and suspicion.
The simulator's :class:`LoadMonitor` feeds it once per period from the busy
counters (between ticks the scheduler sees stale values — exactly the
staleness a real deployment has); the live master's
:class:`~repro.live.loadd.HeartbeatReceiver` feeds it each heartbeat.
:class:`LoadView` serves it to the dispatch policies on both substrates.

A node is *suspect* while on probation: it must pass ``probation_samples``
samples in a row, counted from a failed probe, a re-registration, or a
silence of more than ``suspect_after``.  A node never heard is suspect
until its first sample and trusted from it: probation guards against a
returning node's first reports, which describe an idle that no longer
exists, and a new node has no such history.  A table with a clock (the
live master's) judges silence at every sample and at every read past the
earliest ``last_heard + suspect_after``; reads in between cost no numpy
work.  A table without one (the simulator's) never judges it: its monitor
probes every node at every tick and reports a failed probe itself, so its
flags change only at ticks.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.sim.config import MonitorConfig

if TYPE_CHECKING:  # the live master imports this module without them
    from repro.sim.engine import Engine
    from repro.sim.node import Node


class LoadTable:
    """Per-node load, membership and suspicion, fed one sample at a time.

    All mutation happens on one thread (the engine's, or the live master's
    event loop), so no locking is needed.  The arrays are the table's own:
    readers must not mutate them.
    """

    __slots__ = ("num_nodes", "cfg", "clock", "cpu_idle", "disk_avail",
                 "alive", "alive_count", "last_heard", "_ok_streak",
                 "suspect", "healthy", "all_healthy", "_unhealthy",
                 "_oldest")

    def __init__(self, num_nodes: int, cfg: Optional[MonitorConfig] = None,
                 clock=None):
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        self.num_nodes = num_nodes
        self.cfg = cfg or MonitorConfig()
        self.cfg.validate()
        #: Anything with a ``.now`` to judge silence by.  A table without
        #: one is told of every failed probe by its feed, so it starts out
        #: trusting every node; one with a clock trusts a node from its
        #: first sample.
        self.clock = clock
        trusted = clock is None
        #: Smoothed fractions of idle CPU time and of available disk
        #: bandwidth per node, in [0, 1]; optimistically 1.0 until sampled.
        self.cpu_idle = np.ones(num_nodes)
        self.disk_avail = np.ones(num_nodes)
        #: Membership: which nodes are in service.
        self.alive = np.ones(num_nodes, dtype=bool)
        self.alive_count = num_nodes
        #: Time of each node's last sample; -inf means never heard.
        self.last_heard = np.full(num_nodes, -math.inf)
        #: Consecutive samples since the node's probation last restarted.
        self._ok_streak = np.full(
            num_nodes, self.cfg.probation_samples if trusted else 0,
            dtype=np.intp)
        #: Cached flags: on probation; in service and trusted; all healthy.
        self.suspect = np.full(num_nodes, not trusted)
        self.healthy = ~self.suspect
        self._unhealthy = 0 if trusted else num_nodes
        self.all_healthy = trusted
        #: Earliest last sample among nodes not yet judged stale.
        self._oldest = math.inf

    def sample(self, node: int, cpu_idle: float, disk_avail: float,
               now: float) -> None:
        """Fold one load sample of ``node`` taken at ``now`` in.

        The ratios are clamped to [0, 1] and smoothed into the table, and
        the sample counts towards the node's probation.  On a clocked table
        a never-heard node's first sample ends its probation, a sample
        after more than ``suspect_after`` of silence first restarts it, and
        every node's staleness is re-judged.
        """
        clocked = self.clock is not None
        if clocked:
            silence = now - self.last_heard[node]
            if silence == math.inf:          # never heard: no stale idle
                self._ok_streak[node] = self.cfg.probation_samples - 1
            elif silence > self.cfg.suspect_after:
                self._ok_streak[node] = 0
        s = self.cfg.smoothing
        self.cpu_idle[node] = (s * min(1.0, max(0.0, cpu_idle))
                               + (1.0 - s) * self.cpu_idle[node])
        self.disk_avail[node] = (s * min(1.0, max(0.0, disk_avail))
                                 + (1.0 - s) * self.disk_avail[node])
        self.last_heard[node] = now
        self._ok_streak[node] += 1
        self._flag(node)
        if clocked:
            self.refresh(now)

    def restart_probation(self, node: int) -> None:
        """Distrust ``node`` until it passes ``probation_samples`` fresh
        samples: its probe failed, or its role changed under it."""
        self._ok_streak[node] = 0
        self._flag(node)

    def set_alive(self, node: int, alive: bool) -> None:
        """Put ``node`` in or out of service."""
        if self.alive[node] != alive:
            self.alive[node] = alive
            self.alive_count += 1 if alive else -1
            self._flag(node)

    def refresh(self, now: float) -> None:
        """Judge staleness at ``now``: a node silent for more than
        ``suspect_after`` restarts its probation."""
        stale = (now - self.last_heard) > self.cfg.suspect_after
        for node in np.flatnonzero(stale & (self._ok_streak > 0)).tolist():
            self.restart_probation(node)
        fresh = self.last_heard[~stale]
        self._oldest = float(fresh.min()) if fresh.size else math.inf

    def at(self, now: float) -> "LoadTable":
        """The table as a read at ``now`` sees it: a clocked table first
        re-judges staleness if a node may have gone silent since."""
        if (self.clock is not None
                and now - self._oldest > self.cfg.suspect_after):
            self.refresh(now)
        return self

    def suspect_array(self, now: float) -> np.ndarray:
        """The suspicion flags a read at ``now`` sees (a copy)."""
        return self.at(now).suspect.copy()

    def _flag(self, node: int) -> None:
        """Re-derive ``node``'s cached flags from its streak and
        membership."""
        suspect = self._ok_streak[node] < self.cfg.probation_samples
        self.suspect[node] = suspect
        healthy = bool(self.alive[node]) and not suspect
        if healthy != self.healthy[node]:
            self.healthy[node] = healthy
            self._unhealthy += -1 if healthy else 1
            self.all_healthy = self._unhealthy == 0


class LoadView:
    """A :class:`LoadTable` through the
    :class:`repro.core.policies.LoadView` protocol, suspicion included, so
    the same dispatch policies run on both substrates.

    What differs per substrate is passed in: ``clock`` (anything with a
    ``.now``) is the policies' timebase, and ``active_requests(node)`` the
    instantaneous in-flight count — read only by baseline policies that
    model a connection-counting switch.  The arrays returned are the
    table's own: read-only.
    """

    __slots__ = ("table", "clock", "active_requests", "num_nodes")

    def __init__(self, table: LoadTable, clock,
                 active_requests: Callable[[int], int]) -> None:
        self.table = table
        self.clock = clock
        self.active_requests = active_requests
        self.num_nodes = table.num_nodes

    @property
    def now(self) -> float:
        return self.clock.now

    def cpu_idle_array(self) -> np.ndarray:
        return self.table.cpu_idle

    def disk_avail_array(self) -> np.ndarray:
        return self.table.disk_avail

    def is_alive(self, node_id: int) -> bool:
        return bool(self.table.alive[node_id])

    def alive_array(self) -> np.ndarray:
        return self.table.alive

    def is_suspect(self, node_id: int) -> bool:
        return bool(self.table.at(self.clock.now).suspect[node_id])

    def healthy_array(self) -> np.ndarray:
        """In-service and not-suspect membership."""
        return self.table.at(self.clock.now).healthy

    def all_healthy(self) -> bool:
        """O(1): every node is in service and trusted."""
        table = self.table
        if table.clock is not None:     # no call per route on the simulator
            table.at(self.clock.now)
        return table.all_healthy


class LoadMonitor:
    """The simulated ``rstat()`` poll: once per period, every node's busy
    counters become one sample of the cluster's :class:`LoadTable`."""

    __slots__ = ("engine", "cfg", "nodes", "table", "_last_cpu_busy",
                 "_last_disk_busy", "_last_sample_time", "samples")

    def __init__(self, engine: "Engine", cfg: MonitorConfig,
                 nodes: Sequence["Node"]):
        self.engine = engine
        self.cfg = cfg
        self.nodes = nodes
        n = len(nodes)
        self.table = LoadTable(n, cfg)
        self._last_cpu_busy = [0.0] * n
        self._last_disk_busy = [0.0] * n
        self._last_sample_time = engine.now
        self.samples = 0

    def start(self) -> None:
        """Schedule the first sampling tick."""
        self.engine.call_later(self.cfg.period, self._tick)

    def reregister(self, node_id: int) -> None:
        """Re-baseline one node's probe state after a role change.

        Called by the control plane when it promotes a slave: the busy
        counters restart from *now* so the first post-promotion sample
        measures the node's utilisation in its new role instead of
        averaging across the transition, and the probe freshness stamp
        is renewed.  Unlike a recovery there is no probation — the node
        was continuously monitored; only its duty cycle changed.
        """
        node = self.nodes[node_id]
        self._last_cpu_busy[node_id] = node.cpu.busy_time
        self._last_disk_busy[node_id] = node.disk.busy_time
        self.table.last_heard[node_id] = self.engine.now

    def _tick(self) -> None:
        now = self.engine.now
        window = now - self._last_sample_time
        table = self.table
        for i, node in enumerate(self.nodes):
            if node.failed:
                table.restart_probation(i)   # the rstat() probe fails
                continue
            cpu_busy = node.cpu.busy_time
            disk_busy = node.disk.busy_time
            table.sample(i, 1.0 - (cpu_busy - self._last_cpu_busy[i]) / window,
                         1.0 - (disk_busy - self._last_disk_busy[i]) / window,
                         now)
            self._last_cpu_busy[i] = cpu_busy
            self._last_disk_busy[i] = disk_busy
        self._last_sample_time = now
        self.samples += 1
        self.engine.call_later(self.cfg.period, self._tick)
