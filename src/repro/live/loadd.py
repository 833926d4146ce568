"""The master side of the live load daemon: heartbeats feeding RSRC.

"In our implementation, we use the Unix rstat() function to collect the
load information on each node."  The live cluster replaces the rstat poll
with a push daemon: every node periodically sends a small UDP datagram
carrying its CPU-idle and disk-available ratios (the
:class:`~repro.live.kernel.LoadReporter` sampling its
:class:`~repro.live.kernel.BusyMeter`; the datagram format lives in
:mod:`repro.live.protocol`), and every master folds the datagrams into a
:class:`LoadTable`.  The sender side stays in :mod:`repro.live.kernel`
so a slave process never imports this module or numpy.

Staleness reuses the suspicion semantics of the simulator's monitor /
resilience layer (:class:`repro.sim.monitor.LoadMonitor`): a node whose
heartbeat has not arrived for ``suspect_after`` seconds is marked
*suspect* and excluded from RSRC candidate sets before any formal failure
detection.  A node sits out ``probation_samples`` heartbeats before it is
trusted: a new node from its first report on, a returning node — silent
past ``suspect_after``, reconnected after its transport died, or
re-registered by the control plane — again from its return, because its
first reports describe an idle that no longer exists.  First contact
does not restart probation: heartbeats a new node sent before its master
connected to it count.  The knobs come from the same
:class:`repro.sim.config.MonitorConfig` the simulator uses, so an
experiment tunes one object for both substrates.
"""

from __future__ import annotations

import asyncio
from typing import Optional

import numpy as np

from repro.live.protocol import decode_heartbeat
from repro.sim.config import MonitorConfig


_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


class LoadTable:
    """A master's view of every node's load, built from heartbeats.

    All mutation happens on the master's event-loop thread (datagram
    callbacks and local observes), so no locking is needed.
    """

    __slots__ = ("num_nodes", "cfg", "cpu_idle", "disk_avail", "active",
                 "last_heard", "last_seq", "dead", "_ok_streak",
                 "heartbeats", "rejected")

    def __init__(self, num_nodes: int, cfg: Optional[MonitorConfig] = None):
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        self.num_nodes = num_nodes
        self.cfg = cfg or MonitorConfig()
        self.cfg.validate()
        #: Smoothed ratios, optimistically 1.0 until first heartbeat.
        self.cpu_idle = np.ones(num_nodes)
        self.disk_avail = np.ones(num_nodes)
        self.active = np.zeros(num_nodes, dtype=np.intp)
        #: Receipt time of the last accepted heartbeat per node; -inf means
        #: never heard (a node that never reported is suspect, not trusted).
        self.last_heard = np.full(num_nodes, -np.inf)
        self.last_seq = np.full(num_nodes, -1, dtype=np.int64)
        #: Nodes whose transport failed outright (broken CGI connection);
        #: excluded from dispatch until the connection is re-established.
        self.dead = np.zeros(num_nodes, dtype=bool)
        #: Consecutive accepted heartbeats since the node was last suspect
        #: (probation: a returning node must report a few times in a row).
        self._ok_streak = np.full(num_nodes, self.cfg.probation_samples,
                                  dtype=np.intp)
        self.heartbeats = 0
        self.rejected = 0

    def observe(self, node_id: int, seq: int, cpu_idle: float,
                disk_avail: float, active: int, now: float) -> bool:
        """Fold one heartbeat in; returns False if it was rejected."""
        if not 0 <= node_id < self.num_nodes:
            self.rejected += 1
            return False
        if seq <= self.last_seq[node_id]:
            self.rejected += 1          # reordered or duplicated datagram
            return False
        # A gap in heartbeats restarts probation; an unbroken stream works
        # it off (probation itself must not reset the streak, or a
        # returning node would never be trusted again).
        was_stale = (now - self.last_heard[node_id]) > self.cfg.suspect_after
        self.last_seq[node_id] = seq
        self.last_heard[node_id] = now
        self.active[node_id] = max(0, int(active))
        s = self.cfg.smoothing
        self.cpu_idle[node_id] = (
            s * min(1.0, max(0.0, cpu_idle))
            + (1.0 - s) * self.cpu_idle[node_id])
        self.disk_avail[node_id] = (
            s * min(1.0, max(0.0, disk_avail))
            + (1.0 - s) * self.disk_avail[node_id])
        self._ok_streak[node_id] = (
            1 if was_stale else self._ok_streak[node_id] + 1)
        self.heartbeats += 1
        return True

    def observe_datagram(self, data: bytes, now: float) -> bool:
        """Fold one datagram in; garbage, a field of the wrong type, or a
        ``seq``/``active`` past int64 counts in ``rejected``."""
        msg = decode_heartbeat(data)
        try:
            if msg is None:
                raise ValueError("undecodable heartbeat")
            seq, active = int(msg["seq"]), int(msg.get("active", 0))
            if not (_INT64_MIN <= seq <= _INT64_MAX
                    and _INT64_MIN <= active <= _INT64_MAX):
                raise OverflowError("heartbeat field past int64")
            node = int(msg["node"])
            cpu_idle = float(msg.get("cpu_idle", 1.0))
            disk_avail = float(msg.get("disk_avail", 1.0))
        except (TypeError, ValueError, OverflowError):
            self.rejected += 1
            return False
        return self.observe(node, seq, cpu_idle, disk_avail, active, now)

    def mark_dead(self, node_id: int) -> None:
        self.dead[node_id] = True

    def mark_alive(self, node_id: int) -> None:
        """Re-register a returning node: clear its dead flag and restart
        its probation.

        Callers are a reconnect after :meth:`mark_dead` and a control-plane
        role re-registration — not first contact, which must keep the
        heartbeats a new node already sent (a never-heard node is on
        probation anyway: its first heartbeat takes the staleness path).
        """
        self.dead[node_id] = False
        self._ok_streak[node_id] = 0

    def suspect_array(self, now: float) -> np.ndarray:
        """Stale-heartbeat / on-probation flags, recomputed at ``now``."""
        stale = (now - self.last_heard) > self.cfg.suspect_after
        probation = self._ok_streak < self.cfg.probation_samples
        return stale | probation


class LiveLoadView:
    """Adapter exposing a :class:`LoadTable` through the
    :class:`repro.core.policies.LoadView` protocol (suspicion layer
    included), so the *simulator's* dispatch policies run unchanged
    against live telemetry."""

    __slots__ = ("table", "clock")

    def __init__(self, table: LoadTable, clock) -> None:
        self.table = table
        self.clock = clock              # anything with a ``.now`` property

    @property
    def num_nodes(self) -> int:
        return self.table.num_nodes

    @property
    def now(self) -> float:
        return self.clock.now

    def cpu_idle_array(self) -> np.ndarray:
        return self.table.cpu_idle

    def disk_avail_array(self) -> np.ndarray:
        return self.table.disk_avail

    def active_requests(self, node_id: int) -> int:
        return int(self.table.active[node_id])

    def is_alive(self, node_id: int) -> bool:
        return not bool(self.table.dead[node_id])

    def alive_array(self) -> np.ndarray:
        return ~self.table.dead

    # -- suspicion layer ---------------------------------------------------

    def is_suspect(self, node_id: int) -> bool:
        return bool(self.table.suspect_array(self.clock.now)[node_id])

    def healthy_array(self) -> np.ndarray:
        return ~self.table.dead & ~self.table.suspect_array(self.clock.now)

    def all_healthy(self) -> bool:
        return bool(self.healthy_array().all())


class HeartbeatReceiver(asyncio.DatagramProtocol):
    """Master-side UDP endpoint folding datagrams into a table."""

    def __init__(self, table: LoadTable, clock) -> None:
        self.table = table
        self.clock = clock

    def datagram_received(self, data: bytes, addr) -> None:
        self.table.observe_datagram(data, self.clock.now)


async def open_heartbeat_endpoint(table: LoadTable, clock,
                                  host: str = "127.0.0.1"):
    """Bind a UDP socket for heartbeats; returns ``(transport, port)``."""
    loop = asyncio.get_running_loop()
    transport, _ = await loop.create_datagram_endpoint(
        lambda: HeartbeatReceiver(table, clock), local_addr=(host, 0))
    port = transport.get_extra_info("sockname")[1]
    return transport, port
