"""The master side of the live load daemon: heartbeats feeding RSRC.

"In our implementation, we use the Unix rstat() function to collect the
load information on each node."  The live cluster replaces the rstat poll
with a push daemon: every node periodically sends a small UDP datagram
carrying its CPU-idle and disk-available ratios (the
:class:`~repro.live.kernel.LoadReporter` sampling its
:class:`~repro.live.kernel.BusyMeter`; the datagram format lives in
:mod:`repro.live.protocol`), and every master's :class:`HeartbeatReceiver`
decodes them into samples of its :class:`~repro.sim.monitor.LoadTable`,
the table the simulator's monitor feeds.  The sender side stays in
:mod:`repro.live.kernel` so a slave process never imports numpy.

The master's table runs on the master's clock: a node silent for more
than ``suspect_after`` seconds is *suspect* from that moment and excluded
from RSRC candidate sets before any formal failure detection.  A node
sits out ``probation_samples`` heartbeats before it is trusted: a new node
from its first report on, a returning node — silent past
``suspect_after``, reconnected after its transport died, or re-registered
by the control plane — again from its return, because its first reports
describe an idle that no longer exists.  First contact does not restart
probation: heartbeats a new node sent before its master connected to it
count.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.live.protocol import decode_heartbeat
from repro.sim.monitor import LoadTable


_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


class HeartbeatReceiver(asyncio.DatagramProtocol):
    """Master-side UDP endpoint decoding heartbeats into samples of a
    :class:`~repro.sim.monitor.LoadTable`.

    It keeps only what the datagrams add to the table: the sequence
    number that rejects a replayed or reordered datagram, and the
    in-flight count each node reported.  All mutation happens on the
    master's event-loop thread (datagram callbacks and local observes), so
    no locking is needed.
    """

    def __init__(self, table: LoadTable) -> None:
        self.table = table
        self.last_seq = np.full(table.num_nodes, -1, dtype=np.int64)
        #: In-flight requests each node last reported.
        self.active = np.zeros(table.num_nodes, dtype=np.intp)
        self.heartbeats = 0
        self.rejected = 0

    def active_requests(self, node_id: int) -> int:
        return int(self.active[node_id])

    def observe(self, node_id: int, seq: int, cpu_idle: float,
                disk_avail: float, active: int, now: float) -> bool:
        """Fold one heartbeat in; returns False if it was rejected."""
        if not 0 <= node_id < self.table.num_nodes:
            self.rejected += 1
            return False
        if seq <= self.last_seq[node_id]:
            self.rejected += 1          # reordered or duplicated datagram
            return False
        self.last_seq[node_id] = seq
        self.active[node_id] = max(0, int(active))
        self.table.sample(node_id, cpu_idle, disk_avail, now)
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

    def datagram_received(self, data: bytes, addr) -> None:
        self.observe_datagram(data, self.table.clock.now)
