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
never heard is trusted from its first heartbeat: it has no history to
distrust, and first contact does not restart probation, so a heartbeat it
sent before its master connected to it counts.  A returning node — silent
past ``suspect_after``, reconnected after its transport died,
re-registered by the control plane, or restarted as a new process (a new
``boot``) — sits out ``probation_samples`` heartbeats from its return,
because its first reports describe an idle that no longer exists.
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

    It keeps only what the datagrams add to the table: the ``(boot,
    seq)`` pair that orders each node's heartbeats and rejects a replayed
    or reordered datagram, and the in-flight count each node reported.
    All mutation happens on the master's event-loop thread (datagram
    callbacks and local observes), so no locking is needed.
    """

    def __init__(self, table: LoadTable) -> None:
        self.table = table
        #: Each node's last accepted ``(boot, seq)``.
        self.last_boot = np.zeros(table.num_nodes, dtype=np.int64)
        self.last_seq = np.full(table.num_nodes, -1, dtype=np.int64)
        #: In-flight requests each node last reported.
        self.active = np.zeros(table.num_nodes, dtype=np.intp)
        self.heartbeats = 0
        self.rejected = 0

    def active_requests(self, node_id: int) -> int:
        return int(self.active[node_id])

    def observe(self, node_id: int, seq: int, cpu_idle: float,
                disk_avail: float, active: int, now: float,
                boot: int = 0) -> bool:
        """Fold one heartbeat in; returns False if it was rejected.

        Heartbeats are ordered by ``(boot, seq)``: a new process under the
        node's id counts its ``seq`` from 1 again behind a later ``boot``.
        The first heartbeat of a new boot of a node already heard restarts
        its probation.
        """
        table = self.table
        if not 0 <= node_id < table.num_nodes:
            self.rejected += 1
            return False
        last_boot = self.last_boot[node_id]
        if boot < last_boot or (boot == last_boot
                                and seq <= self.last_seq[node_id]):
            self.rejected += 1          # reordered or duplicated datagram
            return False
        if boot != last_boot:
            self.last_boot[node_id] = boot
            if table.last_heard[node_id] != -np.inf:
                table.restart_probation(node_id)     # the node restarted
        self.last_seq[node_id] = seq
        self.active[node_id] = max(0, int(active))
        table.sample(node_id, cpu_idle, disk_avail, now)
        self.heartbeats += 1
        return True

    def observe_datagram(self, data: bytes, now: float) -> bool:
        """Fold one datagram in; garbage, a field of the wrong type, or a
        ``seq``/``active``/``boot`` past int64 counts in ``rejected``.  A
        datagram without ``boot`` reads as boot 0."""
        msg = decode_heartbeat(data)
        try:
            if msg is None:
                raise ValueError("undecodable heartbeat")
            seq, active = int(msg["seq"]), int(msg.get("active", 0))
            boot = int(msg.get("boot", 0))
            if not all(_INT64_MIN <= v <= _INT64_MAX
                       for v in (seq, active, boot)):
                raise OverflowError("heartbeat field past int64")
            node = int(msg["node"])
            cpu_idle = float(msg.get("cpu_idle", 1.0))
            disk_avail = float(msg.get("disk_avail", 1.0))
        except (TypeError, ValueError, OverflowError):
            self.rejected += 1
            return False
        return self.observe(node, seq, cpu_idle, disk_avail, active, now,
                            boot)

    def datagram_received(self, data: bytes, addr) -> None:
        self.observe_datagram(data, self.table.clock.now)
