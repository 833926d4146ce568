"""Boot contract of the live cluster.

A slave process imports no numpy and no simulator; ``LiveCluster.start``
spawns every slave at once and, if one fails, leaves no child process or
task behind; and heartbeat probation restarts only for returning nodes —
heartbeats a new node sent before its master connected still count.
"""

from __future__ import annotations

import asyncio
import subprocess
import sys

import pytest

from repro.control.actuator import LiveAdapter
from repro.control.controller import PROMOTE, ControlAction
from repro.live.cluster import LiveCluster, LiveClusterConfig
from repro.live.kernel import BusyMeter
from repro.live.master import MasterServer
from repro.live.node import CGIService, WorkerPool
from repro.sim.config import MonitorConfig


def test_slave_import_path_loads_no_numpy_or_simulator():
    heavy = ("numpy", "repro.analysis", "repro.sim.cluster",
             "repro.core.policies")
    code = ("import sys, repro.live.slave; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_slaves_spawn_concurrently(monkeypatch):
    """Every spawn waits on an event only the last one sets: a serial
    boot would hang here.  Ports and connects still follow node ids."""
    connects = []

    async def fake_connect(self, node_id, host, port):
        connects.append((node_id, port))

    async def fake_wait_healthy(self, timeout=10.0):
        pass

    monkeypatch.setattr(MasterServer, "connect_peer", fake_connect)
    monkeypatch.setattr(MasterServer, "wait_healthy", fake_wait_healthy)

    async def scenario():
        release = asyncio.Event()

        async def fake_spawn(self, slave_id):
            if slave_id == self.cfg.num_slaves:
                release.set()
            await release.wait()
            return 50000 + slave_id

        monkeypatch.setattr(LiveCluster, "_spawn_slave", fake_spawn)
        cluster = LiveCluster(LiveClusterConfig(num_slaves=3))
        await asyncio.wait_for(cluster.start(), timeout=5.0)
        await cluster.stop()
        return cluster.slave_ports

    assert asyncio.run(scenario()) == [50001, 50002, 50003]
    assert connects == [(1, 50001), (2, 50002), (3, 50003)]


def test_failed_spawn_cancels_siblings_and_reaps_children(monkeypatch):
    """Slave 1 dies before READY while slaves 2 and 3 are mid-spawn with
    live child processes: start() raises, the sibling spawns are
    cancelled, every child is reaped, and no task is left pending."""
    children = []
    cancelled = []

    async def scenario():
        both_spawned = asyncio.Event()

        async def fake_spawn(self, slave_id):
            if slave_id == 1:
                await both_spawned.wait()
                raise RuntimeError("slave 1 exited before becoming ready")
            proc = await asyncio.create_subprocess_exec(
                sys.executable, "-c", "import time; time.sleep(60)")
            self.procs.append(proc)
            children.append(proc)
            if len(children) == 2:
                both_spawned.set()
            try:
                await asyncio.sleep(60)        # no READY line yet
            except asyncio.CancelledError:
                cancelled.append(slave_id)
                raise
            return 0

        monkeypatch.setattr(LiveCluster, "_spawn_slave", fake_spawn)
        cluster = LiveCluster(LiveClusterConfig(num_slaves=3))
        with pytest.raises(RuntimeError, match="slave 1"):
            await asyncio.wait_for(cluster.start(), timeout=20.0)
        pending = [t for t in asyncio.all_tasks()
                   if t is not asyncio.current_task()]
        return cluster, pending

    cluster, pending = asyncio.run(scenario())
    assert len(children) == 2
    assert all(proc.returncode is not None for proc in children)
    assert sorted(cancelled) == [2, 3]
    assert pending == []
    assert cluster.procs == []


async def until_dead(table, node_id: int) -> None:
    while table.alive[node_id]:
        await asyncio.sleep(0.01)


def test_probation_restarts_only_for_returning_nodes():
    """First contact keeps the heartbeats a new node already sent; a
    reconnect after the transport died and a control-plane
    re-registration both restart probation.  Node 2 reports but is never
    connected, so the cluster is never healthy."""
    monitor = MonitorConfig(period=0.2, suspect_after=30.0,
                            probation_samples=2)

    async def scenario():
        master = MasterServer(node_id=0, num_nodes=3, workers=1,
                              monitor=monitor)
        pool = WorkerPool(node_id=1, workers=1, meter=BusyMeter(1))
        service = CGIService(node_id=1, pool=pool)
        await master.start()
        port = await service.start()
        table, view = master.table, master.view
        receiver = master.receiver
        seqs = {1: 0, 2: 0}
        seen = {}

        def beat(node_id: int) -> None:
            seqs[node_id] += 1
            receiver.observe(node_id, seqs[node_id], 1.0, 1.0, 0,
                             now=master.clock.now)

        try:
            beat(2)
            beat(2)
            # A new node: one heartbeat before the connect...
            beat(1)
            await master.connect_peer(1, "127.0.0.1", port)
            seen["first_connect"] = view.is_suspect(1)
            beat(1)                                  # ...and one after.
            seen["second_beat"] = view.is_suspect(1)

            # The transport dies, then the node reconnects.
            master.peers[1].writer.close()
            await asyncio.wait_for(until_dead(table, 1), timeout=5.0)
            await master.connect_peer(1, "127.0.0.1", port)
            seen["reconnect"] = view.is_suspect(1)
            beat(1)
            seen["reconnect_one_beat"] = view.is_suspect(1)
            beat(1)
            seen["reconnect_two_beats"] = view.is_suspect(1)

            # Heard and off probation is not enough without a connection.
            seen["unconnected_suspect"] = view.is_suspect(2)
            with pytest.raises(TimeoutError,
                               match=r"unconnected nodes: \[2\]"):
                await master.wait_healthy(timeout=0.1)

            # Control-plane re-registration restarts probation as well.
            assert LiveAdapter(master).apply(ControlAction(PROMOTE, 1))
            seen["promoted"] = view.is_suspect(1)
            return seen
        finally:
            await master.stop()
            await service.stop()
            pool.shutdown()

    assert asyncio.run(scenario()) == {
        "first_connect": True, "second_beat": False,
        "reconnect": True, "reconnect_one_beat": True,
        "reconnect_two_beats": False, "unconnected_suspect": False,
        "promoted": True}


def test_reconnect_over_open_connection_keeps_node_alive():
    """Re-opening the channel to a live slave swaps the connection: the
    old one's reader must not mark the node dead behind the new one."""
    monitor = MonitorConfig(period=0.2, suspect_after=30.0,
                            probation_samples=2)

    async def scenario():
        master = MasterServer(node_id=0, num_nodes=2, workers=1,
                              monitor=monitor)
        pool = WorkerPool(node_id=1, workers=1, meter=BusyMeter(1))
        service = CGIService(node_id=1, pool=pool)
        await master.start()
        port = await service.start()
        table, view = master.table, master.view
        try:
            for seq in (1, 2):
                master.receiver.observe(1, seq, 1.0, 1.0, 0,
                                        now=master.clock.now)
            await master.connect_peer(1, "127.0.0.1", port)
            old = master.peers[1]
            await master.connect_peer(1, "127.0.0.1", port)
            return (master.peers[1] is not old, master.peers[1].connected,
                    not table.alive[1], view.is_suspect(1))
        finally:
            await master.stop()
            await service.stop()
            pool.shutdown()

    assert asyncio.run(scenario()) == (True, True, False, False)
