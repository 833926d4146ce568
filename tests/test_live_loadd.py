"""Unit tests for the live load daemon: heartbeats, staleness, suspicion."""

from __future__ import annotations

import asyncio

import numpy as np

import repro.live.master as master_module
from repro.live.kernel import BusyMeter, LiveClock, LoadReporter
from repro.live.loadd import HeartbeatReceiver
from repro.live.master import MasterServer
from repro.live.protocol import decode_heartbeat, encode_heartbeat
from repro.sim.config import MonitorConfig
from repro.sim.monitor import LoadTable, LoadView


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now


def cfg() -> MonitorConfig:
    return MonitorConfig(period=0.2, smoothing=0.7, suspect_after=1.0,
                         probation_samples=2)


def live(num_nodes: int, clock):
    """A master's table on ``clock``, its heartbeat receiver and view."""
    table = LoadTable(num_nodes, cfg(), clock=clock)
    receiver = HeartbeatReceiver(table)
    return table, receiver, LoadView(table, clock, receiver.active_requests)


def test_heartbeat_codec_and_garbage():
    payload = encode_heartbeat(3, 17, 0.93, 0.71, 2)
    msg = decode_heartbeat(payload)
    assert msg == {"node": 3, "seq": 17, "cpu_idle": 0.93,
                   "disk_avail": 0.71, "active": 2}
    assert decode_heartbeat(b"\xff\x00 not json") is None
    assert decode_heartbeat(b'{"seq": 1}') is None   # no node field


def test_table_rejects_replayed_and_out_of_range():
    _, receiver, _ = live(2, FakeClock(0.0))
    assert receiver.observe(0, 1, 0.5, 0.5, 1, now=0.0)
    assert not receiver.observe(0, 1, 0.5, 0.5, 1, now=0.1)  # duplicate seq
    assert not receiver.observe(0, 0, 0.5, 0.5, 1, now=0.1)  # reordered
    assert not receiver.observe(5, 2, 0.5, 0.5, 1, now=0.1)  # unknown node
    assert receiver.rejected == 3
    assert receiver.heartbeats == 1


def test_smoothing_is_ewma():
    table, receiver, _ = live(1, FakeClock(0.0))
    receiver.observe(0, 1, 0.0, 0.0, 0, now=0.0)
    # smoothing 0.7 over the optimistic 1.0 prior.
    assert np.isclose(table.cpu_idle[0], 0.3)
    receiver.observe(0, 2, 0.0, 0.0, 0, now=0.2)
    assert np.isclose(table.cpu_idle[0], 0.09)


def test_never_heard_is_suspect_until_probation_clears():
    _, receiver, view = live(2, FakeClock(0.0))
    assert view.is_suspect(0) and view.is_suspect(1)
    assert not view.all_healthy()
    # A node with no history is trusted on its first heartbeat, even
    # with probation_samples=2...
    receiver.observe(0, 1, 1.0, 1.0, 0, now=0.0)
    assert not view.is_suspect(0)
    # ...and the unheard node stays suspect.
    assert view.is_suspect(1)
    assert list(view.healthy_array()) == [True, False]


def test_staleness_restarts_probation():
    clock = FakeClock(0.0)
    _, receiver, view = live(1, clock)
    receiver.observe(0, 1, 1.0, 1.0, 0, now=0.0)
    receiver.observe(0, 2, 1.0, 1.0, 0, now=0.2)
    assert not view.is_suspect(0)
    # Silence for longer than suspect_after -> suspect again.
    clock.now = 2.0
    assert view.is_suspect(0)
    # A single heartbeat after the gap is on probation...
    receiver.observe(0, 3, 1.0, 1.0, 0, now=2.0)
    clock.now = 2.1
    assert view.is_suspect(0)
    # ...and an unbroken stream works it off.
    receiver.observe(0, 4, 1.0, 1.0, 0, now=2.2)
    clock.now = 2.3
    assert not view.is_suspect(0)


def test_dead_flag_and_reconnect_probation():
    table, receiver, view = live(1, FakeClock(0.5))
    receiver.observe(0, 1, 1.0, 1.0, 0, now=0.0)
    receiver.observe(0, 2, 1.0, 1.0, 0, now=0.2)
    assert view.all_healthy() and view.alive_array().all()
    table.set_alive(0, False)
    assert not view.is_alive(0)
    assert not view.all_healthy()
    table.set_alive(0, True)
    table.restart_probation(0)
    # Reconnection puts the node back on probation despite fresh samples.
    assert view.is_alive(0)
    assert view.is_suspect(0)


def test_restarted_node_is_heard_again_on_probation():
    """A node restarted under the same id counts ``seq`` from 1 again
    behind a later ``boot``: its heartbeats are accepted, not dropped as
    replays, and restart its probation; the old process's late datagrams
    are dropped."""
    clock = FakeClock(0.0)
    _, receiver, view = live(1, clock)

    def reporter() -> LoadReporter:
        return LoadReporter(0, BusyMeter(capacity=1, now=clock.now), clock,
                            cfg=cfg())

    def beat(rep: LoadReporter) -> bytes:
        clock.now += 0.2
        payload = rep.beat_once(clock.now)
        assert receiver.observe_datagram(payload, clock.now)
        return payload

    old = reporter()
    late = [beat(old) for _ in range(5)]
    assert not view.is_suspect(0)
    new = reporter()
    assert new.boot > old.boot
    beat(new)
    assert view.is_suspect(0)            # probation_samples=2
    assert not receiver.observe_datagram(late[-1], clock.now)
    beat(new)
    assert not view.is_suspect(0)
    for _ in range(3):
        beat(new)
    assert receiver.heartbeats == 10 and receiver.rejected == 1


def test_heartbeat_without_boot_reads_as_boot_zero():
    _, receiver, view = live(1, FakeClock(0.0))
    assert decode_heartbeat(encode_heartbeat(0, 1, 1.0, 1.0, 0, boot=7)
                            )["boot"] == 7
    assert receiver.observe_datagram(encode_heartbeat(0, 1, 1.0, 1.0, 0),
                                     now=0.0)
    assert receiver.observe_datagram(encode_heartbeat(0, 2, 1.0, 1.0, 0),
                                     now=0.2)
    # A sender with a boot is a later process than one without...
    assert receiver.observe_datagram(
        encode_heartbeat(0, 1, 1.0, 1.0, 0, boot=7), now=0.4)
    assert view.is_suspect(0)
    # ...so the boot-less sender's datagrams are now stale.
    assert not receiver.observe_datagram(
        encode_heartbeat(0, 3, 1.0, 1.0, 0), now=0.6)
    assert receiver.rejected == 1


def test_busy_meter_windows():
    meter = BusyMeter(capacity=2, now=0.0)
    meter.add(0.5, 1.0)
    cpu_idle, disk_avail = meter.sample(now=1.0)
    # 0.5 busy-seconds over a 1 s window with capacity 2 -> 25% busy.
    assert np.isclose(cpu_idle, 0.75)
    assert np.isclose(disk_avail, 0.5)
    # The next window starts fresh.
    cpu_idle, disk_avail = meter.sample(now=2.0)
    assert cpu_idle == 1.0 and disk_avail == 1.0


def test_reporter_beat_once_delivers_locally():
    clock = LiveClock()
    _, receiver, _ = live(1, clock)
    meter = BusyMeter(capacity=1, now=clock.now)
    seen = []

    def local_observe(payload: bytes) -> None:
        seen.append(payload)
        receiver.observe_datagram(payload, clock.now)

    reporter = LoadReporter(0, meter, clock, local_observe=local_observe,
                            cfg=cfg())
    reporter.beat_once(clock.now)
    reporter.beat_once(clock.now)
    assert len(seen) == 2
    assert receiver.heartbeats == 2
    assert reporter.seq == 2


def test_reporter_start_sends_first_heartbeat():
    """The first heartbeat goes out when the reporter starts, not one
    period later, so a new node's probation starts at once."""

    async def scenario():
        clock = LiveClock()
        _, receiver, _ = live(1, clock)
        reporter = LoadReporter(
            0, BusyMeter(capacity=1, now=clock.now), clock,
            local_observe=lambda payload: receiver.observe_datagram(
                payload, clock.now),
            cfg=cfg())
        await reporter.start()
        try:
            return reporter.sent, receiver.heartbeats
        finally:
            await reporter.stop()

    assert asyncio.run(scenario()) == (1, 1)


def test_silent_node_turns_suspect_at_suspect_after(monkeypatch):
    """A node whose heartbeats stop is trusted at exactly ``last_heard +
    suspect_after`` and suspect just after it, with no routing decision
    in between; a heartbeat after the gap restarts its probation."""
    monkeypatch.setattr(master_module, "LiveClock", FakeClock)
    master = MasterServer(node_id=0, num_nodes=2, workers=1, monitor=cfg())

    def no_route(request, view):
        raise AssertionError("a read needs no routing decision")

    monkeypatch.setattr(master.policy, "route", no_route)
    clock, table, receiver = master.clock, master.table, master.receiver
    try:
        for seq, t in enumerate((0.25, 0.5), start=1):
            clock.now = t
            receiver.observe(0, seq, 1.0, 1.0, 0, t)
            receiver.observe(1, seq, 1.0, 1.0, 0, t)
        # Node 1 falls silent at 0.5; node 0 keeps reporting.
        for seq, t in enumerate((0.75, 1.0, 1.25, 1.5), start=3):
            clock.now = t
            receiver.observe(0, seq, 1.0, 1.0, 0, t)
        deadline = 0.5 + cfg().suspect_after
        assert clock.now == deadline
        assert master.stats()["suspect"] == [False, False]
        assert not table.suspect_array(deadline).any()
        clock.now = float(np.nextafter(deadline, np.inf))
        assert master.stats()["suspect"] == [False, True]
        assert list(table.suspect_array(clock.now)) == [False, True]
        # Back after the gap: one heartbeat is not enough...
        receiver.observe(1, 3, 1.0, 1.0, 0, clock.now)
        assert master.stats()["suspect"] == [False, True]
        # ...an unbroken second one is.
        clock.now += 0.2
        receiver.observe(1, 4, 1.0, 1.0, 0, clock.now)
        assert master.stats()["suspect"] == [False, False]
    finally:
        master.pool.shutdown()
