"""Differential tests of the one load table against the two rule sets it
replaced.

The simulator's monitor and the live master's heartbeat table each kept
their own smoothing, probation and staleness state.  The reference
functions below restate those rules: :class:`TickReference` is the
monitor's per-tick sample / failed-probe / staleness pass, and
:class:`HeartbeatReference` the heartbeat fold with suspicion recomputed
at every read.  Derandomized Hypothesis sequences drive the same
operations through :class:`~repro.sim.monitor.LoadMonitor` (tick-fed) and
:class:`~repro.live.loadd.HeartbeatReceiver` (heartbeat-fed) and check,
at every read, that ``cpu_idle``, ``disk_avail``, the suspicion flags
and ``all_healthy`` are bit-identical to the reference.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live.loadd import HeartbeatReceiver
from repro.sim.config import MonitorConfig
from repro.sim.monitor import LoadMonitor, LoadTable, LoadView

DIFF = settings(max_examples=300, deadline=None, derandomize=True)

configs = st.builds(
    MonitorConfig,
    period=st.sampled_from([0.1, 0.2, 0.5, 1.0, 1.5]),
    smoothing=st.sampled_from([0.3, 0.7, 1.0]),
    suspect_after=st.sampled_from([0.3, 0.5, 1.0]),
    probation_samples=st.integers(1, 3))

ratios = st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0, -0.5, 1.5])
delays = st.sampled_from([0.0, 0.05, 0.1, 0.125, 0.2, 0.25, 0.3, 0.5, 1.0, 2.5])


# -- the replaced rules --------------------------------------------------------


class TickReference:
    """The simulator monitor's rules: one pass over every node per tick."""

    def __init__(self, n: int, cfg: MonitorConfig) -> None:
        self.cfg = cfg
        self.cpu_idle = np.ones(n)
        self.disk_avail = np.ones(n)
        self.last_cpu_busy = np.zeros(n)
        self.last_disk_busy = np.zeros(n)
        self.last_sample_time = 0.0
        self.suspect = np.zeros(n, dtype=bool)
        self.any_suspect = False
        self.last_probe_ok = np.zeros(n)
        self.ok_streak = np.full(n, cfg.probation_samples, dtype=np.intp)
        self.alive = np.ones(n, dtype=bool)

    def reregister(self, i: int, node, now: float) -> None:
        self.last_cpu_busy[i] = node.cpu.busy_time
        self.last_disk_busy[i] = node.disk.busy_time
        self.last_probe_ok[i] = now

    def tick(self, nodes, now: float) -> None:
        window = now - self.last_sample_time
        s = self.cfg.smoothing
        for i, node in enumerate(nodes):
            if node.failed:
                self.ok_streak[i] = 0
                self.suspect[i] = True
                continue
            if window > 0:
                cpu_busy = node.cpu.busy_time
                disk_busy = node.disk.busy_time
                cpu_util = (cpu_busy - self.last_cpu_busy[i]) / window
                disk_util = (disk_busy - self.last_disk_busy[i]) / window
                self.last_cpu_busy[i] = cpu_busy
                self.last_disk_busy[i] = disk_busy
                idle = min(1.0, max(0.0, 1.0 - cpu_util))
                avail = min(1.0, max(0.0, 1.0 - disk_util))
                self.cpu_idle[i] = s * idle + (1.0 - s) * self.cpu_idle[i]
                self.disk_avail[i] = (s * avail
                                      + (1.0 - s) * self.disk_avail[i])
            self.last_probe_ok[i] = now
            self.ok_streak[i] += 1
            if (self.suspect[i]
                    and self.ok_streak[i] >= self.cfg.probation_samples):
                self.suspect[i] = False
        stale = (now - self.last_probe_ok) > self.cfg.suspect_after
        if stale.any():
            self.suspect[stale] = True
            self.ok_streak[stale] = 0
        self.any_suspect = bool(self.suspect.any())
        self.last_sample_time = now

    def all_healthy(self) -> bool:
        return bool(self.alive.all()) and not self.any_suspect


class HeartbeatReference:
    """The live heartbeat table's rules: suspicion recomputed per read."""

    def __init__(self, n: int, cfg: MonitorConfig) -> None:
        self.cfg = cfg
        self.cpu_idle = np.ones(n)
        self.disk_avail = np.ones(n)
        self.last_heard = np.full(n, -np.inf)
        self.dead = np.zeros(n, dtype=bool)
        self.ok_streak = np.full(n, cfg.probation_samples, dtype=np.intp)

    def observe(self, i: int, cpu_idle: float, disk_avail: float,
                now: float) -> None:
        never_heard = self.last_heard[i] == -np.inf
        was_stale = (now - self.last_heard[i]) > self.cfg.suspect_after
        self.last_heard[i] = now
        s = self.cfg.smoothing
        self.cpu_idle[i] = (s * min(1.0, max(0.0, cpu_idle))
                            + (1.0 - s) * self.cpu_idle[i])
        self.disk_avail[i] = (s * min(1.0, max(0.0, disk_avail))
                              + (1.0 - s) * self.disk_avail[i])
        if never_heard:
            self.ok_streak[i] = self.cfg.probation_samples
        else:
            self.ok_streak[i] = 1 if was_stale else self.ok_streak[i] + 1

    def suspect_array(self, now: float) -> np.ndarray:
        stale = (now - self.last_heard) > self.cfg.suspect_after
        return stale | (self.ok_streak < self.cfg.probation_samples)

    def all_healthy(self, now: float) -> bool:
        return bool((~self.dead & ~self.suspect_array(now)).all())


# -- the tick-fed path ---------------------------------------------------------


class Counter:
    def __init__(self) -> None:
        self.busy_time = 0.0


class FakeNode:
    """What the monitor reads of a node: its failure flag and busy
    counters."""

    def __init__(self) -> None:
        self.failed = False
        self.cpu = Counter()
        self.disk = Counter()


class FakeEngine:
    def __init__(self) -> None:
        self.now = 0.0
        self.due = None

    def call_later(self, delay: float, fn) -> None:
        self.due = (self.now + delay, fn)


def tick_ops(n: int):
    node = st.integers(0, n - 1)
    busy = st.sampled_from([0.0, 0.01, 0.05, 0.1, 0.3])
    return st.lists(st.one_of(
        st.tuples(st.just("busy"), node, busy, busy),
        st.tuples(st.just("advance"), delays),
        st.tuples(st.just("crash"), node),
        st.tuples(st.just("recover"), node),
        st.tuples(st.just("dead"), node),
        st.tuples(st.just("alive"), node),
        st.tuples(st.just("reregister"), node),
        st.tuples(st.just("read"))), max_size=60)


@DIFF
@given(data=st.data(), n=st.integers(1, 4), cfg=configs)
def test_tick_fed_table_matches_the_monitor_rules(data, n, cfg):
    engine = FakeEngine()
    nodes = [FakeNode() for _ in range(n)]
    monitor = LoadMonitor(engine, cfg, nodes)
    monitor.start()
    table = monitor.table
    view = LoadView(table, engine, lambda i: 0)
    ref = TickReference(n, cfg)
    for op in data.draw(tick_ops(n)):
        kind = op[0]
        if kind == "busy":
            nodes[op[1]].cpu.busy_time += op[2]
            nodes[op[1]].disk.busy_time += op[3]
        elif kind == "advance":
            until = engine.now + op[1]
            while engine.due[0] <= until:
                engine.now, tick = engine.due
                tick()
                ref.tick(nodes, engine.now)
            engine.now = until
        elif kind == "crash":
            nodes[op[1]].failed = True       # its next probe fails
        elif kind == "recover":
            nodes[op[1]].failed = False
        elif kind == "dead":
            table.set_alive(op[1], False)
            ref.alive[op[1]] = False
        elif kind == "alive":
            table.set_alive(op[1], True)
            ref.alive[op[1]] = True
        elif kind == "reregister":
            monitor.reregister(op[1])
            ref.reregister(op[1], nodes[op[1]], engine.now)
        assert np.array_equal(table.cpu_idle, ref.cpu_idle)
        assert np.array_equal(table.disk_avail, ref.disk_avail)
        assert [view.is_suspect(i) for i in range(n)] == ref.suspect.tolist()
        assert np.array_equal(view.healthy_array(), ref.alive & ~ref.suspect)
        assert view.all_healthy() == ref.all_healthy()
        assert table.alive_count == int(ref.alive.sum())


# -- the heartbeat-fed path ----------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0


def heartbeat_ops(n: int):
    node = st.integers(0, n - 1)
    return st.lists(st.one_of(
        st.tuples(st.just("beat"), node, ratios, ratios),
        st.tuples(st.just("advance"), delays),
        st.tuples(st.just("deadline"), node, st.booleans(),
                  st.none() | node),
        st.tuples(st.just("dead"), node),
        st.tuples(st.just("alive"), node),
        st.tuples(st.just("restart"), node),
        st.tuples(st.just("read"))), max_size=60)


@DIFF
@given(data=st.data(), n=st.integers(1, 4), cfg=configs)
def test_heartbeat_fed_table_matches_the_heartbeat_rules(data, n, cfg):
    clock = FakeClock()
    table = LoadTable(n, cfg, clock=clock)
    receiver = HeartbeatReceiver(table)
    view = LoadView(table, clock, receiver.active_requests)
    ref = HeartbeatReference(n, cfg)
    seq = 0
    for op in data.draw(heartbeat_ops(n)):
        kind = op[0]
        if kind == "beat":
            seq += 1
            assert receiver.observe(op[1], seq, op[2], op[3], 0, clock.now)
            ref.observe(op[1], op[2], op[3], clock.now)
        elif kind == "advance":
            clock.now += op[1]
        elif kind == "deadline" and ref.last_heard[op[1]] > -math.inf:
            # Land on the last instant a node is still trusted, or on the
            # first one it is not; another node may report right then.
            heard = ref.last_heard[op[1]]
            t = heard + cfg.suspect_after
            while t - heard > cfg.suspect_after:
                t = float(np.nextafter(t, -math.inf))
            while np.nextafter(t, math.inf) - heard <= cfg.suspect_after:
                t = float(np.nextafter(t, math.inf))
            if op[2]:
                t = float(np.nextafter(t, math.inf))
            if clock.now < t:
                clock.now = t
                if op[3] is not None:
                    seq += 1
                    receiver.observe(op[3], seq, 0.5, 0.5, 0, t)
                    ref.observe(op[3], 0.5, 0.5, t)
        elif kind == "dead":
            table.set_alive(op[1], False)
            ref.dead[op[1]] = True
        elif kind == "alive":
            table.set_alive(op[1], True)
            ref.dead[op[1]] = False
        elif kind == "restart":
            table.restart_probation(op[1])
            ref.ok_streak[op[1]] = 0
        now = clock.now
        assert np.array_equal(table.cpu_idle, ref.cpu_idle)
        assert np.array_equal(table.disk_avail, ref.disk_avail)
        assert view.all_healthy() == ref.all_healthy(now)
        assert np.array_equal(view.healthy_array(),
                              ~ref.dead & ~ref.suspect_array(now))
        assert np.array_equal(table.suspect_array(now),
                              ref.suspect_array(now))


def test_healthy_reads_do_no_array_work_between_deadlines(monkeypatch):
    """Between heartbeats and before any staleness deadline, a read
    returns the cached flags without re-judging the table."""
    clock = FakeClock()
    cfg = MonitorConfig(period=0.2, suspect_after=1.0, probation_samples=2)
    table = LoadTable(3, cfg, clock=clock)
    receiver = HeartbeatReceiver(table)
    view = LoadView(table, clock, receiver.active_requests)
    for seq in (1, 2):
        clock.now = 0.25 * seq
        for node in range(3):
            receiver.observe(node, seq, 1.0, 1.0, 0, clock.now)
    refreshes = []
    real = LoadTable.refresh
    monkeypatch.setattr(LoadTable, "refresh",
                        lambda self, now: refreshes.append(now)
                        or real(self, now))
    for now in (0.5, 1.0, 1.5):         # every node was last heard at 0.5
        clock.now = now
        assert view.all_healthy()
    assert refreshes == []
    clock.now = float(np.nextafter(1.5, math.inf))
    assert not view.all_healthy()
    assert refreshes == [clock.now]
