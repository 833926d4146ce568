"""Deterministic dispatch tests: the simulator's M/S policy driven by a
live heartbeat-fed :class:`LoadTable` instead of the simulated monitor.

These pin down the live master's routing semantics without sockets: the
reservation gate (theta'_2) really closes masters to dynamic work, the
min-RSRC rule really follows the heartbeat telemetry, and suspect nodes
are really excluded.
"""

from __future__ import annotations

import numpy as np

from repro.core.policies import FrontEndMSPolicy
from repro.live.loadd import HeartbeatReceiver
from repro.sim.config import MonitorConfig
from repro.sim.monitor import LoadTable, LoadView

from tests.conftest import make_cgi, make_static


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now


def make_view(idle_by_node, now: float = 1.0):
    """A healthy live LoadView where node i reports ``idle_by_node[i]``
    for both resources (smoothing=1.0 makes heartbeats take effect
    verbatim); returns its heartbeat receiver, the view and the clock."""
    cfg = MonitorConfig(period=0.2, smoothing=1.0, suspect_after=1.0,
                        probation_samples=2)
    clock = FakeClock(now)
    table = LoadTable(len(idle_by_node), cfg, clock=clock)
    receiver = HeartbeatReceiver(table)
    for node, idle in enumerate(idle_by_node):
        receiver.observe(node, 1, idle, idle, 0, now=now - 0.2)
        receiver.observe(node, 2, idle, idle, 0, now=now)
    return receiver, LoadView(table, clock, receiver.active_requests), clock


def make_policy(**kwargs):
    policy = FrontEndMSPolicy(num_nodes=3, num_masters=1, accept_node=0,
                              seed=0, **kwargs)
    policy.trace_decisions = True
    return policy


def test_static_pinned_to_accepting_master():
    _, view, _ = make_view([0.1, 1.0, 1.0])
    policy = make_policy()
    route = policy.route(make_static(req_id=1), view)
    # Statics never leave the front end, however loaded it looks.
    assert route.node_id == 0 and not route.remote


def test_dynamic_follows_min_rsrc_from_heartbeats():
    _, view, _ = make_view([0.2, 0.9, 0.5])
    policy = make_policy()
    route = policy.route(make_cgi(req_id=1), view)
    # RSRC = w/cpu_idle + (1-w)/disk_avail is minimised by node 1.
    assert route.node_id == 1 and route.remote
    w, rsrc, gate, eff_cap, master_frac = policy.last_decision
    assert w == 0.5
    assert np.isclose(rsrc, 0.5 / 0.9 + 0.5 / 0.9)
    assert gate is True          # fraction 0 < theta_init: masters allowed
    assert master_frac == 0.0


def test_closed_reservation_gate_excludes_masters():
    _, view, _ = make_view([1.0, 0.3, 0.3])
    policy = make_policy()
    assert policy.reservation is not None
    # Saturate the running master-admission fraction above the cap.
    for _ in range(200):
        policy.reservation.record_decision(True)
    assert not policy.reservation.admit_to_master()
    for req_id in range(1, 6):
        route = policy.route(make_cgi(req_id=req_id), view)
        # Master 0 advertises the best RSRC but the gate holds it out.
        assert route.node_id in (1, 2)
        gate = policy.last_decision[2]
        assert gate is False


def test_gate_reopens_as_fraction_decays():
    _, view, _ = make_view([1.0, 0.3, 0.3])
    policy = make_policy()
    for _ in range(200):
        policy.reservation.record_decision(True)
    # Slave-side decisions decay the fraction back under the cap.
    for _ in range(200):
        policy.reservation.record_decision(False)
    route = policy.route(make_cgi(req_id=1), view)
    assert route.node_id == 0       # the idlest node is eligible again
    assert policy.last_decision[2] is True


def test_suspect_node_is_avoided():
    receiver, view, clock = make_view([0.5, 1.0, 0.4], now=1.0)
    # Node 1 goes silent; nodes 0 and 2 keep heartbeating.
    clock.now = 3.0
    for seq, t in ((3, 2.8), (4, 3.0)):
        receiver.observe(0, seq, 0.5, 0.5, 0, now=t)
        receiver.observe(2, seq, 0.4, 0.4, 0, now=t)
    assert view.is_suspect(1) and not view.is_suspect(0)
    policy = make_policy()
    for req_id in range(1, 6):
        route = policy.route(make_cgi(req_id=req_id), view)
        assert route.node_id != 1


def test_on_abort_unwinds_outstanding_work():
    _, view, _ = make_view([0.2, 0.9, 0.5])
    policy = make_policy()
    request = make_cgi(req_id=1)
    route = policy.route(request, view)
    assert policy._outstanding_cpu[route.node_id] > 0
    policy.on_abort(request, route.node_id)
    assert policy._outstanding_cpu[route.node_id] == 0
    assert policy._outstanding_disk[route.node_id] == 0
    assert request.req_id not in policy._dispatched_w
