"""Coherence of the dispatch policies' per-role caches and fast paths.

Policies cache the master ids as a plain list, the all-healthy dynamic
candidate array and one immutable local/remote :class:`Route` per node,
and take a fast path when the view reports every node healthy.  These
tests check that the caches follow every role change, that the fast path
is only taken when it is valid, and that it makes exactly the decisions
the general path makes.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.control.actuator import SimAdapter
from repro.control.controller import DEMOTE, PROMOTE, ControlAction
from repro.core.policies import FrontEndMSPolicy, HeteroMSPolicy, make_ms
from repro.live.loadd import HeartbeatReceiver
from repro.sim.cluster import Cluster
from repro.sim.config import MonitorConfig, SimConfig
from repro.sim.monitor import LoadTable, LoadView
from tests.conftest import make_cgi, make_static
from tests.test_policies import FakeView


class HealthyView(FakeView):
    """A :class:`FakeView` with suspect nodes that counts how often the
    policy looks past ``all_healthy``."""

    def __init__(self, num_nodes, suspect=(), **kwargs):
        super().__init__(num_nodes, **kwargs)
        self.suspect = np.zeros(num_nodes, dtype=bool)
        self.suspect[list(suspect)] = True
        self.deep_looks = 0

    def all_healthy(self):
        return bool(self.alive.all()) and not self.suspect.any()

    def healthy_array(self):
        self.deep_looks += 1
        return self.alive & ~self.suspect


class GeneralPathView(HealthyView):
    """Every node is healthy, but ``all_healthy`` never says so: policies
    take the general, per-node filtering path."""

    def all_healthy(self):
        return False


def _requests(n, cgi_every=4):
    return [make_cgi(req_id=i) if i % cgi_every == 0
            else make_static(req_id=i) for i in range(n)]


def _decisions(policy, view, requests):
    return [(r.node_id, r.remote) for r in
            (policy.route(req, view) for req in requests)]


class TestFastPathEquivalence:
    """An all-healthy view takes the fast path; a view whose
    ``all_healthy`` answers False takes the general one.  Same seed, same
    loads: the decisions and the RNG stream must match exactly."""

    @pytest.mark.parametrize("factory", [
        lambda: make_ms(8, 3, seed=4),
        lambda: FrontEndMSPolicy(8, 3, accept_node=1, seed=4),
        lambda: HeteroMSPolicy(8, 3, cpu_speeds=[1, 2, 1, 1, 3, 1, 1, 2],
                               seed=4),
    ])
    def test_same_decisions_as_general_path(self, factory):
        rng = np.random.default_rng(0)
        cpu = rng.uniform(0.2, 1.0, 8).round(1)
        disk = rng.uniform(0.2, 1.0, 8).round(1)
        fast, slow = factory(), factory()
        fast_view = HealthyView(8, cpu_idle=cpu, disk_avail=disk)
        slow_view = GeneralPathView(8, cpu_idle=cpu, disk_avail=disk)
        reqs = _requests(300)
        assert (_decisions(fast, fast_view, reqs)
                == _decisions(slow, slow_view, reqs))
        assert fast_view.deep_looks == 0
        assert slow_view.deep_looks > 0
        # The 0.1-rounded loads tie often: tie draws interleave with the
        # block-drawn accepting-master picks, and both paths must leave
        # the generator in the same state.
        assert (fast.rng.bit_generator.state
                == slow.rng.bit_generator.state)
        assert fast.rng.random() == slow.rng.random()


class TestRoleChanges:
    def test_set_masters_rebuilds_caches(self):
        policy = make_ms(8, 2, seed=1)
        policy.set_masters({5, 1, 6})
        assert policy._master_list == [1, 5, 6]
        assert list(policy._both) == [0, 2, 3, 4, 7, 1, 5, 6]
        view = HealthyView(8)
        accepts = {policy.route(make_static(req_id=i), view).node_id
                   for i in range(200)}
        assert accepts == {1, 5, 6}

    def test_demoted_node_never_accepts(self):
        policy = make_ms(6, 3, seed=2)
        view = HealthyView(6)
        policy.set_masters({1, 2})
        for req in _requests(400):
            route = policy.route(req, view)
            if req.kind == 0:
                assert route.node_id in (1, 2)

    def test_sim_adapter_promote_and_demote(self):
        policy = make_ms(6, 2, seed=3)
        cluster = Cluster(SimConfig(num_nodes=6, seed=3), policy)
        adapter = SimAdapter(cluster)
        assert adapter.apply(ControlAction(PROMOTE, node_id=4))
        assert adapter.apply(ControlAction(DEMOTE, node_id=0))
        assert policy._master_list == [1, 4]
        assert cluster.view.all_healthy()
        accepts = {policy.route(make_static(req_id=i), cluster.view).node_id
                   for i in range(300)}
        assert accepts == {1, 4}
        # Dynamic requests still reach the demoted node as a slave.
        assert 0 in policy._both[:len(policy._slaves)]


class TestUnhealthyMasters:
    def test_suspect_master_is_never_drawn(self):
        policy = make_ms(6, 3, seed=5)
        view = HealthyView(6, suspect=[1])
        accepts = {policy.route(make_static(req_id=i), view).node_id
                   for i in range(300)}
        assert accepts == {0, 2}
        assert view.deep_looks > 0       # the fast path was not taken

    def test_dead_master_is_never_drawn(self):
        policy = make_ms(6, 3, seed=5)
        cluster = Cluster(SimConfig(num_nodes=6, seed=5), policy)
        cluster.fail_node(2)
        assert not cluster.view.all_healthy()
        for req in _requests(300):
            route = policy.route(req, cluster.view)
            assert route.node_id != 2

    def test_suspect_master_in_live_view(self):
        cfg = MonitorConfig(period=0.2, smoothing=1.0, suspect_after=1.0,
                            probation_samples=2)
        class Clock:
            now = 2.0

        table = LoadTable(4, cfg, clock=Clock())
        receiver = HeartbeatReceiver(table)
        for seq in range(1, 11):
            for node in range(4):
                if node != 1 or seq <= 2:     # master 1 goes silent
                    receiver.observe(node, seq, 1.0, 1.0, 0, now=0.2 * seq)

        view = LoadView(table, table.clock, receiver.active_requests)
        assert not view.all_healthy()
        policy = make_ms(4, 2, seed=6)
        accepts = {policy.route(make_static(req_id=i), view).node_id
                   for i in range(100)}
        assert accepts == {0}


class TestSharedRoutes:
    def test_local_routes_are_shared_and_frozen(self):
        policy = make_ms(4, 2, seed=1)
        view = HealthyView(4)
        routes = [policy.route(make_static(req_id=i), view)
                  for i in range(50)]
        by_node = {}
        for route in routes:
            assert by_node.setdefault(route.node_id, route) is route
            assert not route.remote and route.extra_latency == 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            routes[0].node_id = 3

    def test_remote_routes_are_shared_and_frozen(self):
        policy = make_ms(4, 1, seed=1)
        view = HealthyView(4)
        remote = [r for r in (policy.route(make_cgi(req_id=i), view)
                              for i in range(50)) if r.remote]
        assert remote
        assert all(r is policy._remote[r.node_id] for r in remote)
        with pytest.raises(dataclasses.FrozenInstanceError):
            remote[0].remote = False


#: sha256 of the decision sequence of :func:`_live_front_end_decisions`,
#: recorded before the dispatch fast paths were introduced.
LIVE_DECISIONS_SHA = (
    "378621fb93ddccb6c06cfb0e6c5900812961332c881fe665278ab946a60ac3d5")


def _live_front_end_decisions():
    """A FrontEndMSPolicy over a live LoadView whose telemetry drifts,
    with a suspect node for part of the run."""
    cfg = MonitorConfig(period=0.2, smoothing=0.7, suspect_after=1.0,
                        probation_samples=2)
    class Clock:
        now = 0.0

    clock = Clock()
    table = LoadTable(5, cfg, clock=clock)
    receiver = HeartbeatReceiver(table)
    view = LoadView(table, clock, receiver.active_requests)
    policy = FrontEndMSPolicy(5, 2, accept_node=0, seed=11)
    rng = np.random.default_rng(12)
    out = []
    seq = 0
    for step in range(60):
        clock.now = 0.2 * step
        seq += 1
        for node in range(5):
            if node == 3 and 20 <= step < 30:
                continue              # node 3 misses heartbeats: suspect
            receiver.observe(node, seq, float(rng.uniform(0.05, 1.0)),
                             float(rng.uniform(0.05, 1.0)), 0, now=clock.now)
        for j in range(8):
            req_id = step * 8 + j
            req = (make_cgi(req_id=req_id) if j % 2 else
                   make_static(req_id=req_id))
            route = policy.route(req, view)
            out.append((route.node_id, route.remote))
            if j % 3 == 0:
                policy.on_complete(req, 0.01, route.node_id == 0,
                                   route.node_id)
    return out


def test_front_end_over_live_view_decisions_unchanged():
    decisions = _live_front_end_decisions()
    digest = hashlib.sha256(repr(decisions).encode()).hexdigest()
    assert digest == LIVE_DECISIONS_SHA
    assert {node for node, _ in decisions} >= {0, 1, 2, 3, 4}


if __name__ == "__main__":  # pragma: no cover - re-record helper
    print(hashlib.sha256(
        repr(_live_front_end_decisions()).encode()).hexdigest())
