"""Tests for the server-process pool and slow-client transfer model."""

import numpy as np
import pytest

from repro.core.policies import FlatPolicy, Policy, Route, make_ms
from repro.sim.cluster import Cluster
from repro.sim.config import ConnectionConfig, SimConfig, paper_sim_config
from repro.workload.generator import generate_trace
from repro.workload.replay import pretrain_sampler, replay
from repro.workload.traces import UCB
from tests.conftest import make_cgi, make_static


class Pin(Policy):
    def __init__(self, num_nodes, target=0):
        super().__init__(num_nodes, range(num_nodes), seed=0)
        self.target = target

    def route(self, request, view):
        return Route(self.target, remote=False)


def one_node_cluster(max_processes=0, client_bandwidth=0.0):
    cfg = paper_sim_config(num_nodes=1, seed=1)
    cfg.connections.max_processes = max_processes
    cfg.connections.client_bandwidth = client_bandwidth
    cfg.memory.static_miss_base = 0.0
    return Cluster(cfg.validate(), Pin(1))


class TestConfig:
    def test_defaults_off(self):
        conn = ConnectionConfig()
        assert not conn.limited
        assert conn.transfer_time(100000) == 0.0

    def test_transfer_time(self):
        conn = ConnectionConfig(client_bandwidth=3600.0)
        assert conn.transfer_time(7200) == pytest.approx(2.0)
        assert conn.transfer_time(0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ConnectionConfig(max_processes=-1).validate()
        with pytest.raises(ValueError):
            ConnectionConfig(client_bandwidth=-1).validate()


class TestProcessPool:
    def test_unlimited_pool_runs_everything_concurrently(self):
        cluster = one_node_cluster(max_processes=0)
        for i in range(5):
            cluster.submit(make_cgi(req_id=i, arrival=0.0, cpu=0.01,
                                    io=0.0, mem_pages=0))
        cluster.run(until=0.001)
        assert cluster.nodes[0].active == 5

    def test_pool_caps_concurrency(self):
        cluster = one_node_cluster(max_processes=2)
        for i in range(5):
            cluster.submit(make_cgi(req_id=i, arrival=0.0, cpu=0.01,
                                    io=0.0, mem_pages=0))
        cluster.run(until=0.001)
        node = cluster.nodes[0]
        assert node.busy_slots == 2
        assert len(node.backlog) == 3

    def test_backlogged_requests_eventually_complete(self):
        cluster = one_node_cluster(max_processes=1)
        for i in range(4):
            cluster.submit(make_static(req_id=i, arrival=0.0, cpu=0.001))
        cluster.run(until=5.0)
        assert len(cluster.metrics) == 4
        # Serialised: responses are staggered by at least the demand.
        finishes = sorted(cluster.metrics.finishes)
        gaps = np.diff(finishes)
        assert (gaps >= 0.001 - 1e-9).all()

    def test_backlog_wait_included_in_response(self):
        cluster = one_node_cluster(max_processes=1)
        cluster.submit(make_cgi(req_id=0, arrival=0.0, cpu=0.1, io=0.0,
                                mem_pages=0))
        cluster.submit(make_static(req_id=1, arrival=0.0, cpu=0.001))
        cluster.run(until=5.0)
        # The static waited for the whole CGI to release the only worker.
        idx = cluster.metrics.kinds.index(0)
        resp = (cluster.metrics.finishes[idx]
                - cluster.metrics.arrivals[idx])
        assert resp > 0.1

    def test_transfer_holds_slot_but_not_metrics(self):
        # 3600 B/s modem; 7168-byte file -> ~2s transfer.
        cluster = one_node_cluster(max_processes=1,
                                   client_bandwidth=3600.0)
        cluster.submit(make_static(req_id=0, arrival=0.0, cpu=0.001,
                                   size=7168))
        cluster.submit(make_static(req_id=1, arrival=0.0, cpu=0.001,
                                   size=7168))
        cluster.run(until=10.0)
        assert len(cluster.metrics) == 2
        resp0, resp1 = [f - a for f, a in zip(cluster.metrics.finishes,
                                              cluster.metrics.arrivals)]
        # First response is processing-only (transfer excluded)...
        assert min(resp0, resp1) < 0.01
        # ...but the second request waited out the first one's transfer.
        assert max(resp0, resp1) > 1.9
        assert cluster.nodes[0].transfers == 2

    def test_failure_drops_backlog_and_restarts(self):
        cfg = paper_sim_config(num_nodes=2, seed=1)
        cfg.connections.max_processes = 1
        cluster = Cluster(cfg.validate(), FlatPolicy(2, seed=2))
        # Saturate node pools so backlogs form.
        reqs = [make_cgi(req_id=i, arrival=0.0, cpu=0.2, io=0.0,
                         mem_pages=0) for i in range(8)]
        cluster.submit_many(reqs)
        cluster.run(until=0.01)
        victim = max(cluster.nodes, key=lambda n: len(n.backlog))
        assert len(victim.backlog) > 0
        restarted = cluster.fail_node(victim.node_id)
        assert restarted >= len(victim.backlog) + 1 - 1  # inflight+queued
        cluster.run(until=30.0)
        assert len(cluster.metrics) == 8

    @staticmethod
    def _crash_while_draining():
        """A 2-slot node that crashes and recovers while a 36 kB response
        drains to a 3600 B/s modem (transfer ends at t ~ 10 s)."""
        cluster = one_node_cluster(max_processes=2,
                                   client_bandwidth=3600.0)
        node = cluster.nodes[0]
        cluster.submit(make_static(req_id=0, arrival=0.0, cpu=0.001,
                                   size=36000))
        cluster.run(until=1.0)
        assert (node.busy_slots, node.transfers) == (1, 1)
        cluster.fail_node(0)
        cluster.recover_node(0)
        return cluster, node

    def test_crash_during_transfer_leaves_no_negative_slots(self):
        cluster, node = self._crash_while_draining()
        cluster.run(until=15.0)
        assert node.busy_slots == 0

    def test_crash_during_transfer_keeps_the_process_cap(self):
        """The transfer from before the crash must not free a worker slot
        after recovery: the crash already reclaimed it."""
        cluster, node = self._crash_while_draining()
        # Four long requests after recovery: two run, two wait.
        for i in range(1, 5):
            cluster.submit(make_static(req_id=i, arrival=2.0, cpu=20.0,
                                       size=0))
        samples = []

        def probe():
            samples.append((node.busy_slots, node.active))
            cluster.engine.call_later(0.5, probe)

        cluster.engine.call_at(1.5, probe)
        cluster.run(until=15.0)
        assert min(slots for slots, _ in samples) >= 0
        assert max(active for _, active in samples) <= 2
        assert (node.busy_slots, node.active, len(node.backlog)) == (2, 2, 2)

    def test_slot_freed_on_node_recovery_path(self):
        cluster = one_node_cluster(max_processes=1)
        cluster.submit(make_static(req_id=0, arrival=0.0, cpu=0.001))
        cluster.run(until=1.0)
        assert cluster.nodes[0].busy_slots == 0


class TestSlowClientsEndToEnd:
    def test_modem_clients_throttle_a_small_pool(self):
        """With modem clients and a small worker pool, throughput is
        transfer-bound; a big pool restores it."""
        trace = generate_trace(UCB, rate=150, duration=4.0, r=1 / 40,
                               seed=3)

        def run(max_processes):
            cfg = paper_sim_config(num_nodes=4, seed=1)
            cfg.connections.max_processes = max_processes
            cfg.connections.client_bandwidth = 3600.0
            result = replay(cfg.validate(), FlatPolicy(4, seed=2), trace,
                            warmup_fraction=0.0, drain=300.0)
            return result.report

        small = run(8)
        large = run(256)
        assert small.overall.mean_response > 2 * large.overall.mean_response
