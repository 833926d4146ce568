"""Unit tests for cluster assembly, routing, and background jobs."""

import pytest

from repro.core.policies import FlatPolicy, Policy, Route, make_ms
from repro.sim.cluster import Cluster
from repro.sim.config import paper_sim_config
from tests.conftest import make_cgi, make_static


class PinPolicy(Policy):
    """Test policy: pins every request to a fixed node."""

    def __init__(self, num_nodes, target, remote=False):
        super().__init__(num_nodes, range(num_nodes), seed=0)
        self.target = target
        self.remote = remote
        self.completions = []

    def route(self, request, view):
        return Route(self.target, remote=self.remote)

    def on_complete(self, request, response_time, on_master, node_id):
        self.completions.append((request.req_id, response_time, node_id))


class TestRouting:
    def test_requests_land_on_routed_node(self, small_config):
        cluster = Cluster(small_config, PinPolicy(4, target=2))
        cluster.submit(make_static(req_id=0, arrival=0.0))
        cluster.run(until=1.0)
        assert cluster.nodes[2].completed == 1
        assert all(n.completed == 0 for i, n in enumerate(cluster.nodes)
                   if i != 2)

    def test_remote_route_adds_latency(self, small_config):
        local = Cluster(small_config, PinPolicy(4, target=1, remote=False))
        local.submit(make_cgi(req_id=0, arrival=0.0, mem_pages=0))
        local.run(until=2.0)

        remote = Cluster(small_config, PinPolicy(4, target=1, remote=True))
        remote.submit(make_cgi(req_id=0, arrival=0.0, mem_pages=0))
        remote.run(until=2.0)

        t_local = local.policy.completions[0][1]
        t_remote = remote.policy.completions[0][1]
        assert t_remote == pytest.approx(
            t_local + small_config.network.remote_cgi_latency)

    def test_invalid_route_raises(self, small_config):
        cluster = Cluster(small_config, PinPolicy(4, target=9))
        cluster.submit(make_static(req_id=0, arrival=0.0))
        with pytest.raises(ValueError, match="invalid node"):
            cluster.run(until=1.0)

    def test_policy_size_mismatch_rejected(self, small_config):
        with pytest.raises(ValueError, match="sized for"):
            Cluster(small_config, FlatPolicy(8))

    def test_completion_feedback_reaches_policy(self, small_config):
        policy = PinPolicy(4, target=0)
        cluster = Cluster(small_config, policy)
        cluster.submit(make_static(req_id=5, arrival=0.0))
        cluster.run(until=1.0)
        assert len(policy.completions) == 1
        req_id, resp, node_id = policy.completions[0]
        assert req_id == 5 and node_id == 0 and resp > 0


class TestMetricsIntegration:
    def test_all_submitted_complete_under_light_load(self, small_config):
        cluster = Cluster(small_config, FlatPolicy(4, seed=1))
        reqs = [make_static(req_id=i, arrival=0.01 * i) for i in range(50)]
        assert cluster.submit_many(reqs) == 50
        cluster.run(until=5.0)
        assert len(cluster.metrics) == 50

    def test_replay_returns_report(self, small_config):
        cluster = Cluster(small_config, FlatPolicy(4, seed=1))
        reqs = [make_static(req_id=i, arrival=0.01 * i) for i in range(50)]
        report = cluster.replay(reqs)
        assert report.completed == 50
        assert report.overall.stretch >= 1.0

    def test_replay_empty_trace_rejected(self, small_config):
        cluster = Cluster(small_config, FlatPolicy(4, seed=1))
        with pytest.raises(ValueError):
            cluster.replay([])


class TestReplayDriver:
    """``Cluster.replay`` is the one submit/run/extend loop."""

    def test_extends_while_arrivals_pending_on_idle_nodes(self,
                                                          small_config):
        # The drain starts at t=0 while one arrival is still due at t=10:
        # every node is idle at each deadline, yet the run must go on.
        cluster = Cluster(small_config, FlatPolicy(4, seed=1))
        reqs = [make_static(req_id=i, arrival=0.01 * i) for i in range(5)]
        reqs.append(make_static(req_id=5, arrival=10.0))
        report = cluster.replay(reqs, drain=1.0, end=0.0)
        assert report.completed == 6
        assert cluster.pending_requests() == 0

    def test_early_finish_stops_at_end_plus_drain(self, small_config):
        cluster = Cluster(small_config, FlatPolicy(4, seed=1))
        reqs = [make_static(req_id=i, arrival=0.01 * i) for i in range(50)]
        report = cluster.replay(reqs, drain=2.0, end=5.0)
        assert report.completed == 50
        assert cluster.engine.now == 7.0

    def test_accepts_one_shot_iterable(self, small_config):
        cluster = Cluster(small_config, FlatPolicy(4, seed=1))
        reqs = (make_static(req_id=i, arrival=0.01 * i) for i in range(20))
        report = cluster.replay(reqs, drain=2.0)
        assert report.completed == 20
        assert cluster.engine.now == 0.01 * 19 + 2.0


class TestBackgroundJobs:
    def test_background_excluded_from_metrics(self, small_config):
        cluster = Cluster(small_config, FlatPolicy(4, seed=1))
        cluster.admit_background(make_cgi(req_id=100, arrival=0.0), 0)
        cluster.submit(make_static(req_id=0, arrival=0.0))
        cluster.run(until=5.0)
        assert len(cluster.metrics) == 1
        assert cluster.background_completed == 1

    def test_background_consumes_resources(self, small_config):
        cluster = Cluster(small_config, FlatPolicy(4, seed=1))
        cluster.admit_background(
            make_cgi(req_id=100, arrival=0.0, cpu=0.5, io=0.0,
                     mem_pages=0), 3)
        cluster.run(until=1.0)
        assert cluster.nodes[3].cpu.busy_time > 0.4

    def test_background_invalid_node_rejected(self, small_config):
        cluster = Cluster(small_config, FlatPolicy(4, seed=1))
        with pytest.raises(ValueError):
            cluster.admit_background(make_cgi(req_id=1), 17)


class TestView:
    def test_view_exposes_monitor_arrays(self, small_config):
        cluster = Cluster(small_config, FlatPolicy(4, seed=1))
        assert cluster.view.num_nodes == 4
        assert cluster.view.cpu_idle_array()[0] == pytest.approx(1.0)
        assert cluster.view.disk_avail_array()[3] == pytest.approx(1.0)
        assert cluster.view.cpu_idle_array().shape == (4,)

    def test_view_active_requests(self, small_config):
        cluster = Cluster(small_config, PinPolicy(4, target=1))
        cluster.submit(make_cgi(req_id=0, arrival=0.0, cpu=0.5))
        cluster.run(until=0.01)
        assert cluster.view.active_requests(1) == 1
        assert cluster.view.active_requests(0) == 0

    def test_deterministic_replay(self, small_config):
        def run():
            cluster = Cluster(paper_sim_config(num_nodes=4, seed=7),
                              make_ms(4, 2, seed=3))
            reqs = ([make_static(req_id=i, arrival=0.002 * i)
                     for i in range(100)]
                    + [make_cgi(req_id=100 + i, arrival=0.01 * i)
                       for i in range(20)])
            return cluster.replay(reqs)

        r1, r2 = run(), run()
        assert r1.overall.stretch == r2.overall.stretch
        assert r1.remote_dispatches == r2.remote_dispatches
