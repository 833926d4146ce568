"""Unit tests for the dispatch policies."""

import numpy as np
import pytest

from repro.core.policies import (
    DNSAffinityPolicy,
    FlatPolicy,
    LeastActivePolicy,
    MSPolicy,
    MSPrimePolicy,
    RedirectMSPolicy,
    RoundRobinPolicy,
    make_ms,
    make_ms_1,
    make_ms_ns,
    make_ms_nr,
    make_policy,
)
from repro.core.sampling import DemandSampler
from tests.conftest import make_cgi, make_static


class FakeView:
    """Deterministic load view for policy unit tests."""

    def __init__(self, num_nodes, cpu_idle=None, disk_avail=None, now=0.0,
                 alive=None):
        self.num_nodes = num_nodes
        self.now = now
        self._cpu = np.array(cpu_idle if cpu_idle is not None
                             else [1.0] * num_nodes)
        self._disk = np.array(disk_avail if disk_avail is not None
                              else [1.0] * num_nodes)
        self.active = [0] * num_nodes
        self.alive = np.array(alive if alive is not None
                              else [True] * num_nodes, dtype=bool)

    def cpu_idle_array(self):
        return self._cpu

    def disk_avail_array(self):
        return self._disk

    def active_requests(self, i):
        return self.active[i]

    def is_alive(self, i):
        return bool(self.alive[i])

    def alive_array(self):
        return self.alive

    def healthy_array(self):
        return self.alive

    def all_healthy(self):
        return bool(self.alive.all())


class TestBaselines:
    def test_flat_routes_uniformly(self):
        policy = FlatPolicy(4, seed=0)
        view = FakeView(4)
        nodes = [policy.route(make_static(req_id=i), view).node_id
                 for i in range(400)]
        counts = np.bincount(nodes, minlength=4)
        assert (counts > 60).all()
        assert not any(policy.route(make_cgi(req_id=i), view).remote
                       for i in range(10))

    def test_round_robin_cycles(self):
        policy = RoundRobinPolicy(3)
        view = FakeView(3)
        nodes = [policy.route(make_static(req_id=i), view).node_id
                 for i in range(6)]
        assert nodes == [0, 1, 2, 0, 1, 2]

    def test_least_active_prefers_empty(self):
        policy = LeastActivePolicy(3, seed=0)
        view = FakeView(3)
        view.active = [5, 0, 2]
        assert policy.route(make_static(), view).node_id == 1

    def test_every_node_is_master_in_flat(self):
        policy = FlatPolicy(4)
        assert all(policy.is_master(i) for i in range(4))


class TestMSPolicy:
    def test_static_goes_to_masters_only(self):
        policy = make_ms(8, 3, seed=1)
        view = FakeView(8)
        for i in range(100):
            route = policy.route(make_static(req_id=i), view)
            assert route.node_id < 3
            assert not route.remote

    def test_dynamic_prefers_idle_slave(self):
        policy = make_ms_nr(8, 2, seed=1)
        cpu = np.ones(8)
        cpu[5] = 1.0
        cpu[:5] = 0.3
        cpu[6:] = 0.3
        view = FakeView(8, cpu_idle=cpu)
        route = policy.route(make_cgi(req_id=0), view)
        assert route.node_id == 5

    def test_reservation_gate_blocks_masters(self):
        policy = make_ms(8, 3, seed=1)
        policy.reservation.theta_cap = 0.0
        view = FakeView(8)
        for i in range(50):
            route = policy.route(make_cgi(req_id=i), view)
            assert route.node_id >= 3  # slaves only

    def test_no_reservation_allows_masters(self):
        policy = make_ms_nr(8, 3, seed=1)
        # Make masters look far idler than slaves.
        cpu = np.concatenate([np.ones(3), np.full(5, 0.05)])
        view = FakeView(8, cpu_idle=cpu)
        nodes = {policy.route(make_cgi(req_id=i), view).node_id
                 for i in range(20)}
        assert any(n < 3 for n in nodes)

    def test_ms1_all_masters_no_remote_escape(self):
        policy = make_ms_1(8, seed=1)
        view = FakeView(8)
        route = policy.route(make_cgi(req_id=0), view)
        assert 0 <= route.node_id < 8
        assert policy.num_masters == 8

    def test_remote_flag_set_when_exec_differs_from_accept(self):
        policy = make_ms(8, 1, seed=1)  # single master accepts everything
        policy.reservation.theta_cap = 0.0
        view = FakeView(8)
        route = policy.route(make_cgi(req_id=0), view)
        assert route.node_id != 0
        assert route.remote

    def test_sampler_weight_used(self):
        sampler = DemandSampler()
        sampler.observe("cgi:catalog", cpu_time=0.01, io_time=0.09)
        policy = make_ms_nr(4, 1, sampler=sampler, seed=1)
        # Node 2: great disk, bad cpu.  Node 3: great cpu, bad disk.
        cpu = np.array([1.0, 1.0, 0.1, 0.9])
        disk = np.array([0.1, 0.1, 0.9, 0.1])
        view = FakeView(4, cpu_idle=cpu, disk_avail=disk)
        route = policy.route(
            make_cgi(req_id=0, type_key="cgi:catalog"), view)
        assert route.node_id == 2  # io-bound job follows the disk

    def test_ns_variant_ignores_sampler(self):
        policy = make_ms_ns(4, 1, seed=1)
        assert policy.sampler is None
        assert policy.default_w == pytest.approx(0.5)

    def test_outstanding_bookkeeping(self):
        policy = make_ms_nr(4, 1, seed=1)
        view = FakeView(4)
        req = make_cgi(req_id=7)
        route = policy.route(req, view)
        assert sum(policy._outstanding_cpu) > 0
        policy.on_complete(req, 0.05, False, route.node_id)
        assert sum(policy._outstanding_cpu) == pytest.approx(0.0)
        assert sum(policy._outstanding_disk) == pytest.approx(0.0)

    def test_outstanding_spreads_consecutive_dispatches(self):
        policy = make_ms(4, 1, seed=1)
        policy.reservation.theta_cap = 0.0  # masters excluded
        view = FakeView(4)  # all equally idle, stale between updates
        nodes = [policy.route(make_cgi(req_id=i), view).node_id
                 for i in range(9)]
        counts = np.bincount(nodes, minlength=4)
        # Slaves are 1..3; 9 jobs over 3 slaves should spread 3/3/3.
        assert counts[0] == 0
        assert counts[1:].max() == 3

    def test_reservation_observes_completions(self):
        policy = make_ms(8, 3, seed=1)
        view = FakeView(8)
        req = make_cgi(req_id=0)
        route = policy.route(req, view)
        policy.on_complete(req, 0.05, policy.is_master(route.node_id),
                           route.node_id)
        assert policy.tuner._resp_dynamic is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            MSPolicy(4, 0)
        with pytest.raises(ValueError):
            MSPolicy(4, 5)

    def test_bad_default_w(self):
        with pytest.raises(ValueError):
            MSPolicy(4, 1, default_w=2.0)

    def test_unsampled_family_falls_back_to_policy_w(self):
        """The sampler holds no fallback of its own: an unseen family
        gets the policy's ``default_w``, the one a SET_W action writes."""
        policy = make_ms(4, 1, DemandSampler(), seed=1)
        policy.trace_decisions = True
        policy.default_w = 0.9
        policy.route(make_cgi(req_id=0, type_key="cgi:unseen"), FakeView(4))
        assert policy.last_decision[0] == 0.9


class TestMSPrime:
    def test_static_spreads_everywhere(self):
        policy = MSPrimePolicy(8, 2, seed=0)
        view = FakeView(8)
        nodes = {policy.route(make_static(req_id=i), view).node_id
                 for i in range(200)}
        assert len(nodes) == 8

    def test_dynamic_pinned_to_subset(self):
        policy = MSPrimePolicy(8, 2, seed=0)
        view = FakeView(8)
        for i in range(50):
            route = policy.route(make_cgi(req_id=i), view)
            assert route.node_id < 2

    def test_validation(self):
        with pytest.raises(ValueError):
            MSPrimePolicy(8, 0)

    def test_is_ms_1_with_a_dynamic_subset(self):
        policy = MSPrimePolicy(8, 3, seed=0)
        assert isinstance(policy, MSPolicy)
        assert policy.num_masters == 8
        assert policy.reservation is None

    def test_dynamic_falls_back_to_any_alive_node(self):
        policy = MSPrimePolicy(6, 2, seed=0)
        view = FakeView(6, alive=[False, False, True, True, True, True])
        nodes = {policy.route(make_cgi(req_id=i), view).node_id
                 for i in range(50)}
        assert nodes and nodes <= {2, 3, 4, 5}

    def test_completion_releases_work_without_refining_w(self):
        sampler = DemandSampler()
        sampler.observe("cgi:spin", 0.03, 0.01)
        policy = MSPrimePolicy(4, 2, sampler, seed=0)
        view = FakeView(4)
        req = make_cgi(req_id=0, cpu=0.001, io=0.1)
        route = policy.route(req, view)
        assert policy._outstanding_cpu[route.node_id] == 0.75
        policy.on_complete(req, 0.2, True, route.node_id)
        assert not any(policy._outstanding_cpu)
        assert not any(policy._outstanding_disk)
        assert sampler.w("cgi:spin") == 0.75

    def test_abort_releases_work(self):
        policy = MSPrimePolicy(4, 2, seed=0)
        req = make_cgi(req_id=0)
        route = policy.route(req, FakeView(4))
        policy.on_abort(req, route.node_id)
        assert not any(policy._outstanding_cpu)
        assert not policy._dispatched_w


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("MS", MSPolicy), ("ms-ns", MSPolicy), ("MS-nr", MSPolicy),
        ("ms-1", MSPolicy), ("flat", FlatPolicy),
        ("msprime", MSPrimePolicy), ("roundrobin", RoundRobinPolicy),
        ("leastactive", LeastActivePolicy),
        ("redirect", RedirectMSPolicy), ("dns", DNSAffinityPolicy),
    ])
    def test_make_policy(self, name, cls):
        policy = make_policy(name, 8, 2)
        assert isinstance(policy, cls)
        assert policy.num_nodes == 8

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("banana", 8)

    def test_variant_flags(self):
        assert make_ms(8, 2).use_sampling
        assert make_ms(8, 2).use_reservation
        assert not make_ms_ns(8, 2).use_sampling
        assert not make_ms_nr(8, 2).use_reservation
        assert make_ms_1(8).num_masters == 8
        assert not make_ms_1(8).use_reservation  # no slaves to protect


class TestSetMasters:
    """Mid-run role reconfiguration (the control plane's actuation)."""

    def test_swaps_role_arrays(self):
        policy = make_ms(8, 2, seed=1)
        policy.set_masters({0, 1, 4})
        assert policy.master_ids == frozenset({0, 1, 4})
        assert policy.num_masters == 3
        assert list(policy._masters) == [0, 1, 4]
        assert list(policy._slaves) == [2, 3, 5, 6, 7]

    def test_reservation_m_follows(self):
        policy = make_ms(8, 2, seed=1)
        assert policy.tuner.m == 2
        policy.set_masters({0, 1, 2, 3})
        assert policy.tuner.m == 4

    def test_empty_set_rejected(self):
        policy = make_ms(8, 2)
        with pytest.raises(ValueError, match="at least one master"):
            policy.set_masters(set())

    def test_out_of_range_rejected(self):
        policy = make_ms(8, 2)
        with pytest.raises(ValueError, match="out of range"):
            policy.set_masters({0, 8})

    def test_front_end_keeps_accept_node(self):
        from repro.core.policies import FrontEndMSPolicy

        policy = FrontEndMSPolicy(8, 2, accept_node=0, seed=1)
        with pytest.raises(ValueError, match="must remain a master"):
            policy.set_masters({1, 2})
        policy.set_masters({0, 2})      # keeping the front end is fine
        assert policy.master_ids == frozenset({0, 2})

    def test_front_end_statics_draw_nothing(self):
        from repro.core.policies import FrontEndMSPolicy

        policy = FrontEndMSPolicy(8, 3, accept_node=2, seed=1)
        before = policy.rng.bit_generator.state
        view = FakeView(8)
        for i in range(20):
            route = policy.route(make_static(req_id=i), view)
            assert route.node_id == 2 and not route.remote
        assert policy.rng.bit_generator.state == before

    def test_hetero_reweights_static_dispatch(self):
        from repro.core.policies import HeteroMSPolicy

        speeds = [4.0, 1.0, 3.0, 1.0]
        policy = HeteroMSPolicy(4, 2, cpu_speeds=speeds, seed=1)
        policy.set_masters({1, 2})
        view = FakeView(4)
        accepts = np.bincount(
            [policy.route(make_static(req_id=i), view).node_id
             for i in range(2000)], minlength=4)
        # Only the new masters accept, split 1:3 by their CPU speeds.
        assert accepts[0] == accepts[3] == 0
        assert accepts[2] / accepts.sum() == pytest.approx(0.75, abs=0.04)

    def test_routing_uses_new_masters(self):
        policy = make_ms(4, 1, seed=1)
        view = FakeView(4)
        policy.set_masters({3})
        for i in range(10):
            route = policy.route(make_static(req_id=i), view)
            assert route.node_id == 3
