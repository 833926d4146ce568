"""Tests for the end-to-end resilience layer: deadlines, bounded retries,
overload shedding, suspicion-based health, graceful drains, and the
request-conservation invariant under chaos."""

import numpy as np
import pytest

from repro.core.policies import FlatPolicy, make_ms
from repro.sim.cluster import Cluster
from repro.sim.config import paper_sim_config
from repro.sim.failures import (
    CHAOS_SCENARIOS,
    ChaosScenario,
    FailureInjector,
    FailurePolicy,
    RecruitmentSchedule,
)
from repro.sim.resilience import DROP_REASONS, ResilienceConfig
from repro.workload.generator import generate_trace
from repro.workload.traces import UCB
from tests.conftest import make_cgi, make_static


def build(num_nodes=4, masters=2, seed=1, failure_policy=None,
          resilience=None):
    cfg = paper_sim_config(num_nodes=num_nodes, seed=seed)
    policy = make_ms(num_nodes, masters, seed=seed + 1)
    return Cluster(cfg, policy, failure_policy=failure_policy,
                   resilience=resilience)


class TestValidationWiring:
    def test_cluster_init_validates_failure_policy(self):
        cfg = paper_sim_config(num_nodes=2, seed=0)
        with pytest.raises(ValueError, match="detection_delay"):
            Cluster(cfg, FlatPolicy(2),
                    failure_policy=FailurePolicy(detection_delay=-1.0))

    def test_detection_mode_validated(self):
        with pytest.raises(ValueError, match="detection_mode"):
            FailurePolicy(detection_mode="psychic").validate()

    def test_cluster_init_validates_resilience_config(self):
        cfg = paper_sim_config(num_nodes=2, seed=0)
        with pytest.raises(ValueError, match="max_retries"):
            Cluster(cfg, FlatPolicy(2),
                    resilience=ResilienceConfig(max_retries=-1))

    @pytest.mark.parametrize("kwargs", [
        {"deadline_dynamic": 0.0},
        {"backoff_factor": 0.5},
        {"jitter": 1.5},
        {"shed_period": 0.0},
        {"shed_hysteresis": 0.0},
        {"shed_decay": 1.5},
        {"slo_stretch": -1.0},
    ])
    def test_resilience_config_rejects(self, kwargs):
        with pytest.raises(ValueError):
            ResilienceConfig(**kwargs).validate()


class TestDeadlines:
    def test_timeout_aborts_and_drops_after_budget(self):
        # One node, one endless CGI: every attempt times out, and after
        # the retry budget the request is a counted failure, not a zombie.
        cluster = build(num_nodes=1, masters=1,
                        resilience=ResilienceConfig(
                            deadline_dynamic=0.05, max_retries=2,
                            backoff_base=0.01, jitter=0.0,
                            shed_enabled=False))
        cluster.submit(make_cgi(req_id=0, cpu=30.0))
        cluster.run(until=5.0)
        mgr = cluster.resilience
        assert mgr.timeouts == 3          # initial attempt + 2 retries
        assert cluster.metrics.drops == {"timeout": 1}
        assert cluster.nodes[0].active == 0
        cluster.assert_conservation()

    def test_fast_request_beats_deadline(self):
        cluster = build(num_nodes=2, masters=1,
                        resilience=ResilienceConfig(
                            deadline_dynamic=5.0, shed_enabled=False))
        cluster.submit(make_cgi(req_id=0, cpu=0.02))
        cluster.run(until=10.0)
        assert len(cluster.metrics) == 1
        assert cluster.resilience.timeouts == 0
        assert not cluster.resilience._deadline_ev  # timer disarmed
        cluster.assert_conservation()

    def test_timeout_frees_node_resources(self):
        cluster = build(num_nodes=1, masters=1,
                        resilience=ResilienceConfig(
                            deadline_dynamic=0.05, max_retries=0,
                            shed_enabled=False))
        cluster.submit(make_cgi(req_id=0, cpu=30.0))
        cluster.submit(make_cgi(req_id=1, arrival=0.5, cpu=0.01))
        cluster.run(until=5.0)
        # The hog was evicted, so the second request completed.
        assert len(cluster.metrics) == 1
        assert cluster.metrics.demands[0] < 1.0
        cluster.assert_conservation()


class TestRetries:
    def test_crash_restart_counts_against_budget(self):
        cluster = build(num_nodes=4, masters=2,
                        resilience=ResilienceConfig(shed_enabled=False))
        cluster.submit(make_cgi(req_id=0, cpu=0.5))
        cluster.run(until=0.05)
        victim = next(n for n in cluster.nodes if n.active)
        assert cluster.fail_node(victim.node_id) == 1
        cluster.run(until=10.0)
        assert len(cluster.metrics) == 1
        assert cluster.resilience.retries == 1
        cluster.assert_conservation()

    def test_crash_without_restart_is_counted_drop(self):
        cluster = build(num_nodes=4, masters=2,
                        failure_policy=FailurePolicy(restart_inflight=False),
                        resilience=ResilienceConfig(shed_enabled=False))
        cluster.submit(make_cgi(req_id=0, cpu=0.5))
        cluster.run(until=0.05)
        victim = next(n for n in cluster.nodes if n.active)
        cluster.fail_node(victim.node_id)
        cluster.run(until=5.0)
        assert cluster.metrics.drops == {"crash": 1}
        assert cluster.metrics.lost == 0  # accounted, not lost
        cluster.assert_conservation()

    def test_dead_node_denials_retry_with_backoff(self):
        # A failure-unaware front end keeps hitting the dead node; the
        # resilience layer re-routes against the budget instead of looping
        # on the 3-second client timeout forever.
        cfg = paper_sim_config(num_nodes=2, seed=3)
        policy = FlatPolicy(2, seed=4, failure_aware=False)
        cluster = Cluster(cfg, policy,
                          resilience=ResilienceConfig(
                              max_retries=6, backoff_base=0.02,
                              shed_enabled=False, seed=9))
        cluster.fail_node(1)
        reqs = [make_cgi(req_id=i, arrival=0.01 * i, cpu=0.01)
                for i in range(40)]
        cluster.submit_many(reqs)
        cluster.run(until=30.0)
        mgr = cluster.resilience
        assert mgr.retries > 0
        assert len(cluster.metrics) + cluster.metrics.total_dropped == 40
        assert set(cluster.metrics.drops) <= {"dead_node"}
        cluster.assert_conservation()

    def test_drop_reasons_are_canonical(self):
        cluster = build(resilience=ResilienceConfig())
        cluster.submit(make_cgi(req_id=0, cpu=0.01))
        cluster.run(until=5.0)
        assert set(cluster.metrics.drops) <= set(DROP_REASONS)


class TestShedding:
    def make_overloaded(self):
        res = ResilienceConfig(shed_backlog=2.0, shed_stretch=1e9,
                               shed_period=0.05, shed_hysteresis=0.9,
                               jitter=0.0)
        cluster = build(num_nodes=2, masters=1, resilience=res)
        # Far more slow CGI than 2 nodes can absorb.
        reqs = [make_cgi(req_id=i, arrival=0.001 * i, cpu=0.5)
                for i in range(60)]
        cluster.submit_many(reqs)
        return cluster

    def test_escalates_to_shedding_and_tightens_cap(self):
        cluster = self.make_overloaded()
        cluster.run(until=1.0)
        mgr = cluster.resilience
        assert mgr.shed_level == 2
        assert cluster.metrics.drops.get("shed", 0) > 0
        assert cluster.policy.reservation.cap_scale == 0.0
        assert not cluster.policy.reservation.admit_to_master()

    def test_deescalates_after_drain(self):
        cluster = self.make_overloaded()
        cluster.run(until=120.0)
        mgr = cluster.resilience
        assert mgr.shed_level == 0
        assert cluster.policy.reservation.cap_scale == 1.0
        assert mgr.shed_transitions >= 2
        assert len(cluster.metrics) + cluster.metrics.total_dropped == 60
        cluster.assert_conservation()

    def test_static_not_shed(self):
        res = ResilienceConfig(shed_backlog=0.5, shed_period=0.05)
        cluster = build(num_nodes=2, masters=1, resilience=res)
        reqs = [make_cgi(req_id=i, arrival=0.02 * i, cpu=0.5)
                for i in range(40)]
        reqs += [make_static(req_id=100 + i, arrival=0.5 + 0.01 * i)
                 for i in range(20)]
        cluster.submit_many(reqs)
        cluster.run(until=60.0)
        mgr = cluster.resilience
        assert cluster.metrics.drops.get("shed", 0) > 0
        # All statics completed: shedding only gates dynamic admissions.
        static_done = sum(1 for d in cluster.metrics.demands if d < 0.01)
        assert static_done == 20


class TestSuspicion:
    def test_crash_marks_suspect_before_detection(self):
        fp = FailurePolicy(detection_mode="monitor", detection_delay=5.0)
        cluster = build(num_nodes=4, masters=2, failure_policy=fp)
        cluster.run(until=0.5)
        cluster.fail_node(3)
        assert bool(cluster.alive[3])  # not yet formally detected
        cluster.run(until=1.0)         # a couple of monitor ticks
        assert bool(cluster.table.suspect[3])
        assert not cluster.view.all_healthy()
        assert not cluster.view.healthy_array()[3]
        assert cluster.view.is_suspect(3)
        cluster.run(until=6.0)
        assert not cluster.alive[3]    # detection flipped membership

    def test_policies_avoid_suspect_nodes(self):
        fp = FailurePolicy(detection_mode="monitor", detection_delay=30.0)
        cluster = build(num_nodes=4, masters=2, failure_policy=fp,
                        resilience=ResilienceConfig(shed_enabled=False))
        cluster.run(until=0.5)
        cluster.fail_node(3)
        cluster.run(until=1.0)  # suspicion raised, detection far away
        admitted_before = cluster.nodes[3].admitted
        reqs = [make_cgi(req_id=i, arrival=1.0 + 0.01 * i, cpu=0.01)
                for i in range(50)]
        cluster.submit_many(reqs)
        cluster.run(until=20.0)
        assert cluster.nodes[3].admitted == admitted_before
        assert len(cluster.metrics) == 50
        cluster.assert_conservation()

    def test_recovered_node_passes_probation(self):
        cluster = build(num_nodes=4, masters=2)
        period = cluster.cfg.monitor.period
        cluster.run(until=0.5)
        cluster.fail_node(3)
        cluster.run(until=1.0)
        assert bool(cluster.table.suspect[3])
        cluster.recover_node(3)
        cluster.run(until=1.0 + period)
        assert bool(cluster.table.suspect[3])     # still on probation
        cluster.run(until=1.0 + 4 * period)
        assert not cluster.table.suspect[3]       # trusted again
        assert not cluster.table.suspect.any()

    def test_all_suspect_falls_back_to_alive(self):
        # Suspicion must degrade to the alive set, never to "no service".
        fp = FailurePolicy(detection_mode="monitor", detection_delay=60.0)
        cluster = build(num_nodes=2, masters=1, failure_policy=fp,
                        resilience=ResilienceConfig(max_retries=10,
                                                    shed_enabled=False))
        cluster.run(until=0.5)
        cluster.fail_node(1)  # the only slave; master stays healthy
        cluster.run(until=1.0)
        cluster.submit(make_cgi(req_id=0, arrival=1.0, cpu=0.01))
        cluster.run(until=10.0)
        assert len(cluster.metrics) == 1


class TestGracefulDrain:
    def test_drain_finishes_inflight_then_retires(self):
        cluster = build(num_nodes=4, masters=2)
        cluster.submit(make_cgi(req_id=0, cpu=0.3))
        cluster.run(until=0.05)
        victim = next(n for n in cluster.nodes if n.active)
        draining = cluster.drain_node(victim.node_id)
        assert draining == 1
        assert not cluster.alive[victim.node_id]
        assert not victim.failed          # still finishing its work
        cluster.run(until=10.0)
        assert len(cluster.metrics) == 1  # the in-flight request completed
        assert cluster.metrics.nodes[0] == victim.node_id
        assert victim.failed              # now retired
        assert cluster.restarted_requests == 0

    def test_drain_idle_node_retires_immediately(self):
        cluster = build()
        assert cluster.drain_node(3) == 0
        assert cluster.nodes[3].failed
        assert not cluster.alive[3]

    def test_drain_is_idempotent_and_recoverable(self):
        cluster = build()
        cluster.drain_node(3)
        assert cluster.drain_node(3) == 0
        cluster.recover_node(3)
        assert cluster.alive[3]
        assert not cluster.nodes[3].failed

    def test_recruitment_leave_graceful_vs_eviction(self):
        for graceful in (False, True):
            cluster = build(num_nodes=6, masters=2, seed=11)
            sched = RecruitmentSchedule(cluster, pool=[5])
            sched.join(5, at=0.0)
            sched.leave(5, at=1.0, graceful=graceful)
            reqs = [make_cgi(req_id=i, arrival=0.02 * i, cpu=0.3)
                    for i in range(40)]
            cluster.submit_many(reqs)
            cluster.run(until=60.0)
            assert len(cluster.metrics) == 40
            assert not cluster.alive[5]
            if graceful:
                # Nothing was aborted: every request ran exactly once.
                assert cluster.restarted_requests == 0
            else:
                assert cluster.nodes[5].failures == 1

    def test_unavailability_accounts_drain_and_crash(self):
        cluster = build()
        cluster.fail_node(2)
        cluster.drain_node(3)
        cluster.run(until=10.0)
        unavail = cluster.unavailability()
        assert unavail[2] == pytest.approx(1.0)
        assert unavail[3] == pytest.approx(1.0)
        assert unavail[0] == 0.0


class TestConservation:
    @pytest.mark.integration
    def test_conservation_under_random_crashes(self):
        # Satellite: every submitted request is accounted for (completed,
        # dropped-with-reason, or in flight) under a seeded crash storm.
        trace = generate_trace(UCB, rate=300.0, duration=10.0, seed=21)
        for res in (None, ResilienceConfig(deadline_dynamic=5.0, seed=2)):
            cluster = build(num_nodes=8, masters=2, seed=5, resilience=res)
            injector = FailureInjector(cluster)
            n = injector.random_crashes(
                rate=0.4, horizon=10.0, mttr=3.0,
                rng=np.random.default_rng(77),
                nodes=range(2, 8))
            assert n > 0
            cluster.submit_many(trace)
            deadline = 40.0
            cluster.run(until=deadline)
            while (any(node.active for node in cluster.nodes)
                   or cluster.pending_requests()):
                deadline += 20.0
                cluster.run(until=deadline)
                assert deadline < 500.0
            ledger = cluster.conservation()
            assert ledger["balance"] == 0
            assert ledger["in_flight"] == 0 and ledger["pending"] == 0
            dropped = cluster.metrics.total_dropped
            assert len(cluster.metrics) + dropped == len(trace)
            cluster.assert_conservation()

    def test_conservation_mid_run(self):
        # The ledger balances at any instant, not just at the end.
        cluster = build(resilience=ResilienceConfig())
        trace = generate_trace(UCB, rate=200.0, duration=2.0, seed=8)
        cluster.submit_many(trace)
        for t in (0.5, 1.0, 1.7, 2.5, 30.0):
            cluster.run(until=t)
            cluster.assert_conservation()

    def test_baseline_crash_without_restart_counts_lost(self):
        cluster = build(num_nodes=4, masters=2,
                        failure_policy=FailurePolicy(restart_inflight=False))
        cluster.submit(make_cgi(req_id=0, cpu=0.5))
        cluster.run(until=0.05)
        victim = next(n for n in cluster.nodes if n.active)
        cluster.fail_node(victim.node_id)
        cluster.run(until=5.0)
        assert cluster.metrics.lost == 1
        cluster.assert_conservation()


class TestAvailabilityReport:
    def test_report_fields_consistent(self):
        cluster = build(num_nodes=4, masters=2,
                        resilience=ResilienceConfig(slo_stretch=20.0))
        trace = generate_trace(UCB, rate=150.0, duration=3.0, seed=13)
        cluster.submit_many(trace)
        cluster.run(until=30.0)
        avail = cluster.availability()
        assert avail.submitted == len(trace)
        assert avail.completed == len(cluster.metrics)
        assert avail.good + avail.slo_violations == avail.completed
        assert avail.balance == 0
        assert avail.goodput == pytest.approx(
            avail.good / cluster.engine.now)
        assert avail.unavailability.shape == (4,)
        assert 0.0 <= avail.drop_rate <= 1.0

    def test_probe_tracks_resilience_series(self):
        from repro.sim.probe import ClusterProbe
        cluster = build(num_nodes=4, masters=2,
                        resilience=ResilienceConfig())
        probe = ClusterProbe(cluster, period=0.1).start()
        cluster.submit(make_cgi(req_id=0, cpu=0.05))
        cluster.fail_node(3)
        cluster.run(until=2.0)
        alive = probe.series("alive")
        suspect = probe.series("suspect")
        assert alive.shape == suspect.shape
        assert (alive[:, 3] == 0.0).all()
        assert suspect[:, 3].any()
        assert probe.scalar_series("dropped").shape == (len(probe.times),)
        with pytest.raises(KeyError):
            probe.scalar_series("nope")


class TestChaosScenarios:
    def test_registry_entries_validate(self):
        for name, scenario in CHAOS_SCENARIOS.items():
            assert scenario.name == name
            scenario.validate()

    def test_scenario_validation_rejects(self):
        with pytest.raises(ValueError):
            ChaosScenario(name="x", crash_rate=-1.0).validate()
        with pytest.raises(ValueError):
            ChaosScenario(name="x", churn_fraction=0.5).validate()
        with pytest.raises(ValueError):
            ChaosScenario(name="x", burst_factor=0.5).validate()

    def test_apply_is_deterministic(self):
        scheduled = []
        for _ in range(2):
            cluster = build(num_nodes=6, masters=2, seed=4)
            inj = CHAOS_SCENARIOS["crash-storm"].apply(
                cluster, horizon=30.0, rng=np.random.default_rng(5))
            scheduled.append(list(inj.scheduled))
        assert scheduled[0] == scheduled[1]
        assert scheduled[0]

    def test_burst_window(self):
        start, end = CHAOS_SCENARIOS["overload-burst"].burst_window(100.0)
        assert (start, end) == (30.0, 60.0)

    @pytest.mark.integration
    def test_churn_scenario_conserves_requests(self):
        scenario = CHAOS_SCENARIOS["recruitment-churn"]
        cluster = build(num_nodes=6, masters=2, seed=6,
                        resilience=ResilienceConfig(seed=3))
        scenario.apply(cluster, horizon=50.0,
                       rng=np.random.default_rng(11))
        trace = generate_trace(UCB, rate=200.0, duration=50.0, seed=19)
        cluster.submit_many(trace)
        cluster.run(until=200.0)
        cluster.assert_conservation()
        ledger = cluster.conservation()
        assert ledger["in_flight"] == 0 and ledger["pending"] == 0
        assert ledger["completed"] + ledger["dropped"] == len(trace)
