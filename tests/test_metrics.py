"""Unit tests for metrics collection and reporting."""

import math

import pytest

from repro.sim.metrics import MetricsCollector
from tests.conftest import make_cgi, make_static


def record_finished(mc, req, finish, remote, on_master, node=0):
    """Record ``req`` as completed at ``finish`` with its nominal split."""
    mc.record(req, req.arrival_time, finish, node, remote, on_master)


class TestCollector:
    def test_record_and_report(self):
        mc = MetricsCollector()
        req = make_static(req_id=0, arrival=0.0, cpu=0.001)
        record_finished(mc, req, 0.002, remote=False, on_master=True)
        report = mc.report()
        assert report.completed == 1
        assert report.overall.stretch == pytest.approx(2.0)
        assert report.static.count == 1
        assert report.dynamic.count == 0

    def test_per_class_split(self):
        mc = MetricsCollector()
        s = make_static(req_id=0, arrival=0.0, cpu=0.001)
        d = make_cgi(req_id=1, arrival=0.0, cpu=0.01, io=0.01)
        record_finished(mc, s, 0.002, remote=False, on_master=True)
        record_finished(mc, d, 0.06, remote=True, on_master=False)
        rep = mc.report()
        assert rep.static.stretch == pytest.approx(2.0)
        assert rep.dynamic.stretch == pytest.approx(3.0)
        assert rep.overall.stretch == pytest.approx(2.5)
        assert rep.remote_dispatches == 1

    def test_warmup_filters_early_arrivals(self):
        mc = MetricsCollector()
        early = make_static(req_id=0, arrival=0.0, cpu=0.001)
        late = make_static(req_id=1, arrival=10.0, cpu=0.001)
        record_finished(mc, early, 0.1, remote=False, on_master=True)
        record_finished(mc, late, 10.001, remote=False, on_master=True)
        rep = mc.report(warmup=5.0)
        assert rep.completed == 1
        assert rep.overall.stretch == pytest.approx(1.0)

    def test_cutoff_filters_late_arrivals(self):
        mc = MetricsCollector()
        a = make_static(req_id=0, arrival=0.0, cpu=0.001)
        b = make_static(req_id=1, arrival=10.0, cpu=0.001)
        record_finished(mc, a, 0.001, remote=False, on_master=True)
        record_finished(mc, b, 10.1, remote=False, on_master=True)
        rep = mc.report(cutoff=5.0)
        assert rep.completed == 1

    def test_master_dynamic_fraction(self):
        mc = MetricsCollector()
        for i, on_master in enumerate([True, False, False, False]):
            d = make_cgi(req_id=i, arrival=0.0)
            record_finished(mc, d, 0.1, remote=not on_master,
                            on_master=on_master)
        rep = mc.report()
        assert rep.master_dynamic_fraction == pytest.approx(0.25)
        assert rep.dynamic_total == 4

    def test_empty_class_stats_are_nan(self):
        mc = MetricsCollector()
        s = make_static(req_id=0, arrival=0.0, cpu=0.001)
        record_finished(mc, s, 0.002, remote=False, on_master=True)
        rep = mc.report()
        assert math.isnan(rep.dynamic.stretch)

    def test_throughput(self):
        mc = MetricsCollector()
        for i in range(10):
            s = make_static(req_id=i, arrival=float(i), cpu=0.001)
            record_finished(mc, s, i + 0.001, remote=False,
                            on_master=True)
        rep = mc.report()
        assert rep.throughput == pytest.approx(10 / rep.duration)

    def test_percentiles_ordered(self):
        mc = MetricsCollector()
        for i in range(100):
            s = make_static(req_id=i, arrival=0.0, cpu=0.001)
            record_finished(mc, s, 0.001 * (1 + i), remote=False,
                            on_master=True)
        rep = mc.report()
        assert rep.overall.median_response <= rep.overall.p95_response
        assert rep.overall.mean_response > 0

    def test_len(self):
        mc = MetricsCollector()
        assert len(mc) == 0
        s = make_static(req_id=0, arrival=0.0, cpu=0.001)
        record_finished(mc, s, 0.01, remote=False, on_master=True)
        assert len(mc) == 1


class TestWindowSlicing:
    """Warmup/cutoff edge cases: the report must degrade to well-defined
    empty statistics, never raise or divide by zero."""

    def _filled(self, n=5):
        mc = MetricsCollector()
        for i in range(n):
            s = make_static(req_id=i, arrival=float(i), cpu=0.001)
            record_finished(mc, s, i + 0.002, remote=False,
                            on_master=True)
        return mc

    def test_empty_window_after_all_arrivals(self):
        mc = self._filled()
        rep = mc.report(warmup=100.0)
        assert rep.completed == 0
        assert rep.duration == 0.0
        assert rep.throughput == 0.0
        assert math.isnan(rep.overall.stretch)
        assert math.isnan(rep.static.mean_response)
        assert rep.remote_dispatches == 0
        assert rep.master_dynamic_fraction == 0.0

    def test_cutoff_before_warmup_is_empty(self):
        mc = self._filled()
        rep = mc.report(warmup=3.0, cutoff=1.0)
        assert rep.completed == 0
        assert math.isnan(rep.overall.stretch)

    def test_window_boundaries_are_inclusive(self):
        mc = self._filled()
        # warmup keeps arrivals >= warmup; cutoff keeps arrivals <= cutoff.
        rep = mc.report(warmup=1.0, cutoff=3.0)
        assert rep.completed == 3

    def test_report_on_empty_collector(self):
        mc = MetricsCollector()
        rep = mc.report()
        assert rep.completed == 0
        assert rep.duration == 0.0
        assert math.isnan(rep.overall.p95_response)

    def test_all_dropped_run_reports_empty(self):
        """A run where nothing completed (everything dropped/lost) must
        still produce a coherent report from the empty collector."""
        mc = MetricsCollector()
        rep = mc.report(warmup=0.5, cutoff=20.0)
        assert rep.completed == 0
        assert rep.dynamic_total == 0
        assert rep.master_dynamic == 0
        assert math.isnan(rep.overall.stretch)
        assert math.isnan(rep.dynamic.mean_demand)


class TestSnapshotCache:
    def test_snapshot_is_cached_between_reads(self):
        mc = self._two_sample_collector()
        first = mc.snapshot()
        assert mc.snapshot() is first  # identical tuple, no rebuild
        # Reports share the cached arrays rather than re-materialising.
        mc.report()
        assert mc.snapshot() is first

    def test_record_invalidates_snapshot(self):
        mc = self._two_sample_collector()
        first = mc.snapshot()
        s = make_static(req_id=99, arrival=5.0, cpu=0.001)
        record_finished(mc, s, 5.01, remote=False, on_master=True)
        second = mc.snapshot()
        assert second is not first
        assert len(second[0]) == len(first[0]) + 1
        # The new sample is visible through report() as well.
        assert mc.report().completed == 3

    @staticmethod
    def _two_sample_collector():
        mc = MetricsCollector()
        for i in range(2):
            s = make_static(req_id=i, arrival=float(i), cpu=0.001)
            record_finished(mc, s, i + 0.01, remote=False,
                            on_master=True)
        return mc


class _Recorder:
    """Estimator stand-in: keeps every ``observe`` call."""

    def __init__(self):
        self.seen = []

    def observe(self, kind, cpu, io):
        self.seen.append((kind, cpu, io))


class TestLedgerContract:
    """The one request ledger both substrates record into."""

    def test_balance_arithmetic(self):
        mc = MetricsCollector()
        mc.submitted = 6
        record_finished(mc, make_static(req_id=0, cpu=0.001), 0.002,
                        remote=False, on_master=True)
        mc.drop("timeout")
        mc.drop("timeout")
        mc.drop("shed")
        mc.lost = 1
        assert mc.drops == {"timeout": 2, "shed": 1}
        assert mc.total_dropped == 3
        assert mc.conservation(in_flight=1, pending=0) == {
            "submitted": 6, "completed": 1, "dropped": 3, "lost": 1,
            "in_flight": 1, "pending": 0, "balance": 0}
        assert mc.conservation(in_flight=0, pending=1)["balance"] == 0
        # A submitted request that is neither held nor terminal is
        # unaccounted for: the ledger says so.
        mc.submitted += 1
        assert mc.conservation(in_flight=1, pending=0)["balance"] == 1

    def test_stretch_uses_nominal_demand_estimator_the_measured_split(self):
        mc = MetricsCollector()
        measured = make_cgi(req_id=0, arrival=1.0, cpu=0.01, io=0.01)
        mc.record(measured, 1.0, 1.06, 2, True, False, cpu=0.015, io=0.02)
        unmeasured = make_cgi(req_id=1, arrival=1.0, cpu=0.02, io=0.01)
        mc.record(unmeasured, 1.0, 1.03, 2, True, False)
        assert list(mc.demands) == [pytest.approx(0.02), pytest.approx(0.03)]
        assert list(mc.cpu_demands) == [0.015, 0.02]
        assert list(mc.io_demands) == [0.02, 0.01]
        assert list(mc.nodes) == [2, 2]
        rep = mc.report()
        # Stretch divides by the nominal demand, not the measured split.
        assert rep.dynamic.stretch == pytest.approx((3.0 + 1.0) / 2)
        assert rep.remote_dispatches == 2

    def test_sim_feed_ingests_only_new_rows(self):
        from repro.control.actuator import SimAdapter
        from repro.core.policies import make_policy
        from repro.sim.cluster import Cluster
        from repro.sim.config import paper_sim_config

        cluster = Cluster(paper_sim_config(num_nodes=2, seed=1),
                          make_policy("MS", 2, 1, seed=2))
        adapter, est = SimAdapter(cluster), _Recorder()
        cluster.submit_many([make_static(req_id=0, arrival=0.0),
                             make_cgi(req_id=1, arrival=0.0, cpu=0.02,
                                      io=0.01),
                             make_static(req_id=2, arrival=5.0)])
        cluster.run(until=2.0)
        assert adapter.poll(est) == 2
        assert adapter.poll(est) == 0
        cluster.run(until=10.0)
        assert adapter.poll(est) == 1
        m = cluster.metrics
        assert est.seen == list(zip(m.kinds, m.cpu_demands, m.io_demands))
        assert (1, 0.02, 0.01) in est.seen

    def test_live_feed_ingests_only_new_rows(self):
        from repro.control.actuator import LiveAdapter
        from repro.live.master import MasterServer

        master = MasterServer(node_id=0, num_nodes=1)
        try:
            adapter, est = LiveAdapter(master), _Recorder()
            ledger = master.metrics
            ledger.record(make_cgi(req_id=0, cpu=0.02, io=0.01), 0.0, 0.1,
                          0, False, True, cpu=0.025, io=0.012)
            assert adapter.poll(est) == 1
            assert adapter.poll(est) == 0
            ledger.record(make_static(req_id=1, cpu=0.001), 0.1, 0.2,
                          0, False, True)
            assert adapter.poll(est) == 1
            assert est.seen == [(1, 0.025, 0.012), (0, 0.001, 0.0)]
        finally:
            master.pool.shutdown()


def _random_ledger(n, seed=7):
    """A collector with ``n`` rows of mixed kinds, nodes and flags."""
    import random

    rng = random.Random(seed)
    mc = MetricsCollector()
    for i in range(n):
        arrival = rng.uniform(0.0, 100.0)
        if i % 3:
            req = make_static(req_id=i, arrival=arrival,
                              cpu=rng.uniform(1e-4, 1e-2))
        else:
            req = make_cgi(req_id=i, arrival=arrival,
                           cpu=rng.uniform(1e-3, 0.1),
                           io=rng.uniform(0.0, 0.05))
        mc.record(req, arrival, arrival + rng.expovariate(20.0),
                  rng.randrange(8), rng.random() < 0.3, rng.random() < 0.4,
                  cpu=rng.choice([0.0, rng.uniform(1e-4, 0.1)]))
    return mc


class TestCompactLedger:
    """Packed rows read back exactly, through every view of the ledger."""

    def test_columns_read_back_what_was_recorded(self):
        mc = MetricsCollector()
        rows = [(make_static(req_id=0, arrival=0.1, cpu=0.001), 0.1,
                 0.25, 3, False, True),
                (make_cgi(req_id=1, arrival=0.2, cpu=0.02, io=0.01), 0.2,
                 0.5, 1, True, False)]
        for req, arrival, finish, node, remote, on_master in rows:
            mc.record(req, arrival, finish, node, remote, on_master)
        assert len(mc) == len(mc.finishes) == 2
        assert list(mc.arrivals) == [0.1, 0.2]
        assert mc.finishes[0] == 0.25 and mc.finishes[-1] == 0.5
        assert mc.finishes[:1] == [0.25]
        assert list(mc.demands) == [0.001 + 0.0, 0.02 + 0.01]
        assert list(mc.kinds) == [0, 1] and mc.kinds.index(1) == 1
        assert list(mc.nodes) == [3, 1]
        assert list(mc.remotes) == [False, True]
        assert list(mc.on_master) == [True, False]
        assert list(zip(mc.kinds, mc.cpu_demands, mc.io_demands)) == [
            (0, 0.001, 0.0), (1, 0.02, 0.01)]
        with pytest.raises(IndexError):
            mc.finishes[2]
        # A column is a live view: it sees rows recorded after it.
        finishes = mc.finishes
        record_finished(mc, make_static(req_id=2, arrival=1.0), 1.5,
                        remote=False, on_master=True)
        assert len(finishes) == 3 and finishes[2] == 1.5

    def test_column_equality_is_by_value(self):
        a, b = _random_ledger(50), _random_ledger(50)
        assert a.finishes == b.finishes and a.nodes == b.nodes
        assert a.finishes != _random_ledger(50, seed=8).finishes

    def test_snapshot_copies_exact_values_and_leaves_appends_free(self):
        mc = _random_ledger(300)
        arr, fin, dem, kin, rem, mas = mc.snapshot()
        assert arr.tolist() == list(mc.arrivals)
        assert fin.tolist() == list(mc.finishes)
        assert dem.tolist() == list(mc.demands)
        assert kin.tolist() == list(mc.kinds) and kin.dtype == int
        assert rem.tolist() == list(mc.remotes) and rem.dtype == bool
        assert mas.tolist() == list(mc.on_master)
        record_finished(mc, make_static(req_id=9, arrival=1.0), 2.0,
                        remote=False, on_master=True)
        assert len(mc.snapshot()[0]) == 301

    def test_summary_agrees_with_report(self):
        mc = _random_ledger(2000)
        summary, report = mc.summary(), mc.report()
        for label in ("overall", "static", "dynamic"):
            got, want = summary[label], getattr(report, label)
            assert got["count"] == want.count
            assert got["mean_response"] == pytest.approx(
                want.mean_response, rel=1e-12, abs=0.0)
            assert got["stretch"] == pytest.approx(want.stretch, rel=1e-12,
                                                   abs=0.0)
        assert summary["count"] == report.completed == 2000
        assert summary["remote"] == report.remote_dispatches
        assert summary["dynamic_on_master"] == report.master_dynamic

    def test_summary_folds_incrementally(self):
        whole = _random_ledger(500).summary()
        mc = MetricsCollector()
        source = _random_ledger(500)
        for i, row in enumerate(source.rows()):
            arrival, finish, demand, cpu, io, kind, node, remote, mas = row
            req = (make_cgi(req_id=i, arrival=arrival, cpu=demand, io=0.0)
                   if kind else make_static(req_id=i, arrival=arrival,
                                            cpu=demand))
            mc.record(req, arrival, finish, node, remote, mas, cpu, io)
            if i % 97 == 0:
                mc.summary()
        assert mc.summary() == whole

    def test_empty_summary_reads_zero(self):
        empty = {"count": 0, "mean_response": 0.0, "stretch": 0.0}
        assert MetricsCollector().summary() == {
            "count": 0, "remote": 0, "dynamic_on_master": 0,
            "overall": empty, "static": empty, "dynamic": empty}
