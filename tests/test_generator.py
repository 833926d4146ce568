"""Unit tests for synthetic trace generation."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro._gc import gc_paused
from repro.workload.generator import generate_trace, trace_statistics
from repro.workload.request import RequestKind
from repro.workload.specweb import FILE_SIZES
from repro.workload.traces import ADL, KSU, UCB


class TestShape:
    def test_count_by_n(self):
        trace = generate_trace(UCB, rate=100, n=500, seed=0)
        assert len(trace) == 500

    def test_count_by_duration(self):
        trace = generate_trace(UCB, rate=100, duration=5.0, seed=0)
        assert len(trace) == 500

    def test_exactly_one_length_spec(self):
        with pytest.raises(ValueError):
            generate_trace(UCB, rate=100, seed=0)
        with pytest.raises(ValueError):
            generate_trace(UCB, rate=100, n=10, duration=1.0, seed=0)

    def test_request_ids_dense(self):
        trace = generate_trace(UCB, rate=100, n=100, seed=0)
        assert [q.req_id for q in trace] == list(range(100))

    def test_arrivals_increase(self):
        trace = generate_trace(UCB, rate=100, n=500, seed=0)
        times = [q.arrival_time for q in trace]
        assert times == sorted(times)

    def test_reproducible(self):
        a = generate_trace(KSU, rate=100, n=200, seed=5)
        b = generate_trace(KSU, rate=100, n=200, seed=5)
        assert all(x.demand == y.demand and x.kind == y.kind
                   for x, y in zip(a, b))

    def test_different_seeds_differ(self):
        a = generate_trace(KSU, rate=100, n=200, seed=5)
        b = generate_trace(KSU, rate=100, n=200, seed=6)
        assert any(x.demand != y.demand for x, y in zip(a, b))


class TestStatistics:
    def test_cgi_fraction_matches_spec(self):
        trace = generate_trace(ADL, rate=100, n=20000, seed=1)
        stats = trace_statistics(trace)
        assert stats["pct_cgi"] == pytest.approx(ADL.pct_cgi, abs=1.5)

    def test_mean_interval_matches_rate(self):
        trace = generate_trace(UCB, rate=250, n=20000, seed=1)
        stats = trace_statistics(trace)
        assert stats["mean_interval"] == pytest.approx(1 / 250, rel=0.05)

    def test_html_sizes_near_spec(self):
        trace = generate_trace(UCB, rate=100, n=30000, seed=1)
        stats = trace_statistics(trace)
        assert stats["html_size"] == pytest.approx(UCB.html_size, rel=0.15)

    def test_static_demand_calibrated(self):
        """Mean static demand is pinned to 1/mu_h."""
        trace = generate_trace(UCB, rate=100, n=20000, mu_h=1200, seed=1)
        statics = [q for q in trace if q.kind is RequestKind.STATIC]
        mean = np.mean([q.demand for q in statics])
        assert mean == pytest.approx(1 / 1200, rel=1e-6)

    def test_dynamic_demand_scales_with_r(self):
        for r in (1 / 20, 1 / 80):
            trace = generate_trace(ADL, rate=100, n=30000, mu_h=1200, r=r,
                                   seed=1)
            dyn = [q.demand for q in trace if q.is_dynamic]
            assert np.mean(dyn) == pytest.approx(1 / (1200 * r), rel=0.1)

    def test_static_sizes_are_specweb_files(self):
        trace = generate_trace(KSU, rate=100, n=2000, seed=1)
        sizes = {q.size_bytes for q in trace
                 if q.kind is RequestKind.STATIC}
        assert sizes <= set(FILE_SIZES)

    def test_statics_are_pure_cpu(self):
        trace = generate_trace(KSU, rate=100, n=2000, seed=1)
        for q in trace:
            if q.kind is RequestKind.STATIC:
                assert q.io_demand == 0.0
                assert q.cpu_demand > 0.0

    def test_cgi_split_follows_profiles(self):
        trace = generate_trace(ADL, rate=100, n=30000, seed=1)
        catalog = [q for q in trace if q.type_key == "cgi:catalog"]
        fracs = np.array([q.cpu_fraction for q in catalog])
        assert fracs.mean() == pytest.approx(0.10, abs=0.03)

    def test_cgi_mix_ratio(self):
        trace = generate_trace(ADL, rate=100, n=40000, seed=1)
        dyn = [q for q in trace if q.is_dynamic]
        catalog_share = np.mean([q.type_key == "cgi:catalog" for q in dyn])
        assert catalog_share == pytest.approx(0.85, abs=0.03)

    def test_mem_pages_positive_for_cgi(self):
        trace = generate_trace(KSU, rate=100, n=2000, seed=1)
        assert all(q.mem_pages >= 1 for q in trace if q.is_dynamic)


class TestValidation:
    def test_bad_mu_h(self):
        with pytest.raises(ValueError):
            generate_trace(UCB, rate=100, n=10, mu_h=0)

    def test_bad_r(self):
        with pytest.raises(ValueError):
            generate_trace(UCB, rate=100, n=10, r=0)

    def test_statistics_empty_rejected(self):
        with pytest.raises(ValueError):
            trace_statistics([])


class TestArrivalKinds:
    def test_mmpp_traces_are_burstier(self):
        import numpy as np

        pois = generate_trace(UCB, rate=300, n=20000, seed=4,
                              arrival="poisson")
        mmpp = generate_trace(UCB, rate=300, n=20000, seed=4,
                              arrival="mmpp2")

        def cv2(trace):
            gaps = np.diff([q.arrival_time for q in trace])
            return gaps.var() / gaps.mean() ** 2

        assert cv2(mmpp) > cv2(pois) * 1.1

    def test_uniform_arrivals(self):
        import numpy as np

        trace = generate_trace(UCB, rate=100, n=500, seed=4,
                               arrival="uniform")
        gaps = np.diff([q.arrival_time for q in trace])
        assert np.allclose(gaps, 0.01)

    def test_start_offset(self):
        trace = generate_trace(UCB, rate=100, n=50, seed=4, start=7.5)
        assert min(q.arrival_time for q in trace) >= 7.5


class TestSharedValues:
    """Statics of one SPECweb96 file share their size and demand objects."""

    def test_one_object_per_static_value(self):
        trace = generate_trace(UCB, rate=1000, n=20_000, seed=1)
        statics = [q for q in trace if q.kind is RequestKind.STATIC]
        for field in ("size_bytes", "cpu_demand"):
            values = [getattr(q, field) for q in statics]
            assert len({id(v) for v in values}) == len(set(values)), field

    def test_retained_bytes_per_request(self):
        n = 60_000
        generate_trace(UCB, rate=1000, n=100, seed=0)   # warm caches
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = generate_trace(UCB, rate=1000, n=n, seed=1)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace) == n
        assert retained / n <= 200


class TestCollectorPause:
    def test_collector_restored(self):
        assert gc.isenabled()
        generate_trace(UCB, rate=100, n=50, seed=0)
        assert gc.isenabled()
        gc.disable()
        try:
            generate_trace(UCB, rate=100, n=50, seed=0)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_collector_restored_on_error(self):
        with pytest.raises(RuntimeError):
            with gc_paused():
                assert not gc.isenabled()
                raise RuntimeError("boom")
        assert gc.isenabled()
