"""Unit tests for CGI result caching (the Swala extension)."""

import pytest

from repro.core.caching import CachingMSPolicy, CGICache
from repro.sim.config import paper_sim_config
from repro.workload.generator import generate_trace
from repro.workload.replay import pretrain_sampler, replay
from repro.workload.request import RequestKind
from repro.workload.traces import KSU


class TestCGICache:
    def test_miss_then_hit(self):
        cache = CGICache(capacity=10, ttl=60.0)
        assert cache.lookup("a", now=0.0) is None
        cache.insert("a", size=1234, now=0.0)
        assert cache.lookup("a", now=1.0) == 1234
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_ttl_expiry(self):
        cache = CGICache(capacity=10, ttl=5.0)
        cache.insert("a", 100, now=0.0)
        assert cache.lookup("a", now=4.9) == 100
        assert cache.lookup("a", now=5.1) is None
        assert cache.stats.expirations == 1

    def test_lru_eviction(self):
        cache = CGICache(capacity=2, ttl=60.0)
        cache.insert("a", 1, now=0.0)
        cache.insert("b", 2, now=0.0)
        cache.lookup("a", now=1.0)     # refresh a
        cache.insert("c", 3, now=1.0)  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1

    def test_invalidate(self):
        cache = CGICache(capacity=4)
        cache.insert("a", 1, now=0.0)
        assert cache.invalidate("a")
        assert not cache.invalidate("a")
        assert cache.lookup("a", now=0.0) is None

    def test_reinsert_updates(self):
        cache = CGICache(capacity=4)
        cache.insert("a", 1, now=0.0)
        cache.insert("a", 99, now=1.0)
        assert len(cache) == 1
        assert cache.lookup("a", now=2.0) == 99

    def test_hit_ratio(self):
        cache = CGICache(capacity=4)
        cache.insert("a", 1, now=0.0)
        cache.lookup("a", now=0.0)
        cache.lookup("b", now=0.0)
        assert cache.stats.hit_ratio == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            CGICache(capacity=0)
        with pytest.raises(ValueError):
            CGICache(capacity=1, ttl=0.0)


class TestCachingPolicy:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace(KSU, rate=400, duration=6.0, r=1 / 40,
                              seed=11, cacheable_fraction=0.8,
                              distinct_queries=100)

    def test_hits_served_on_masters(self, trace):
        cfg = paper_sim_config(num_nodes=8, seed=1)
        cache = CGICache(capacity=500, ttl=120.0)
        policy = CachingMSPolicy(8, 2, cache,
                                 sampler=pretrain_sampler(trace), seed=2)
        result = replay(cfg, policy, trace, warmup_fraction=0.0)
        assert cache.stats.hits > 0
        # Every request completes exactly once despite substitution.
        assert result.report.completed == len(trace)

    def test_cache_reduces_dynamic_response_time(self, trace):
        from repro.core.policies import make_ms

        cfg = paper_sim_config(num_nodes=8, seed=1)
        sampler = pretrain_sampler(trace)
        base = replay(cfg.copy(), make_ms(8, 2, sampler, seed=2),
                      trace).report
        cache = CGICache(capacity=500, ttl=120.0)
        cached = replay(cfg.copy(),
                        CachingMSPolicy(8, 2, cache, sampler=sampler,
                                        seed=2), trace).report
        assert cached.dynamic.mean_response < base.dynamic.mean_response

    def test_popular_queries_dominate_hits(self, trace):
        """Zipf popularity means a small cache still catches most lookups."""
        cfg = paper_sim_config(num_nodes=8, seed=1)
        small = CGICache(capacity=20, ttl=120.0)
        policy = CachingMSPolicy(8, 2, small,
                                 sampler=pretrain_sampler(trace), seed=2)
        replay(cfg, policy, trace)
        assert small.stats.hit_ratio > 0.25

    def test_uncacheable_requests_bypass(self):
        plain = generate_trace(KSU, rate=200, duration=3.0, r=1 / 40,
                               seed=12)  # cacheable_fraction=0
        cfg = paper_sim_config(num_nodes=8, seed=1)
        cache = CGICache(capacity=100)
        policy = CachingMSPolicy(8, 2, cache, seed=2)
        replay(cfg, policy, plain)
        assert cache.stats.lookups == 0
        assert len(cache) == 0

    def test_hit_rate_validation(self):
        with pytest.raises(ValueError):
            CachingMSPolicy(8, 2, CGICache(10), hit_service_rate=0.0)

    def test_hit_completion_skips_dynamic_estimators(self):
        """A hit is counted as a static arrival; its cheap send must not
        pull the dynamic response EWMA down or teach the sampler a
        ``cgi:cache-hit`` family."""
        import dataclasses

        from repro.core.sampling import DemandSampler
        from tests.conftest import make_cgi
        from tests.test_policies import FakeView

        sampler = DemandSampler()
        cache = CGICache(capacity=10, ttl=60.0)
        cache.insert("q", 4591, now=0.0)
        policy = CachingMSPolicy(8, 2, cache, sampler=sampler, seed=2)
        view = FakeView(8)
        miss = make_cgi(req_id=0)
        route = policy.route(miss, view)
        policy.on_complete(miss, 0.040, False, route.node_id)
        resp_dynamic = policy.tuner._resp_dynamic
        assert resp_dynamic == pytest.approx(0.040)

        hit = dataclasses.replace(make_cgi(req_id=1), cache_key="q")
        route = policy.route(hit, view)
        assert route.substitute is not None
        policy.on_complete(route.substitute, 0.002, True, route.node_id)
        assert policy.tuner._resp_dynamic == resp_dynamic
        assert policy.tuner._resp_static == pytest.approx(0.002)
        assert "cgi:cache-hit" not in sampler.families
        assert not policy._dispatched_w


class TestGeneratorCacheKeys:
    def test_keys_only_on_dynamic(self):
        trace = generate_trace(KSU, rate=200, n=5000, seed=1,
                               cacheable_fraction=1.0)
        for q in trace:
            if q.kind is RequestKind.STATIC:
                assert q.cache_key is None
            else:
                assert q.cache_key is not None

    def test_fraction_respected(self):
        trace = generate_trace(KSU, rate=200, n=20000, seed=1,
                               cacheable_fraction=0.5)
        dyn = [q for q in trace if q.is_dynamic]
        frac = sum(q.cache_key is not None for q in dyn) / len(dyn)
        assert frac == pytest.approx(0.5, abs=0.05)

    def test_zipf_concentration(self):
        trace = generate_trace(KSU, rate=200, n=30000, seed=1,
                               cacheable_fraction=1.0,
                               distinct_queries=1000, zipf_s=1.2)
        from collections import Counter
        keys = Counter(q.cache_key for q in trace
                       if q.cache_key is not None)
        top10 = sum(c for _, c in keys.most_common(10))
        assert top10 / sum(keys.values()) > 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_trace(KSU, rate=100, n=10, cacheable_fraction=1.5)
        with pytest.raises(ValueError):
            generate_trace(KSU, rate=100, n=10, cacheable_fraction=0.5,
                           distinct_queries=0)


class TestCachingWithFailures:
    def test_cache_hits_survive_master_failure(self):
        """Hits are served at an alive master even after the preferred
        master dies (emergency promotion path)."""
        from repro.sim.cluster import Cluster

        trace = generate_trace(KSU, rate=300, duration=4.0, r=1 / 40,
                               seed=31, cacheable_fraction=1.0,
                               distinct_queries=20)
        cache = CGICache(capacity=100, ttl=600.0)
        policy = CachingMSPolicy(4, 2, cache,
                                 sampler=pretrain_sampler(trace), seed=32)
        cluster = Cluster(paper_sim_config(num_nodes=4, seed=33), policy)
        cluster.submit_many(trace)
        cluster.engine.schedule_at(2.0, cluster.fail_node, 0)
        cluster.run(until=60.0)
        assert len(cluster.metrics) == len(trace)
        assert cache.stats.hits > 0
