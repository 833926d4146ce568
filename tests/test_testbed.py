"""Unit tests for the emulated Sun-cluster testbed: the 6-node, 110 req/s
configuration and the noise (demand jitter, background jobs) that
``replay(..., noise=...)`` adds to it for Table 3's "actual" column."""

from dataclasses import fields

import numpy as np
import pytest

from repro.core.policies import FlatPolicy, make_ms
from repro.sim.cluster import Cluster
# Aliased: pytest would collect a module-level ``testbed_sim_config``.
from repro.sim.config import testbed_sim_config as sun_cluster_config
from repro.workload.generator import generate_trace
from repro.workload.noise import BackgroundLoad, NoiseConfig, jitter_demands
from repro.workload.replay import replay
from repro.workload.request import Request
from repro.workload.traces import UCB
from tests.conftest import make_cgi, make_static


class TestNoiseConfig:
    def test_defaults_validate(self):
        NoiseConfig().validate()

    def test_bad_values(self):
        with pytest.raises(ValueError):
            NoiseConfig(bg_rate=-1).validate()
        with pytest.raises(ValueError):
            NoiseConfig(bg_demand=0).validate()
        with pytest.raises(ValueError):
            NoiseConfig(demand_jitter=-0.1).validate()


class TestJitter:
    def test_zero_sigma_is_copy(self):
        reqs = [make_static(req_id=i) for i in range(5)]
        out = jitter_demands(reqs, 0.0)
        assert [q.demand for q in out] == [q.demand for q in reqs]

    def test_jitter_preserves_mean(self):
        reqs = [make_cgi(req_id=i, cpu=0.03, io=0.003)
                for i in range(20000)]
        out = jitter_demands(reqs, 0.2, seed=1)
        mean_in = np.mean([q.demand for q in reqs])
        mean_out = np.mean([q.demand for q in out])
        assert mean_out == pytest.approx(mean_in, rel=0.02)

    def test_jitter_changes_individuals(self):
        reqs = [make_cgi(req_id=i) for i in range(10)]
        out = jitter_demands(reqs, 0.2, seed=1)
        assert any(a.demand != b.demand for a, b in zip(reqs, out))

    def test_metadata_preserved(self):
        reqs = [make_cgi(req_id=7, mem_pages=55)]
        out = jitter_demands(reqs, 0.2, seed=1)
        assert out[0].req_id == 7
        assert out[0].mem_pages == 55
        assert out[0].type_key == reqs[0].type_key

    def test_every_field_but_the_demands_preserved(self):
        """Cache keys and session clients survive the jitter, so a noisy
        replay keeps cacheable CGI cacheable and session clients known."""
        keyed = make_cgi(req_id=3)
        keyed.cache_key = "cgi:spin?q=3"
        keyed.client_id = 7
        reqs = [keyed, make_cgi(req_id=4), make_static(req_id=5)]
        out = jitter_demands(reqs, 0.15, seed=2)
        assert (out[0].cache_key, out[0].client_id) == ("cgi:spin?q=3", 7)
        kept = [f.name for f in fields(Request)
                if f.name not in ("cpu_demand", "io_demand")]
        for before, after in zip(reqs, out):
            assert [getattr(after, k) for k in kept] == \
                [getattr(before, k) for k in kept]


class TestBackgroundLoad:
    def test_injects_until_stop(self):
        cfg = sun_cluster_config()
        cluster = Cluster(cfg, FlatPolicy(cfg.num_nodes, seed=1))
        bg = BackgroundLoad(cluster, NoiseConfig(bg_rate=5.0, seed=2),
                            stop_at=2.0)
        bg.start()
        cluster.run(until=10.0)
        assert bg.injected > 0
        # Roughly rate * nodes * stop_at injections.
        expected = 5.0 * cfg.num_nodes * 2.0
        assert bg.injected == pytest.approx(expected, rel=0.5)

    def test_zero_rate_injects_nothing(self):
        cfg = sun_cluster_config()
        cluster = Cluster(cfg, FlatPolicy(cfg.num_nodes, seed=1))
        bg = BackgroundLoad(cluster, NoiseConfig(bg_rate=0.0), stop_at=2.0)
        bg.start()
        cluster.run(until=5.0)
        assert bg.injected == 0


class TestEmulator:
    def test_paper_constants(self):
        cfg = sun_cluster_config()
        assert cfg.num_nodes == 6
        assert cfg.static_rate == 110.0

    def test_replay_runs_and_reports(self):
        trace = generate_trace(UCB, rate=30, duration=5.0, mu_h=110,
                               r=1 / 40, seed=4)
        report = replay(sun_cluster_config(), make_ms(6, 3, seed=5), trace,
                        noise=NoiseConfig()).report
        assert report.completed > 0
        assert report.overall.stretch >= 1.0

    def test_noise_degrades_vs_clean_sim(self):
        """The noisy testbed should be slower than the clean simulator on
        the same trace and policy."""
        noise = NoiseConfig(bg_rate=6.0, bg_demand=0.08, demand_jitter=0.0,
                            seed=9)
        trace = generate_trace(UCB, rate=60, duration=5.0, mu_h=110,
                               r=1 / 40, seed=4)
        noisy = replay(sun_cluster_config(), make_ms(6, 3, seed=5), trace,
                       noise=noise)
        clean = replay(sun_cluster_config(), make_ms(6, 3, seed=5), trace)
        assert noisy.report.overall.stretch > clean.report.overall.stretch

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            replay(sun_cluster_config(), make_ms(6, 3), [],
                   noise=NoiseConfig())


class TestBackgroundStopBoundary:
    """Regression (control-plane PR): injected background demand must
    never outlive ``stop_at`` — long-tailed exponential demands drawn
    just before the boundary used to spill into the drain phase and
    perturb post-trace measurements."""

    def _run(self, stop_at=2.0, bg_demand=1.5, seed=3):
        # A huge mean demand makes any unclipped draw obvious.
        cfg = sun_cluster_config()
        cluster = Cluster(cfg, FlatPolicy(cfg.num_nodes, seed=1))
        bg = BackgroundLoad(
            cluster, NoiseConfig(bg_rate=4.0, bg_demand=bg_demand,
                                 seed=seed), stop_at=stop_at)
        bg.start()
        cluster.run(until=stop_at + 60.0)
        return bg

    def test_no_injection_at_or_past_stop(self):
        bg = self._run()
        assert bg.injected > 0
        assert all(t < bg.stop_at for t, _ in bg.injections)

    def test_injected_demand_clipped_to_budget(self):
        bg = self._run()
        # The CPU floor (1e-6 s, keeps the burst planner happy) is the
        # only permitted overshoot.
        assert all(t + demand <= bg.stop_at + 1e-6
                   for t, demand in bg.injections)
        # With mean demand 1.5s against a 2s window, clipping must have
        # actually engaged for at least one draw.
        assert any(t + demand >= bg.stop_at - 1e-9
                   for t, demand in bg.injections)

    def test_no_bg_admit_span_after_stop(self):
        from repro.obs import Tracer
        from repro.obs.trace import BG_ADMIT

        cfg = sun_cluster_config()
        cluster = Cluster(cfg, FlatPolicy(cfg.num_nodes, seed=1),
                          tracer=Tracer())
        bg = BackgroundLoad(cluster, NoiseConfig(bg_rate=4.0, seed=5),
                            stop_at=1.5)
        bg.start()
        cluster.run(until=30.0)
        bg_spans = [s for s in cluster.tracer.spans if s[1] == BG_ADMIT]
        assert bg_spans
        assert all(s[0] < 1.5 for s in bg_spans)
