"""Unit tests for the rstat-style load monitor."""

import numpy as np
import pytest

from repro.sim.config import paper_sim_config
from repro.sim.node import Node
from repro.sim.monitor import LoadMonitor
from tests.conftest import make_cgi


def build(engine, num_nodes=2, period=0.1, smoothing=1.0):
    cfg = paper_sim_config(num_nodes=num_nodes)
    cfg.monitor.period = period
    cfg.monitor.smoothing = smoothing
    nodes = [Node(engine, cfg, i, np.random.default_rng(i),
                  lambda n, p: None) for i in range(num_nodes)]
    monitor = LoadMonitor(engine, cfg.monitor, nodes)
    monitor.start()
    return cfg, nodes, monitor


class TestSampling:
    def test_idle_cluster_reports_full_idle(self, engine):
        _, _, monitor = build(engine)
        engine.run(until=1.0)
        assert monitor.table.cpu_idle == pytest.approx([1.0, 1.0])
        assert monitor.table.disk_avail == pytest.approx([1.0, 1.0])
        assert monitor.samples == 10

    def test_busy_node_reports_low_idle(self, engine):
        cfg, nodes, monitor = build(engine)
        # Saturate node 0's CPU for the whole window.
        for i in range(30):
            nodes[0].admit(make_cgi(req_id=i, cpu=0.050, io=0.0,
                                    mem_pages=0))
        engine.run(until=0.5)
        assert monitor.table.cpu_idle[0] < 0.1
        assert monitor.table.cpu_idle[1] == pytest.approx(1.0)

    def test_disk_usage_tracked(self, engine):
        cfg, nodes, monitor = build(engine)
        for i in range(10):
            nodes[0].admit(make_cgi(req_id=i, cpu=0.001, io=0.100,
                                    mem_pages=0))
        engine.run(until=0.5)
        assert monitor.table.disk_avail[0] < 0.2
        assert monitor.table.disk_avail[1] == pytest.approx(1.0)

    def test_values_recover_after_load_ends(self, engine):
        cfg, nodes, monitor = build(engine)
        nodes[0].admit(make_cgi(cpu=0.050, io=0.0, mem_pages=0))
        engine.run(until=2.0)
        assert monitor.table.cpu_idle[0] > 0.9

    def test_smoothing_damps_jumps(self, engine):
        cfg, nodes, monitor = build(engine, smoothing=0.5)
        for i in range(30):
            nodes[0].admit(make_cgi(req_id=i, cpu=0.050, io=0.0,
                                    mem_pages=0))
        engine.run(until=0.11)  # one sample of a saturated window
        # With smoothing 0.5, one bad sample moves idle from 1.0 to ~0.5.
        assert 0.3 < monitor.table.cpu_idle[0] < 0.7

    def test_staleness_between_samples(self, engine):
        """Values only change at sampling ticks."""
        cfg, nodes, monitor = build(engine, period=0.5)
        nodes[0].admit(make_cgi(cpu=0.2, io=0.0, mem_pages=0))
        engine.run(until=0.4)  # before the first tick
        assert monitor.table.cpu_idle[0] == pytest.approx(1.0)
        engine.run(until=0.6)  # after the tick
        assert monitor.table.cpu_idle[0] < 0.8


class TestReregister:
    """Role changes re-baseline a node's probe state (control plane)."""

    def test_rebaseline_discards_pre_promotion_busy(self, engine):
        cfg, nodes, monitor = build(engine, period=1.0)
        # Saturate node 1 before the "promotion"...
        for i in range(20):
            nodes[1].admit(make_cgi(req_id=i, cpu=0.040, io=0.0,
                                    mem_pages=0))
        engine.run(until=0.9)
        # ...then re-register just before the sampling tick: the busy
        # seconds accumulated in the old role must not pollute the first
        # sample taken in the new one.
        monitor.reregister(1)
        engine.run(until=1.05)
        assert monitor.table.cpu_idle[1] > 0.5

    def test_without_rebaseline_sample_is_polluted(self, engine):
        cfg, nodes, monitor = build(engine, period=1.0)
        for i in range(20):
            nodes[i % 2].admit(make_cgi(req_id=i, cpu=0.080, io=0.0,
                                        mem_pages=0))
        engine.run(until=1.05)
        assert monitor.table.cpu_idle[1] < 0.5

    def test_probe_freshness_renewed(self, engine):
        cfg, nodes, monitor = build(engine)
        engine.run(until=0.5)
        monitor.reregister(0)
        assert monitor.table.last_heard[0] == pytest.approx(0.5)
