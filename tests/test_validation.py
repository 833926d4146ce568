"""Tests calibrating the simulator against closed-form queuing theory."""

import pytest

from repro.analysis.validation import (
    CalibrationRow,
    class_level_stretch,
    exponential_trace,
    flat_cluster_calibration,
    mm1_calibration,
    ms_model_calibration,
)
from repro.core.queuing import Workload


class TestExponentialTrace:
    def test_shape(self):
        trace = exponential_trace(lam=100, mean_demand=0.001,
                                  duration=2.0, seed=1)
        assert len(trace) == 200
        assert all(q.io_demand == 0.0 for q in trace)
        times = [q.arrival_time for q in trace]
        assert times == sorted(times)

    def test_mean_demand(self):
        import numpy as np

        trace = exponential_trace(lam=1000, mean_demand=0.002,
                                  duration=30.0, seed=2)
        assert np.mean([q.demand for q in trace]) == pytest.approx(
            0.002, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            exponential_trace(lam=0, mean_demand=1, duration=1, seed=0)


class TestMM1Calibration:
    """The simulator must collapse to M/M/1 when its OS features are off.

    This is the fidelity check behind every Figure-4 claim: if the clean
    simulator disagreed with 1/(1-rho), comparisons against Theorem 1
    would be meaningless.
    """

    @pytest.fixture(scope="class")
    def rows(self):
        return mm1_calibration(rho_values=(0.3, 0.5, 0.7), duration=50.0,
                               seed=3)

    def test_within_five_percent(self, rows):
        for row in rows:
            assert row.relative_error < 0.05, row

    def test_monotone_in_rho(self, rows):
        sims = [row.simulated for row in rows]
        assert sims == sorted(sims)

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            mm1_calibration(rho_values=(1.5,))


class TestTwoClassCalibration:
    """Two-class comparisons expose a *documented* model gap: the BSD-style
    MLFQ is size-based, so its count-weighted stretch dominates (is no
    worse than) the paper's discipline-free station model.  EXPERIMENTS.md
    discusses the consequences for the M/S-1 comparison."""

    @pytest.fixture(scope="class")
    def w(self):
        return Workload.from_ratios(lam=600, a=0.4, mu_h=1200, r=1 / 40,
                                    p=8)

    def test_flat_simulated_at_most_model(self, w):
        row = flat_cluster_calibration(w, duration=25.0, seed=4)
        assert row.simulated <= row.predicted * 1.10
        assert row.simulated >= 1.0

    def test_ms_simulated_at_most_model(self, w):
        row = ms_model_calibration(w, m=2, theta=0.05, duration=25.0,
                                   seed=5)
        assert row.simulated <= row.predicted * 1.10
        assert row.simulated >= 1.0

    def test_model_load_ordering_transfers(self, w):
        """More offered load -> more simulated stretch, as in the model."""
        light = Workload.from_ratios(lam=300, a=0.4, mu_h=1200, r=1 / 40,
                                     p=8)
        lo = flat_cluster_calibration(light, duration=25.0, seed=6)
        hi = flat_cluster_calibration(w, duration=25.0, seed=6)
        assert lo.simulated < hi.simulated
        assert lo.predicted < hi.predicted


class TestClassLevelStretch:
    def test_single_class_report(self):
        from repro.sim.metrics import MetricsCollector
        from tests.conftest import make_static

        mc = MetricsCollector()
        req = make_static(req_id=0, arrival=0.0, cpu=0.001)
        mc.record(req, 0.0, 0.003, 0, remote=False, on_master=True)
        assert class_level_stretch(mc.report()) == pytest.approx(3.0)

    def test_two_class_weighting(self):
        from repro.sim.metrics import MetricsCollector
        from tests.conftest import make_cgi, make_static

        mc = MetricsCollector()
        # 3 statics at class stretch 2, 1 dynamic at class stretch 4.
        for i in range(3):
            req = make_static(req_id=i, arrival=0.0, cpu=0.001)
            mc.record(req, 0.0, 0.002, 0, remote=False, on_master=True)
        req = make_cgi(req_id=9, arrival=0.0, cpu=0.01, io=0.0)
        mc.record(req, 0.0, 0.04, 0, remote=False, on_master=False)
        assert class_level_stretch(mc.report()) == pytest.approx(
            (3 * 2.0 + 1 * 4.0) / 4)
