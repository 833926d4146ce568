"""Unit tests for the reservation gate, the adaptive controller that
writes its cap, and who owns the cap when a control plane is attached."""

import pytest

from repro.control import ControlConfig, EstimatorConfig, SimControlLoop
from repro.core.policies import MSPolicy, make_ms
from repro.core.reservation import (
    ReservationConfig,
    ReservationController,
    ReservationGate,
)
from repro.core.theorem import reservation_ratio
from repro.sim.cluster import Cluster
from repro.sim.config import paper_sim_config
from repro.workload.generator import generate_trace
from repro.workload.replay import replay
from repro.workload.request import RequestKind
from repro.workload.traces import UCB


def tuner(cfg=None, m=4, p=32):
    """A controller over a fresh gate, both built from ``cfg``."""
    return ReservationController(ReservationGate(cfg), m, p, cfg)


def feed(ctrl, now, n_static, n_dynamic):
    for _ in range(n_static):
        ctrl.observe_arrival(RequestKind.STATIC, now)
    for _ in range(n_dynamic):
        ctrl.observe_arrival(RequestKind.DYNAMIC, now)


class TestGate:
    def test_initial_cap_admits(self):
        gate = ReservationGate(ReservationConfig(theta_init=0.3))
        assert gate.admit_to_master()

    def test_zero_cap_blocks(self):
        gate = ReservationGate(ReservationConfig(theta_init=0.0))
        assert not gate.admit_to_master()

    def test_fraction_tracking_closes_gate(self):
        gate = ReservationGate(ReservationConfig(theta_init=0.2,
                                                 smoothing=0.5))
        for _ in range(20):
            gate.record_decision(True)
        assert gate.master_fraction > 0.9
        assert not gate.admit_to_master()

    def test_gate_reopens_as_fraction_decays(self):
        gate = ReservationGate(ReservationConfig(theta_init=0.2,
                                                 smoothing=0.5))
        for _ in range(10):
            gate.record_decision(True)
        for _ in range(10):
            gate.record_decision(False)
        assert gate.admit_to_master()


class TestEstimation:
    def test_a_estimated_from_arrivals(self):
        cfg = ReservationConfig(update_period=1.0, min_arrivals=10,
                                smoothing=1.0)
        ctrl = tuner(cfg)
        feed(ctrl, 0.5, n_static=30, n_dynamic=15)
        ctrl.observe_arrival(RequestKind.STATIC, 1.5)  # crosses the period
        assert ctrl.a_estimate == pytest.approx(15 / 31, abs=0.05)

    def test_r_estimated_from_response_ratio(self):
        ctrl = tuner(ReservationConfig(smoothing=1.0))
        ctrl.observe_response(RequestKind.STATIC, 0.001)
        ctrl.observe_response(RequestKind.DYNAMIC, 0.040)
        assert ctrl.r_estimate == pytest.approx(0.025)

    def test_r_capped_at_one(self):
        ctrl = tuner(ReservationConfig(smoothing=1.0))
        ctrl.observe_response(RequestKind.STATIC, 0.080)
        ctrl.observe_response(RequestKind.DYNAMIC, 0.040)
        assert ctrl.r_estimate == 1.0

    def test_no_estimate_without_both_classes(self):
        ctrl = tuner()
        ctrl.observe_response(RequestKind.STATIC, 0.001)
        assert ctrl.r_estimate is None

    def test_cap_tracks_theorem_formula(self):
        cfg = ReservationConfig(update_period=1.0, min_arrivals=10,
                                smoothing=1.0)
        ctrl = tuner(cfg)
        ctrl.observe_response(RequestKind.STATIC, 0.001)
        ctrl.observe_response(RequestKind.DYNAMIC, 0.040)
        feed(ctrl, 0.5, n_static=20, n_dynamic=10)
        ctrl.observe_arrival(RequestKind.STATIC, 1.5)
        expected = reservation_ratio(ctrl.a_estimate, ctrl.r_estimate, 4, 32)
        assert ctrl.gate.theta_cap == pytest.approx(expected)
        assert ctrl.updates >= 1


class TestSelfStabilization:
    def _converge(self, theta_init):
        """Drive the controller with a stationary synthetic workload."""
        cfg = ReservationConfig(theta_init=theta_init, update_period=1.0,
                                min_arrivals=10, smoothing=0.5)
        ctrl = tuner(cfg)
        now = 0.0
        for _ in range(50):
            now += 1.0
            ctrl.observe_response(RequestKind.STATIC, 0.001)
            ctrl.observe_response(RequestKind.DYNAMIC, 0.040)
            feed(ctrl, now - 0.5, n_static=20, n_dynamic=10)
            ctrl.observe_arrival(RequestKind.STATIC, now + 0.01)
        return ctrl.gate.theta_cap

    def test_converges_from_extremes(self):
        lo = self._converge(0.0)
        hi = self._converge(1.0)
        assert lo == pytest.approx(hi, abs=1e-6)

    def test_converged_value_is_formula(self):
        cap = self._converge(0.5)
        assert cap == pytest.approx(reservation_ratio(0.5, 0.025, 4, 32),
                                    abs=0.01)


class TestValidation:
    def test_bad_m(self):
        with pytest.raises(ValueError):
            tuner(m=0)
        with pytest.raises(ValueError):
            tuner(m=33)

    def test_bad_config(self):
        with pytest.raises(ValueError):
            ReservationConfig(update_period=0).validate()
        with pytest.raises(ValueError):
            ReservationConfig(smoothing=0).validate()
        with pytest.raises(ValueError):
            ReservationConfig(theta_init=2).validate()


class TestCapOwnership:
    """``theta'_2`` has one writer at a time: the policy's tuner, or an
    attached control plane that detached it."""

    P, M = 4, 1

    def trace(self):
        return generate_trace(UCB, rate=300, duration=4.0, mu_h=1200,
                              r=1 / 40, seed=5)

    def control(self, **kwargs):
        return ControlConfig(
            period=0.5, cooldown=1.0, confirm_ticks=1,
            estimator=EstimatorConfig(min_class_samples=10, warm_windows=1),
            **kwargs)

    def run(self, policy, control=None):
        cfg = paper_sim_config(num_nodes=self.P, seed=5)
        return replay(cfg, policy, self.trace(), control=control)

    def test_control_plane_detaches_the_tuner(self):
        policy = make_ms(self.P, self.M, seed=5)
        assert policy.tuner is not None
        cluster = Cluster(paper_sim_config(num_nodes=self.P, seed=5), policy)
        SimControlLoop(cluster, self.control()).start()
        assert policy.tuner is None
        assert policy.reservation is not None

    def test_controlled_cap_is_the_last_retune(self, monkeypatch):
        def detached(*args):
            raise AssertionError("a controlled run called the paper's loop")

        for name in ("observe_arrival", "observe_response", "_update"):
            monkeypatch.setattr(ReservationController, name, detached)
        policy = make_ms(self.P, self.M, seed=5)
        theta0 = policy.reservation.theta_cap
        result = self.run(policy, self.control())
        retunes = [a.value for a in result.control.controller.applied
                   if a.kind == "retune_theta"]
        assert retunes, "the loop never retuned; the check shows nothing"
        assert policy.tuner is None
        assert policy.reservation.theta_cap == retunes[-1] != theta0

    def test_dry_run_leaves_the_paper_loop_writing(self):
        plain = make_ms(self.P, self.M, seed=5)
        bare = self.run(plain)
        watched = make_ms(self.P, self.M, seed=5)
        dry = self.run(watched, self.control(dry_run=True))
        assert watched.tuner is not None
        assert watched.tuner.updates == plain.tuner.updates > 0
        assert (dry.report.overall.stretch
                == bare.report.overall.stretch)
        assert watched.reservation.theta_cap == plain.reservation.theta_cap

    def test_no_tuner_keeps_theta_init(self):
        cfg = ReservationConfig(theta_init=0.123)
        fixed = MSPolicy(self.P, self.M, reservation_cfg=cfg, seed=5)
        fixed.tuner = None
        self.run(fixed)
        assert fixed.reservation.theta_cap == 0.123
        tuned = MSPolicy(self.P, self.M, reservation_cfg=cfg, seed=5)
        self.run(tuned)
        assert tuned.reservation.theta_cap != 0.123
