"""Unit tests for the offline demand sampler."""

import numpy as np
import pytest

from repro.core.sampling import DemandSampler
from tests.conftest import make_cgi, make_static


class TestObserve:
    def test_single_observation(self):
        s = DemandSampler()
        s.observe("cgi:spin", cpu_time=0.9, io_time=0.1)
        assert s.w("cgi:spin") == pytest.approx(0.9)

    def test_running_mean_over_observations(self):
        s = DemandSampler()
        s.observe("x", 1.0, 0.0)
        s.observe("x", 0.0, 1.0)
        assert s.w("x") == pytest.approx(0.5)

    def test_time_weighted_not_count_weighted(self):
        s = DemandSampler()
        s.observe("x", 3.0, 1.0)   # w=0.75 but heavy
        s.observe("x", 0.0, 0.1)   # tiny io-only
        assert s.w("x") == pytest.approx(3.0 / 4.1)

    def test_unknown_family_uses_default(self):
        s = DemandSampler()
        assert s.w("nope") == pytest.approx(0.5)
        assert s.w("nope", 0.4) == pytest.approx(0.4)

    def test_zero_observation_ignored(self):
        s = DemandSampler()
        s.observe("x", 0.0, 0.0)
        assert s.sample_count("x") == 0

    def test_budget_cap(self):
        s = DemandSampler(max_samples_per_family=3)
        for _ in range(10):
            s.observe("x", 1.0, 0.0)
        assert s.sample_count("x") == 3

    def test_negative_rejected(self):
        s = DemandSampler()
        with pytest.raises(ValueError):
            s.observe("x", -1.0, 0.0)

    def test_families_listing(self):
        s = DemandSampler()
        s.observe("a", 1, 1)
        s.observe("b", 1, 1)
        assert set(s.families) == {"a", "b"}


class TestOfflineTraining:
    def test_train_from_requests(self):
        s = DemandSampler()
        reqs = [make_cgi(req_id=i, cpu=0.03, io=0.003) for i in range(20)]
        n = s.train_offline(reqs)
        assert n == 20
        assert s.w("cgi:spin") == pytest.approx(0.03 / 0.033)

    def test_noise_keeps_estimate_close(self):
        s = DemandSampler()
        reqs = [make_cgi(req_id=i, cpu=0.03, io=0.003) for i in range(200)]
        s.train_offline(reqs, noise=0.1, rng=np.random.default_rng(1))
        assert s.w("cgi:spin") == pytest.approx(0.03 / 0.033, abs=0.05)

    def test_mixed_families_tracked_separately(self):
        s = DemandSampler()
        reqs = ([make_cgi(req_id=i, cpu=0.03, io=0.003) for i in range(5)]
                + [make_cgi(req_id=5 + i, cpu=0.003, io=0.03,
                            type_key="cgi:catalog") for i in range(5)]
                + [make_static(req_id=100 + i) for i in range(5)])
        s.train_offline(reqs)
        assert s.w("cgi:spin") > 0.8
        assert s.w("cgi:catalog") < 0.2
        assert s.w("static") == pytest.approx(1.0)

    def test_respects_budget_during_training(self):
        s = DemandSampler(max_samples_per_family=10)
        reqs = [make_cgi(req_id=i) for i in range(50)]
        n = s.train_offline(reqs)
        assert n == 10

    def test_bad_noise_rejected(self):
        s = DemandSampler()
        with pytest.raises(ValueError):
            s.train_offline([], noise=-0.5)


class TestConstruction:
    def test_bad_budget(self):
        with pytest.raises(ValueError):
            DemandSampler(max_samples_per_family=0)
