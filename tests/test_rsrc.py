"""Unit tests for the RSRC cost predictor and node selection."""

import numpy as np
import pytest

from repro.core.rsrc import IDLE_FLOOR, rsrc_cost, select_min_rsrc


class TestCost:
    def test_idle_node_costs_one(self):
        assert rsrc_cost(0.5, 1.0, 1.0) == pytest.approx(1.0)

    def test_pure_cpu_ignores_disk(self):
        assert rsrc_cost(1.0, 0.5, 0.001) == pytest.approx(2.0)

    def test_pure_io_ignores_cpu(self):
        assert rsrc_cost(0.0, 0.001, 0.25) == pytest.approx(4.0)

    def test_equation_five(self):
        w, cpu, disk = 0.7, 0.4, 0.8
        assert rsrc_cost(w, cpu, disk) == pytest.approx(
            w / cpu + (1 - w) / disk)

    def test_floor_prevents_division_blowup(self):
        assert np.isfinite(rsrc_cost(0.5, 0.0, 0.0))
        assert rsrc_cost(0.5, 0.0, 0.0) == pytest.approx(1.0 / IDLE_FLOOR)

    def test_vectorized(self):
        cpu = np.array([1.0, 0.5])
        disk = np.array([1.0, 1.0])
        out = rsrc_cost(0.5, cpu, disk)
        assert out.shape == (2,)
        assert out[1] > out[0]

    def test_rejects_bad_w(self):
        with pytest.raises(ValueError):
            rsrc_cost(1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            rsrc_cost(-0.1, 1.0, 1.0)


class TestSelection:
    def test_picks_minimum(self):
        cpu = np.array([0.2, 0.9, 0.5])
        disk = np.ones(3)
        assert select_min_rsrc(0.9, cpu, disk, [0, 1, 2]) == 1

    def test_respects_candidate_subset(self):
        cpu = np.array([0.9, 0.2, 0.5])
        disk = np.ones(3)
        assert select_min_rsrc(0.9, cpu, disk, [1, 2]) == 2

    def test_weight_changes_choice(self):
        cpu = np.array([0.9, 0.1])
        disk = np.array([0.1, 0.9])
        assert select_min_rsrc(0.95, cpu, disk, [0, 1]) == 0
        assert select_min_rsrc(0.05, cpu, disk, [0, 1]) == 1

    def test_tie_break_random_covers_all(self):
        rng = np.random.default_rng(0)
        cpu = np.ones(4)
        disk = np.ones(4)
        picks = {select_min_rsrc(0.5, cpu, disk, [0, 1, 2, 3], rng)
                 for _ in range(100)}
        assert picks == {0, 1, 2, 3}

    def test_deterministic_without_rng(self):
        cpu = np.ones(4)
        disk = np.ones(4)
        assert select_min_rsrc(0.5, cpu, disk, [2, 0, 1]) == 2

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            select_min_rsrc(0.5, np.ones(2), np.ones(2), [])

    def test_single_candidate(self):
        assert select_min_rsrc(0.5, np.ones(3), np.ones(3), [2]) == 2
