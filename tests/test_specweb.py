"""Unit tests for the SPECweb96 file mix."""

import bisect

import numpy as np
import pytest

from repro.workload.specweb import (
    CLASS_WEIGHTS,
    FILE_SIZES,
    MEAN_FILE_SIZE,
    closest_file,
    closest_files,
    sample_files,
)


class TestFileSet:
    def test_36_distinct_sizes(self):
        assert len(FILE_SIZES) == 36
        assert len(set(FILE_SIZES)) == 36

    def test_sorted_ascending(self):
        assert list(FILE_SIZES) == sorted(FILE_SIZES)

    def test_size_range(self):
        assert FILE_SIZES[0] == 102            # ~0.1 KB
        assert FILE_SIZES[-1] == 900 * 1024    # 900 KB

    def test_weights_sum_to_one(self):
        assert sum(CLASS_WEIGHTS) == pytest.approx(1.0)

    def test_mean_file_size_consistent(self):
        # Analytic mean vs empirical sampling.
        rng = np.random.default_rng(0)
        sizes = sample_files(200000, rng)
        assert sizes.mean() == pytest.approx(MEAN_FILE_SIZE, rel=0.05)


class TestClosestFile:
    def test_exact_match(self):
        assert closest_file(2048) == 2048

    def test_rounds_to_nearest(self):
        assert closest_file(7400) == 7168    # 7 KB file
        assert closest_file(7900) == 8192    # 8 KB file

    def test_below_minimum(self):
        assert closest_file(0) == 102
        assert closest_file(50) == 102

    def test_above_maximum(self):
        assert closest_file(10**9) == 900 * 1024

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            closest_file(-1)

    def test_always_in_set(self):
        rng = np.random.default_rng(1)
        for size in rng.integers(0, 2_000_000, size=200):
            assert closest_file(int(size)) in FILE_SIZES


def _nearest_by_bisect(size):
    """The per-size snap, kept as the reference for the vectorised one."""
    idx = bisect.bisect_left(FILE_SIZES, size)
    if idx == 0:
        return FILE_SIZES[0]
    if idx == len(FILE_SIZES):
        return FILE_SIZES[-1]
    before, after = FILE_SIZES[idx - 1], FILE_SIZES[idx]
    return before if size - before <= after - size else after


class TestClosestFiles:
    def test_matches_the_reference_around_every_boundary(self):
        pairs = zip(FILE_SIZES, FILE_SIZES[1:])
        probes = sorted(
            {0, 1, 10**9}
            | {s + d for s in FILE_SIZES for d in (-1, 0, 1)}
            | {(a + b) // 2 + d for a, b in pairs for d in (-1, 0, 1)})
        assert closest_files(probes).tolist() == [
            _nearest_by_bisect(p) for p in probes]

    def test_matches_the_reference_on_random_sizes(self):
        sizes = np.random.default_rng(4).integers(0, 1_000_000, size=5000)
        assert closest_files(sizes).tolist() == [
            _nearest_by_bisect(int(s)) for s in sizes]

    def test_tie_goes_to_the_smaller_file(self):
        assert closest_files([153, 154]).tolist() == [102, 204]

    def test_any_negative_rejected(self):
        with pytest.raises(ValueError):
            closest_files([5, -1])

    def test_empty_input(self):
        assert closest_files(np.array([], dtype=np.int64)).size == 0


class TestSampling:
    def test_small_files_dominate(self):
        rng = np.random.default_rng(2)
        sizes = sample_files(10000, rng)
        small = (sizes < 10 * 1024).mean()
        assert small > 0.8  # classes 0+1 are 85% of accesses

    def test_sizes_from_the_set(self):
        rng = np.random.default_rng(3)
        assert set(sample_files(1000, rng)) <= set(FILE_SIZES)

    def test_zero_count(self):
        rng = np.random.default_rng(4)
        assert len(sample_files(0, rng)) == 0

    def test_negative_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            sample_files(-1, rng)
