"""The paired perf gate's verdict on fixed figures (no perfbench run)."""

from __future__ import annotations

from benchmarks.ab_gate import verdict

BOUND = 0.25
ALL_OK = [True] * 5


def test_equal_medians_pass():
    base = [4.0, 4.2, 4.1, 4.3, 4.0]
    passed, _ = verdict(base, list(base), ALL_OK, BOUND)
    assert passed


def test_worse_beyond_bound_but_winning_most_pairs_passes():
    # Median ratio 3.9 / 2.0, but the change wins 3 of 5 pairs.
    base = [2.0, 2.0, 2.0, 4.0, 4.0]
    change = [5.0, 5.0, 1.9, 3.9, 3.9]
    passed, reason = verdict(base, change, ALL_OK, BOUND)
    assert passed, reason
    assert "median ratio 1.950" in reason and "lost 2/5" in reason


def test_losing_most_pairs_inside_bound_passes():
    base = [4.0, 4.0, 4.0, 4.0, 4.0]
    change = [4.4, 4.4, 4.4, 4.4, 4.4]  # loses 5/5 at a 1.10 ratio
    passed, reason = verdict(base, change, ALL_OK, BOUND)
    assert passed, reason
    assert "lost 5/5" in reason


def test_slower_beyond_bound_and_losing_most_pairs_fails():
    base = [4.0, 4.1, 4.2, 4.0, 4.1]
    change = [6.0, 6.2, 3.9, 6.1, 6.0]  # 1.49 ratio, loses 4/5
    passed, reason = verdict(base, change, ALL_OK, BOUND)
    assert not passed
    assert reason.startswith("slower")


def test_ratio_exactly_at_the_bound_passes():
    base = [4.0] * 5
    assert verdict(base, [5.0] * 5, ALL_OK, BOUND)[0]


def test_any_failed_change_run_fails():
    base = [4.0] * 5
    change = [3.0] * 5  # faster, but one run exited non-zero or was incorrect
    passed, reason = verdict(base, change, [True, True, False, True, True],
                             BOUND)
    assert not passed
    assert "1 change-side run(s) failed" in reason
