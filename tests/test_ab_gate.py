"""The paired perf gate's verdict and figure extraction on fixed
figures (no perfbench run)."""

from __future__ import annotations

import json
import math

from benchmarks.ab_gate import CPU_S, GATES, read_run, verdict

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


def test_a_base_run_without_a_figure_drops_its_pair():
    base = [4.0, math.nan, 4.0, 4.0, 4.0]
    change = [6.0, 1.0, 6.0, 3.0, 6.0]  # 1.5 ratio, loses 3/4 kept pairs
    passed, reason = verdict(base, change, ALL_OK, BOUND)
    assert not passed
    assert "median ratio 1.500" in reason and "lost 3/4" in reason
    assert not verdict([math.nan] * 5, [4.0] * 5, ALL_OK, BOUND)[0]


def record(correct: bool, setup_s: float) -> str:
    """perfbench's stdout: a human table, then the JSON record."""
    return ("== live_ucb_open (end-to-end)\n"
            f"  setup_s {setup_s} s\n"
            + json.dumps({"correct": correct, "attempted": 400, "failed": 0,
                          "metrics": {"setup_s": {"value": setup_s,
                                                  "unit": "s"}}}))


def test_read_run_takes_the_metric_from_the_last_line():
    assert read_run(record(True, 0.183), "setup_s", 9.5) == (0.183, True)
    assert read_run(record(False, 0.183), "setup_s", 9.5) == (0.183, False)


def test_read_run_takes_cpu_seconds_from_the_process():
    assert read_run(record(True, 0.183), CPU_S, 9.5) == (9.5, True)


def test_read_run_without_a_record_or_metric_has_no_figure():
    for stdout in ("", "Traceback (most recent call last):\n  boom",
                   json.dumps({"correct": True, "metrics": {}})):
        value, correct = read_run(stdout, "setup_s", 9.5)
        assert math.isnan(value) and not correct


def test_the_live_boot_is_gated_on_its_setup_time():
    live = [g for g in GATES if g.workload == "live_ucb_open"]
    assert [(g.pairs, g.seconds, g.figure, g.bound_metric)
            for g in live] == [(5, 2, "setup_s", "setup_s")]
