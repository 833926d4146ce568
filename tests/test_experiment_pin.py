"""Exact pins of the experiment harnesses that drive their own clusters.

The golden trace and the p=32 and variant pins replay plain traces.
These cases pin the harnesses that add something on top of a plain
replay: Table 3's noisy "actual" column (demand jitter plus background
jobs), a chaos scenario (crash and recovery events, the resilience
layer, the audit) and the control drift scenario with a background-load
confounder.  Values are compared by ``repr``, so any change to the order
of RNG draws, engine insertions or float operations on these paths shows
up here.
"""

import pytest

from repro.analysis.experiments import run_chaos, run_control_drift, run_table3
from repro.workload.noise import NoiseConfig

pytestmark = pytest.mark.integration

#: ``(trace, comparison, actual %, simulated %)`` per Table 3 row.
TABLE3_ROWS = [
    ("UCB", "MS-1", "-3.7488054718283648", "-2.557510915904826"),
    ("KSU", "MS-1", "-7.900801905257238", "-8.956334999910599"),
    ("ADL", "MS-1", "2.7980114269589906", "-9.47130941906893"),
]

_CHAOS_ROW = (
    "submitted=2610, completed=2610, dropped=0, lost=0, retries=0, "
    "goodput=36.25, slo_violations=0, p99_stretch=7.651066687445685, "
    "static_mean_response=0.0010888556315708732, mean_unavailability=0.0, "
    "balance=0)")
CHAOS_ROWS = [f"ChaosRow(label={label!r}, {_CHAOS_ROW}"
              for label in ("failure-free", "baseline", "resilient")]

DRIFT_ACTIONS = [
    ("set_w", -1, 0.822334280633237),
    ("retune_theta", -1, 0.27966898141292745),
    ("retune_theta", -1, 0.3154613025675106),
    ("demote", 3, None),
    ("retune_theta", -1, 0.1467333853919625),
    ("retune_theta", -1, 0.09414332615155452),
    ("retune_theta", -1, 0.0),
    ("promote", 3, None),
    ("retune_theta", -1, 0.15390545629069913),
    ("retune_theta", -1, 0.12032803727806879),
    ("promote", 4, None),
    ("retune_theta", -1, 0.2912332344123599),
    ("retune_theta", -1, 0.3283902336930561),
    ("retune_theta", -1, 0.28025338077979983),
    ("retune_theta", -1, 0.34700685216783067),
    ("retune_theta", -1, 0.36735521532272036),
]


def test_table3_actual_and_simulated():
    noise = NoiseConfig(bg_rate=0.5, seed=1)
    result = run_table3(rates=(30.0,), duration=8.0, comparisons=("MS-1",),
                        noise=noise)
    got = [(r.trace, r.comparison, repr(r.actual), repr(r.simulated))
           for r in result.rows]
    assert got == TABLE3_ROWS


def test_chaos_storm_burst():
    result = run_chaos("storm-burst", p=8, rate=150.0, duration=12.0)
    assert [repr(row) for row in result.rows] == CHAOS_ROWS
    assert repr(result.horizon) == "72.0"
    assert result.audit_spans == 65085


def test_control_drift_with_background_load():
    noise = NoiseConfig(bg_rate=1.0, bg_demand=0.03, demand_jitter=0.0,
                        seed=3)
    result = run_control_drift(
        p=8, phase_specs=((6.0, 0.6, 4.0), (3.0, 0.6, 10.0)), noise=noise)
    assert repr(result.frozen_stretch) == "2.738296240793432"
    assert repr(result.controlled_stretch) == "3.0210491176383067"
    assert result.actions == DRIFT_ACTIONS
    assert result.ticks == 88
    assert result.background_jobs == 99
