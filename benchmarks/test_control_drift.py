"""CONTROL — online control plane vs a frozen Theorem-1 design under drift.

Not a paper table: the paper sizes the master set once, offline ("the
system designer can choose the number of master nodes by Theorem 1") and
assumes the workload parameters are stationary.  This bench measures what
that assumption costs when it breaks, and what the :mod:`repro.control`
reconciliation loop buys back.

The scenario is a mid-run workload drift: phase 0 replays a CGI-heavy
mix, phase 1 ramps the dynamic-request share down (20% -> 5% CGI), each
phase at its own iso-utilisation arrival rate so the drift is a *mix*
shift rather than a trivial overload.  The same trace runs twice from
the phase-0 Theorem-1 design:

* **frozen** — the seed behaviour: that design stays in force;
* **controlled** — a ``SimControlLoop`` estimates (a, r, w) online,
  re-solves Theorem 1 every period, and promotes slaves / retunes
  theta'_2 as the estimate firms up.

Documented tolerances (asserted below, recorded in
``CONTROL_DRIFT.json``):

* controlled stretch beats frozen by at least ``MIN_MARGIN`` (the
  measured margin is ~+40-55% across seeds at quick scale);
* controlled stretch lands within ``GAP_TOLERANCE`` of the
  request-weighted per-phase analytic optimum — the clairvoyant
  stationary bound; the gap is real queueing physics (the controller
  needs warm estimation windows before it may act, and the backlog
  accumulated while frozen-at-m0 drains slowly), so "within 2.5x" is the
  claim, not equality.

Both runs are fully trace-audited, the controlled one including the
CONTROL-span consistency invariant (every dispatch consistent with the
theta'_2/role configuration in force; actions respect cooldown).

The confounder variant (satellite of the same PR) attaches the testbed's
``BackgroundLoad`` noise source to both variants: un-modelled background
jobs perturb the busy signals the estimator reads, and the controller
must still steer toward the phase-1 design and keep its margin.
"""

from __future__ import annotations

import json
import pathlib

from benchmarks.conftest import FULL, emit
from repro.analysis.experiments import run_control_drift
from repro.workload.noise import NoiseConfig

SEED = 0

#: Minimum fractional stretch improvement of controlled over frozen.
MIN_MARGIN = 0.15
#: Maximum controlled stretch as a multiple of the per-phase analytic
#: optimum (request-weighted Theorem-1 SM).
GAP_TOLERANCE = 2.5

#: (pct_cgi, utilization, duration) per phase.
PHASES_QUICK = ((20.0, 0.60, 4.0), (5.0, 0.60, 10.0))
PHASES_FULL = ((20.0, 0.60, 8.0), (5.0, 0.60, 20.0))

#: Record of the measured margins (uploaded as a CI artifact).
RECORD_PATH = pathlib.Path("CONTROL_DRIFT.json")


def _record(name: str, res) -> None:
    entry = {
        "trace": res.trace,
        "p": res.p,
        "m_frozen": res.m_frozen,
        "frozen_stretch": round(res.frozen_stretch, 4),
        "controlled_stretch": round(res.controlled_stretch, 4),
        "analytic_sm": round(res.analytic_sm, 4),
        "margin": round(res.margin, 4),
        "min_margin": MIN_MARGIN,
        "optimality_gap": round(res.optimality_gap, 4),
        "gap_tolerance": GAP_TOLERANCE,
        "final_masters": list(res.final_masters),
        "actions": len(res.actions),
        "ticks": res.ticks,
        "background_jobs": res.background_jobs,
        "audited": res.audited,
    }
    existing = {}
    if RECORD_PATH.exists():
        existing = json.loads(RECORD_PATH.read_text())
    existing[name] = entry
    RECORD_PATH.write_text(json.dumps(existing, indent=2, sort_keys=True))
    emit(f"control-drift record [{name}]: "
         + json.dumps(entry, sort_keys=True))


def test_control_drift_beats_frozen_design(benchmark):
    phases = PHASES_FULL if FULL else PHASES_QUICK

    def run():
        return run_control_drift(trace_name="UCB", p=8, inv_r=40,
                                 phase_specs=phases, seed=SEED)

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(res.render())
    _record("drift", res)

    # The controller strictly beats the frozen design, by margin.
    assert res.controlled_stretch < res.frozen_stretch
    assert res.margin >= MIN_MARGIN, (
        f"margin {res.margin:.3f} below the documented {MIN_MARGIN}")

    # ... and lands within the documented tolerance of the clairvoyant
    # per-phase Theorem-1 optimum.
    assert res.optimality_gap <= GAP_TOLERANCE, (
        f"gap {res.optimality_gap:.2f}x above the documented "
        f"{GAP_TOLERANCE}x")

    # It won by actually moving the design: promotions toward the
    # phase-1 optimum, plus theta retunes along the way.
    kinds = {kind for kind, _node, _value in res.actions}
    assert "promote" in kinds
    assert "retune_theta" in kinds
    assert len(res.final_masters) > res.m_frozen


def test_control_drift_with_background_confounder(benchmark):
    """Un-modelled background jobs must not defeat the estimator."""
    phases = PHASES_FULL if FULL else PHASES_QUICK
    noise = NoiseConfig(bg_rate=1.0, bg_demand=0.03, demand_jitter=0.0,
                        seed=77)

    def run():
        return run_control_drift(trace_name="UCB", p=8, inv_r=40,
                                 phase_specs=phases, seed=SEED,
                                 noise=noise)

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(res.render())
    _record("drift-confounded", res)

    # The confounder really ran, and stopped at the boundary: injected
    # background demand never outlives the trace span.
    assert res.background_jobs > 0

    # The controller still steers toward the phase-1 design and still
    # strictly beats frozen; the margin floor is halved because the
    # noise hits both variants but perturbs the controlled run's
    # estimation windows too.
    assert res.controlled_stretch < res.frozen_stretch
    assert res.margin >= MIN_MARGIN / 2
    assert res.optimality_gap <= GAP_TOLERANCE
    assert len(res.final_masters) > res.m_frozen
