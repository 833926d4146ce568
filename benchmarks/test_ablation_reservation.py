"""Ablation: reservation cap policy for master nodes.

DESIGN.md §6: the adaptive theta'_2 controller vs a fixed analytic cap vs
no cap at all, on a heavy mixed workload where reservation matters.
"""

import numpy as np

from benchmarks.conftest import FULL, emit
from repro.analysis.experiments import iso_load_rate
from repro.analysis.reporting import format_table
from repro.core.policies import MSPolicy
from repro.core.reservation import ReservationConfig
from repro.core.theorem import reservation_ratio
from repro.sim.config import paper_sim_config
from repro.workload.generator import generate_trace
from repro.workload.replay import pretrain_sampler, replay
from repro.workload.traces import UCB


def test_ablation_reservation_modes(benchmark):
    p, m = 16, 2
    r = 1 / 80
    lam = iso_load_rate(UCB, 1200.0, r, p, 0.88)
    duration = 12.0 if FULL else 8.0
    seeds = (3, 4, 5) if FULL else (3, 4)
    analytic_cap = reservation_ratio(UCB.arrival_ratio_a, r, m, p)

    def run_all():
        rows = {"adaptive": [], "fixed-analytic": [], "none": []}
        for seed in seeds:
            cfg = paper_sim_config(num_nodes=p, seed=seed)
            trace = generate_trace(UCB, rate=lam, duration=duration,
                                   mu_h=1200.0, r=r, seed=seed)
            sampler = pretrain_sampler(trace, seed=seed)

            adaptive = MSPolicy(p, m, sampler=sampler, seed=seed + 9)
            rows["adaptive"].append(
                replay(cfg.copy(), adaptive, trace).report.overall.stretch)

            # Without its tuner the gate keeps the cap it was given.
            fixed = MSPolicy(
                p, m, sampler=sampler, seed=seed + 9,
                reservation_cfg=ReservationConfig(theta_init=analytic_cap),
            )
            fixed.tuner = None
            rows["fixed-analytic"].append(
                replay(cfg.copy(), fixed, trace).report.overall.stretch)

            none = MSPolicy(p, m, sampler=sampler, use_reservation=False,
                            seed=seed + 9)
            rows["none"].append(
                replay(cfg.copy(), none, trace).report.overall.stretch)
        return {k: float(np.mean(v)) for k, v in rows.items()}

    means = benchmark.pedantic(run_all, rounds=1, iterations=1)
    base = means["adaptive"]
    emit(format_table(
        ["reservation", "stretch", "vs adaptive"],
        [[k, v, f"{100 * (v / base - 1):+.0f}%"] for k, v in means.items()],
        title=(f"Ablation: master reservation (UCB, p={p}, util=0.88, "
               f"analytic cap={analytic_cap:.3f})"),
    ))

    # Reservation (either flavour) must beat no reservation at high load.
    assert means["adaptive"] < means["none"]
    # The adaptive controller should be competitive with the oracle-ish
    # fixed analytic cap (within 25%).
    assert means["adaptive"] <= means["fixed-analytic"] * 1.25
