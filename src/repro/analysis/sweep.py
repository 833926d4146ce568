"""Shared machinery for the replay experiments: feasibility checks, master
-count selection, and the per-configuration policy bake-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core.policies import make_policy
from repro.core.queuing import Workload
from repro.core.theorem import optimal_masters
from repro.sim.config import SimConfig, paper_sim_config
from repro.sim.metrics import MetricsReport
from repro.workload.cgi_profiles import get_profile
from repro.workload.generator import generate_trace
from repro.workload.replay import pretrain_sampler, replay
from repro.workload.traces import TraceSpec


def resource_utilization(spec: TraceSpec, lam: float, mu_h: float, r: float,
                         p: int) -> tuple[float, float]:
    """(cpu, disk) utilisation per node under perfect load spreading.

    Unlike the single-server queuing model, the simulator lets a node's CPU
    and disk work concurrently, so the binding constraint is the busier
    *resource*, not the summed demand.
    """
    a = spec.arrival_ratio_a
    lam_h = lam / (1.0 + a)
    lam_c = lam - lam_h
    d_h = 1.0 / mu_h
    d_c = 1.0 / (mu_h * r)
    w = _mixture_w(spec)
    # Static service is pure CPU; cache-miss disk reads are second-order.
    cpu = (lam_h * d_h + lam_c * d_c * w) / p
    disk = (lam_c * d_c * (1 - w)) / p
    return cpu, disk


def _mixture_w(spec: TraceSpec) -> float:
    return sum(get_profile(name).w_cpu * wt for name, wt in spec.cgi_mix)


def feasible_rate(spec: TraceSpec, lam: float, mu_h: float, r: float,
                  p: int, limit: float = 0.95) -> bool:
    """Whether the configuration leaves headroom on both resources."""
    cpu, disk = resource_utilization(spec, lam, mu_h, r, p)
    return max(cpu, disk) < limit


def choose_masters(spec: TraceSpec, lam: float, mu_h: float, r: float,
                   p: int) -> int:
    """Number of master nodes for a configuration, per Theorem 1.

    When the single-server queuing model declares the load infeasible (the
    two-resource simulator still copes there because a node's CPU and disk
    overlap), fall back to a two-resource min-max sizing: pick the (m,
    theta) whose most-utilised resource across the master and slave tiers
    is smallest, and return that m.
    """
    if p == 1:
        return 1
    w = Workload.from_ratios(lam=lam, a=spec.arrival_ratio_a, mu_h=mu_h,
                             r=r, p=p)
    if w.feasible:
        try:
            return min(optimal_masters(w).m, p - 1)
        except ArithmeticError:
            pass
    lam_h, lam_c = w.lam_h, w.lam_c
    d_h, d_c = 1.0 / mu_h, 1.0 / (mu_h * r)
    w_cpu = _mixture_w(spec)
    best_m, best_peak = 1, math.inf
    for m in range(1, p):
        peak_m = math.inf
        for theta in (t / 50.0 for t in range(51)):
            master_cpu = (lam_h * d_h + theta * lam_c * d_c * w_cpu) / m
            master_disk = (theta * lam_c * d_c * (1 - w_cpu)) / m
            slave_cpu = ((1 - theta) * lam_c * d_c * w_cpu) / (p - m)
            slave_disk = ((1 - theta) * lam_c * d_c * (1 - w_cpu)) / (p - m)
            peak = max(master_cpu, master_disk, slave_cpu, slave_disk)
            peak_m = min(peak_m, peak)
        if peak_m < best_peak:
            best_m, best_peak = m, peak_m
    return best_m


@dataclass(slots=True)
class BakeoffResult:
    """Per-policy reports for one (trace, lam, r, p) configuration."""

    spec_name: str
    lam: float
    r: float
    p: int
    m: int
    reports: Dict[str, MetricsReport]

    def stretch(self, policy: str) -> float:
        return self.reports[policy].overall.stretch

    def improvement(self, over: str, of: str = "MS") -> float:
        """Paper metric: ``(stretch(over)/stretch(of) - 1) * 100``."""
        return (self.stretch(over) / self.stretch(of) - 1.0) * 100.0


#: The four schedulers of Figure 4 plus the flat baseline, by their
#: :func:`~repro.core.policies.make_policy` names.
BAKEOFF_POLICIES = ("MS", "MS-ns", "MS-nr", "MS-1", "Flat")


def run_bakeoff(
    spec: TraceSpec,
    *,
    lam: float,
    r: float,
    p: int,
    duration: float,
    mu_h: float = 1200.0,
    seed: int = 0,
    policies: Sequence[str] = BAKEOFF_POLICIES,
    m: Optional[int] = None,
    cfg: Optional[SimConfig] = None,
    warmup_fraction: float = 0.15,
) -> BakeoffResult:
    """Replay one configuration under several schedulers.

    All policies see the *same* synthetic trace (same seed), so differences
    are pure scheduling effects.  ``m=None`` sizes the masters with
    :func:`choose_masters`.
    """
    masters = m if m is not None else choose_masters(spec, lam, mu_h, r, p)
    trace = generate_trace(spec, rate=lam, duration=duration, mu_h=mu_h,
                           r=r, seed=seed)
    sampler = pretrain_sampler(trace, seed=seed)
    base_cfg = cfg if cfg is not None else paper_sim_config(num_nodes=p,
                                                            seed=seed)
    base_cfg.static_rate = mu_h
    reports = {}
    for name in policies:
        policy = make_policy(name, p, masters, sampler, seed + 17)
        result = replay(base_cfg.copy(), policy, trace,
                        warmup_fraction=warmup_fraction)
        reports[name] = result.report
    return BakeoffResult(spec_name=spec.name, lam=lam, r=r, p=p,
                         m=masters, reports=reports)
