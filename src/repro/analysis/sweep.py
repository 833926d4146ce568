"""Shared machinery for the replay experiments: feasibility checks, master
-count selection, and the per-configuration policy bake-off.

Grid points are described by the picklable :class:`BakeoffSpec` so whole
sweeps can fan out across processes via :func:`run_bakeoff_grid` (each
worker regenerates its trace from the spec's seed, so ``jobs=1`` and
``jobs=N`` produce bit-identical reports).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.policies import make_policy
from repro.core.queuing import Workload
from repro.core.theorem import optimal_masters
from repro.perf.pool import run_tasks
from repro.sim.config import SimConfig, paper_sim_config
from repro.sim.metrics import MetricsReport
from repro.workload.cgi_profiles import get_profile
from repro.workload.generator import generate_trace
from repro.workload.replay import pretrain_sampler, replay
from repro.workload.traces import TRACES, TraceSpec


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
    jobs: Optional[int] = None,
) -> BakeoffResult:
    """Replay one configuration under several schedulers.

    All policies see the *same* synthetic trace (same seed), so differences
    are pure scheduling effects.

    ``jobs`` fans the per-policy replays out over worker processes
    (defaulting to ``cfg.parallelism`` when a config is given); each worker
    regenerates the trace from the seed, so results are identical to the
    serial run.
    """
    masters = m if m is not None else choose_masters(spec, lam, mu_h, r, p)
    if jobs is None:
        jobs = cfg.parallelism if cfg is not None else 1
    point = BakeoffSpec(spec_name=spec.name, lam=lam, r=r, p=p,
                        duration=duration, mu_h=mu_h, seed=seed,
                        policies=tuple(policies), m=masters, cfg=cfg,
                        warmup_fraction=warmup_fraction)
    if jobs > 1 and len(point.policies) > 1:
        payloads = [(point, name) for name in point.policies]
        reports = dict(zip(point.policies,
                           (res.unwrap() for res in
                            run_tasks(_policy_task, payloads, jobs))))
    else:
        trace = generate_trace(spec, rate=lam, duration=duration, mu_h=mu_h,
                               r=r, seed=seed)
        sampler = pretrain_sampler(trace, seed=seed)
        base_cfg = _spec_config(point)
        reports = {}
        for name in point.policies:
            policy = make_policy(name, p, masters, sampler, seed + 17)
            result = replay(base_cfg.copy(), policy, trace,
                            warmup_fraction=warmup_fraction)
            reports[name] = result.report
    return BakeoffResult(spec_name=spec.name, lam=lam, r=r, p=p,
                         m=masters, reports=reports)


# -- parallel grids ----------------------------------------------------------


@dataclass(slots=True)
class BakeoffSpec:
    """Picklable description of one bake-off grid point.

    Carries everything a worker process needs to reproduce the
    configuration from scratch — including the trace seed, so the
    generated workload is bit-identical no matter which process replays
    it.  ``m=None`` lets the worker size masters via Theorem 1.
    """

    spec_name: str
    lam: float
    r: float
    p: int
    duration: float
    mu_h: float = 1200.0
    seed: int = 0
    policies: Tuple[str, ...] = BAKEOFF_POLICIES
    m: Optional[int] = None
    cfg: Optional[SimConfig] = None
    warmup_fraction: float = 0.15

    def derive_seed(self, index: int) -> "BakeoffSpec":
        """Deterministic per-config seed for position ``index`` in a grid
        (used by sweeps that vary only the replication index)."""
        return replace(self, seed=self.seed + 1009 * index)


def _spec_config(point: BakeoffSpec) -> SimConfig:
    cfg = point.cfg if point.cfg is not None else paper_sim_config(
        num_nodes=point.p, seed=point.seed)
    cfg.static_rate = point.mu_h
    return cfg


def _policy_task(payload: Tuple[BakeoffSpec, str]) -> MetricsReport:
    """Worker: one (grid point, policy) replay.  Module-level so it pickles
    by reference."""
    point, name = payload
    spec = TRACES[point.spec_name]
    trace = generate_trace(spec, rate=point.lam, duration=point.duration,
                           mu_h=point.mu_h, r=point.r, seed=point.seed)
    sampler = pretrain_sampler(trace, seed=point.seed)
    policy = make_policy(name, point.p, point.m, sampler, point.seed + 17)
    return replay(_spec_config(point).copy(), policy, trace,
                  warmup_fraction=point.warmup_fraction).report


def _bakeoff_task(point: BakeoffSpec) -> BakeoffResult:
    """Worker: one whole grid point (all policies, serial within)."""
    return run_bakeoff(
        TRACES[point.spec_name], lam=point.lam, r=point.r, p=point.p,
        duration=point.duration, mu_h=point.mu_h, seed=point.seed,
        policies=point.policies, m=point.m, cfg=point.cfg,
        warmup_fraction=point.warmup_fraction, jobs=1)


def run_bakeoff_grid(
    points: Sequence[BakeoffSpec],
    jobs: int = 1,
    *,
    chunk_size: int = 1,
) -> List[BakeoffResult]:
    """Run many grid points, ``jobs`` worker processes at a time.

    Results come back in input order and are bit-identical to running each
    point serially (the workers rebuild traces from the specs' own seeds).
    A worker crash fails only its grid point; the error surfaces here as a
    ``RuntimeError`` naming the point.
    """
    results = run_tasks(_bakeoff_task, points, jobs, chunk_size=chunk_size)
    out: List[BakeoffResult] = []
    for point, res in zip(points, results):
        if not res.ok:
            raise RuntimeError(
                f"bake-off failed for {point.spec_name} lam={point.lam:.0f} "
                f"1/r={1 / point.r:.0f} p={point.p}: {res.error}")
        out.append(res.value)
    return out
