"""Experiment harnesses — one per table/figure in the paper (DESIGN.md §4).

Each ``run_*`` function returns a structured result with a ``render()``
method producing the text the benchmarks print and EXPERIMENTS.md records.
Scaled-down defaults keep a full regeneration tractable on a laptop; pass
larger ``duration``/rate grids to approach the paper's sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.control import ControlConfig

import numpy as np

from repro.analysis.figures import grouped_bar_chart, line_plot
from repro.analysis.reporting import format_table
from repro.analysis.sweep import BakeoffResult, choose_masters, run_bakeoff
from repro.core.policies import make_ms, make_policy
from repro.obs import Tracer, audit_cluster
from repro.core.queuing import Workload, best_msprime, flat_stretch
from repro.core.stretch import improvement_percent
from repro.core.theorem import optimal_masters
from repro.sim.cluster import Cluster
from repro.sim.config import SimConfig, testbed_sim_config
from repro.sim.failures import CHAOS_SCENARIOS, ChaosScenario, FailurePolicy
from repro.sim.resilience import ResilienceConfig
from repro.workload.generator import generate_trace, trace_statistics
from repro.workload.noise import BackgroundLoad, NoiseConfig
from repro.workload.replay import pretrain_sampler, replay
from repro.workload.request import Request
from repro.workload.traces import ADL, EXPERIMENT_TRACES, KSU, TRACES, UCB, TraceSpec

# ---------------------------------------------------------------------------
# Figure 3 — analytic improvement of M/S over flat and over M/S'
# ---------------------------------------------------------------------------

#: The paper's Figure-3 parameter grid: lam=1000, p=32, mu_h=1200,
#: a in {2/8, 3/7, 4/6}, r in {1/10, 1/20, 1/40, 1/80}.
FIG3_A_VALUES: Tuple[float, ...] = (2 / 8, 3 / 7, 4 / 6)
FIG3_INV_R: Tuple[int, ...] = (10, 20, 40, 80)


@dataclass(slots=True)
class Fig3Row:
    a: float
    inv_r: int
    m_opt: int
    theta_opt: float
    sm: float
    sf: float
    sm_prime: float
    improvement_vs_flat: float     # percent
    improvement_vs_msprime: float  # percent


@dataclass(slots=True)
class Fig3Result:
    lam: float
    p: int
    mu_h: float
    rows: List[Fig3Row]

    def series(self, a: float, which: str) -> List[Tuple[int, float]]:
        """(1/r, improvement%) pairs for one ``a`` curve."""
        attr = {"flat": "improvement_vs_flat",
                "msprime": "improvement_vs_msprime"}[which]
        return [(row.inv_r, getattr(row, attr))
                for row in self.rows if abs(row.a - a) < 1e-12]

    def max_improvement(self, which: str) -> float:
        attr = {"flat": "improvement_vs_flat",
                "msprime": "improvement_vs_msprime"}[which]
        return max(getattr(row, attr) for row in self.rows)

    def render(self) -> str:
        rows = [
            [f"{r.a:.3f}", r.inv_r, r.m_opt, f"{r.theta_opt:.3f}",
             r.sm, r.sf, r.sm_prime,
             r.improvement_vs_flat, r.improvement_vs_msprime]
            for r in self.rows
        ]
        table = format_table(
            ["a", "1/r", "m*", "theta*", "SM", "SF", "SM'",
             "MS>flat %", "MS>MS' %"],
            rows,
            title=(f"Figure 3 (analytic): lam={self.lam}, p={self.p}, "
                   f"mu_h={self.mu_h}"),
        )
        a_values = sorted({row.a for row in self.rows})
        curves = {
            f"a={a:.2f}": [(float(x), y) for x, y in self.series(a, "flat")]
            for a in a_values
        }
        plot = line_plot(curves, title="M/S improvement over flat (%)",
                         xlabel="1/r", ylabel="improvement %")
        return table + "\n\n" + plot


def run_fig3(lam: float = 1000.0, p: int = 32, mu_h: float = 1200.0,
             a_values: Sequence[float] = FIG3_A_VALUES,
             inv_r_values: Sequence[int] = FIG3_INV_R) -> Fig3Result:
    """Regenerate both panels of Figure 3 from the queuing formulas."""
    rows: List[Fig3Row] = []
    for a in a_values:
        for inv_r in inv_r_values:
            w = Workload.from_ratios(lam=lam, a=a, mu_h=mu_h,
                                     r=1.0 / inv_r, p=p)
            if not w.feasible:
                continue
            design = optimal_masters(w)
            sf = flat_stretch(w)
            smp = best_msprime(w).total
            rows.append(Fig3Row(
                a=a, inv_r=inv_r, m_opt=design.m, theta_opt=design.theta,
                sm=design.sm, sf=sf, sm_prime=smp,
                improvement_vs_flat=improvement_percent(sf, design.sm),
                improvement_vs_msprime=improvement_percent(smp, design.sm),
            ))
    return Fig3Result(lam=lam, p=p, mu_h=mu_h, rows=rows)


# ---------------------------------------------------------------------------
# Table 1 — trace characteristics of the synthetic generators
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Table1Row:
    name: str
    spec_pct_cgi: float
    got_pct_cgi: float
    spec_interval: float
    got_interval: float
    spec_html: float
    got_html: float
    spec_cgi_size: float
    got_cgi_size: float


@dataclass(slots=True)
class Table1Result:
    rows: List[Table1Row]
    n: int

    def render(self) -> str:
        rows = [
            [r.name, r.spec_pct_cgi, r.got_pct_cgi, r.spec_interval,
             r.got_interval, r.spec_html, r.got_html, r.spec_cgi_size,
             r.got_cgi_size]
            for r in self.rows
        ]
        return format_table(
            ["trace", "%CGI spec", "%CGI got", "intv spec", "intv got",
             "HTML spec", "HTML got", "CGI spec", "CGI got"],
            rows,
            title=f"Table 1 (synthetic trace statistics, n={self.n} each)",
            floatfmt="{:.3f}",
        )


def run_table1(n: int = 20000, seed: int = 7) -> Table1Result:
    """Generate each Table-1 trace at its native rate and compare stats."""
    rows: List[Table1Row] = []
    for spec in TRACES.values():
        trace = generate_trace(spec, rate=spec.native_rate, n=n, seed=seed)
        stats = trace_statistics(trace)
        rows.append(Table1Row(
            name=spec.name,
            spec_pct_cgi=spec.pct_cgi, got_pct_cgi=stats["pct_cgi"],
            spec_interval=spec.mean_interval,
            got_interval=stats["mean_interval"],
            spec_html=float(spec.html_size), got_html=stats["html_size"],
            spec_cgi_size=float(spec.cgi_size),
            got_cgi_size=stats["cgi_size"],
        ))
    return Table1Result(rows=rows, n=n)


# ---------------------------------------------------------------------------
# Table 2 / Figure 4 — the simulated optimization bake-off
# ---------------------------------------------------------------------------

#: Offered-load levels replayed per (trace, 1/r).  The paper fixes a ladder
#: of arrival rates per trace ("arrival rates are scaled in replaying to
#: reflect various workloads ... such a setting creates reasonable loads");
#: because the offered load of a fixed rate varies by a factor of ~8 across
#: the 1/r sweep, we pin the *utilisation* instead and derive each rate, so
#: every grid point sits at a comparable, paper-style "reasonable" load.
FIG4_UTILIZATIONS: Tuple[float, ...] = (0.6, 0.75, 0.9)

FIG4_INV_R: Tuple[int, ...] = (20, 40, 80, 160)


def iso_load_rate(spec: TraceSpec, mu_h: float, r: float, p: int,
                  utilization: float) -> float:
    """Arrival rate putting the single-server offered load at
    ``utilization * p`` for this trace and CGI cost ratio."""
    if not 0.0 < utilization < 1.0:
        raise ValueError("utilization must be in (0, 1)")
    unit = Workload.from_ratios(lam=1.0, a=spec.arrival_ratio_a,
                                mu_h=mu_h, r=r, p=p).total_offered
    return utilization * p / unit


@dataclass(slots=True)
class Fig4Result:
    results: List[BakeoffResult]
    utilizations: Dict[Tuple[str, float, int, int], float] = field(
        default_factory=dict)

    def improvements(self, over: str) -> List[float]:
        return [res.improvement(over) for res in self.results]

    def max_improvement(self, over: str) -> float:
        return max(self.improvements(over))

    def render(self) -> str:
        rows = []
        for res in self.results:
            util = self.utilizations.get(
                (res.spec_name, res.lam, res.p, int(round(1 / res.r))), 0.0)
            rows.append([
                res.spec_name, res.p, f"{util:.2f}", int(res.lam),
                int(round(1 / res.r)), res.m, res.stretch("MS"),
                res.improvement("MS-ns"), res.improvement("MS-nr"),
                res.improvement("MS-1"), res.improvement("Flat"),
            ])
        table = format_table(
            ["trace", "p", "util", "lam", "1/r", "m", "S(MS)",
             ">MS-ns %", ">MS-nr %", ">MS-1 %", ">Flat %"],
            rows,
            title="Figure 4 (simulated): improvement of M/S over ablations",
        )
        groups = []
        for res in self.results:
            label = (f"{res.spec_name} p={res.p} 1/r="
                     f"{int(round(1 / res.r))} lam={int(res.lam)}")
            groups.append((label, [
                ("vs MS-ns", res.improvement("MS-ns")),
                ("vs MS-nr", res.improvement("MS-nr")),
                ("vs MS-1", res.improvement("MS-1")),
            ]))
        bars = grouped_bar_chart(
            groups, unit="%",
            title="M/S improvement per configuration (bars clipped at 0)")
        return table + "\n\n" + bars


def run_fig4(
    p_values: Sequence[int] = (32, 128),
    inv_r_values: Sequence[int] = FIG4_INV_R,
    utilizations: Sequence[float] = FIG4_UTILIZATIONS,
    base_duration: float = 10.0,
    seed: int = 11,
    mu_h: float = 1200.0,
) -> Fig4Result:
    """Replay the Figure-4 grid: {UCB,KSU,ADL} x load ladder x 1/r x {p}.

    ``base_duration`` is the replayed trace span for a 32-node cluster;
    larger clusters replay proportionally shorter spans so each grid point
    simulates a comparable number of requests.
    """
    results: List[BakeoffResult] = []
    utils: Dict[Tuple[str, float, int, int], float] = {}
    for p in p_values:
        duration = max(3.0, base_duration * 32.0 / p)
        for spec in EXPERIMENT_TRACES:
            for util in utilizations:
                for inv_r in inv_r_values:
                    r = 1.0 / inv_r
                    lam = iso_load_rate(spec, mu_h, r, p, util)
                    results.append(run_bakeoff(
                        spec, lam=lam, r=r, p=p, duration=duration,
                        mu_h=mu_h, seed=seed))
                    utils[(spec.name, lam, p, inv_r)] = util
    return Fig4Result(results=results, utilizations=utils)


@dataclass(slots=True)
class Table2Result:
    rows: List[Tuple[str, int, Tuple[int, ...], Tuple[int, ...], float]]

    def render(self) -> str:
        rows = [
            [name, p, "/".join(str(x) for x in lams),
             "/".join(f"1_{ir}" for ir in inv_rs), f"{a:.2f}"]
            for name, p, lams, inv_rs, a in self.rows
        ]
        return format_table(
            ["trace", "p", "lam (req/s)", "r values", "a"],
            rows, title="Table 2 (workload parameters examined)",
        )


def run_table2(
    p_values: Sequence[int] = (32, 128),
    inv_r_values: Sequence[int] = FIG4_INV_R,
    utilizations: Sequence[float] = FIG4_UTILIZATIONS,
    mu_h: float = 1200.0,
) -> Table2Result:
    """Emit the parameter grid actually swept (Table 2's analogue)."""
    rows = []
    for p in p_values:
        for spec in EXPERIMENT_TRACES:
            lams = tuple(sorted({
                int(round(iso_load_rate(spec, mu_h, 1.0 / ir, p, u)))
                for u in utilizations for ir in inv_r_values
            }))
            rows.append((spec.name, p, lams, tuple(inv_r_values),
                         spec.arrival_ratio_a))
    return Table2Result(rows=rows)


# ---------------------------------------------------------------------------
# Figure 5 — sensitivity to a fixed number of masters
# ---------------------------------------------------------------------------

#: Reference parameters the paper samples to fix m: r=1/60, a=0.44,
#: lam=750 (p=32) / 3000 (p=128).  It reports m=6 and m=25.
FIG5_REFERENCE = {"r": 1.0 / 60.0, "a": 0.44, 32: 750.0, 128: 3000.0}

#: The 12 bar groups: (trace, utilization, 1/r) per cluster size, spanning
#: the paper's "r varies from 1/20 to 1/160, a from 0.12 to 0.78" ranges.
#: Static-heavy/cheap-CGI corners are excluded: the paper's rate ladder
#: (500-2000 req/s at p=32) never pushes the static tier beyond a handful
#: of nodes, and a fixed master count is only meaningful in that regime.
FIG5_CONFIGS: Dict[int, Tuple[Tuple[str, float, int], ...]] = {
    32: (("UCB", 0.75, 80), ("UCB", 0.6, 160),
         ("KSU", 0.75, 80), ("KSU", 0.6, 40),
         ("ADL", 0.75, 40), ("ADL", 0.6, 20)),
    128: (("UCB", 0.75, 80), ("UCB", 0.6, 160),
          ("KSU", 0.75, 80), ("KSU", 0.6, 40),
          ("ADL", 0.75, 40), ("ADL", 0.6, 20)),
}


@dataclass(slots=True)
class Fig5Row:
    trace: str
    p: int
    lam: float
    inv_r: int
    m_fixed: int
    m_adaptive: int
    stretch_fixed: float
    stretch_adaptive: float

    @property
    def degradation(self) -> float:
        """Percent increase of the fixed-m stretch over the adaptive one."""
        return (self.stretch_fixed / self.stretch_adaptive - 1.0) * 100.0


@dataclass(slots=True)
class Fig5Result:
    rows: List[Fig5Row]
    m_fixed: Dict[int, int]

    @property
    def max_degradation(self) -> float:
        return max(r.degradation for r in self.rows)

    @property
    def mean_degradation(self) -> float:
        degs = [r.degradation for r in self.rows]
        return sum(degs) / len(degs)

    def render(self) -> str:
        rows = [[r.trace, r.p, int(r.lam), r.inv_r, r.m_fixed, r.m_adaptive,
                 r.stretch_fixed, r.stretch_adaptive, r.degradation]
                for r in self.rows]
        txt = format_table(
            ["trace", "p", "lam", "1/r", "m fixed", "m adapt",
             "S fixed", "S adapt", "degr %"],
            rows, title="Figure 5 (simulated): fixed vs adaptive m",
        )
        txt += (f"\nmax degradation {self.max_degradation:.1f}% "
                f"(paper: <=9%), mean {self.mean_degradation:.1f}% "
                f"(paper: ~4%)")
        groups = [(f"{r.trace} p={r.p} 1/r={r.inv_r}",
                   [("fixed m", r.stretch_fixed),
                    ("adaptive", r.stretch_adaptive)])
                  for r in self.rows]
        txt += "\n\n" + grouped_bar_chart(
            groups, title="stretch: fixed vs adaptive master count")
        return txt


def fixed_master_count(p: int, mu_h: float = 1200.0) -> int:
    """The paper's fixed-m rule: Theorem 1 at the reference parameters.

    The paper samples lam=750 for p=32 and lam=3000 for p=128; other
    cluster sizes scale the reference rate proportionally.
    """
    ref = FIG5_REFERENCE
    lam = ref.get(p, ref[32] * p / 32.0)
    w = Workload.from_ratios(lam=lam, a=ref["a"], mu_h=mu_h,
                             r=ref["r"], p=p)
    return optimal_masters(w).m


def run_fig5(
    p_values: Sequence[int] = (32, 128),
    duration: float = 8.0,
    seed: int = 23,
    configs: Optional[Dict[int, Tuple[Tuple[str, float, int], ...]]] = None,
    mu_h: float = 1200.0,
) -> Fig5Result:
    """Degradation of M/S with a fixed master count vs per-config sizing."""
    configs = configs or FIG5_CONFIGS
    m_fixed_by_p = {p: fixed_master_count(p, mu_h) for p in p_values}
    rows: List[Fig5Row] = []
    for p in p_values:
        span = max(3.0, duration * 32.0 / p)
        m_fixed = m_fixed_by_p[p]
        for trace_name, util, inv_r in configs[p]:
            spec = TRACES[trace_name]
            r = 1.0 / inv_r
            lam = iso_load_rate(spec, mu_h, r, p, util)
            m_adapt = choose_masters(spec, lam, mu_h, r, p)
            fixed, adaptive = (
                run_bakeoff(spec, lam=lam, r=r, p=p, duration=span,
                            mu_h=mu_h, seed=seed, policies=("MS",), m=m)
                for m in (m_fixed, m_adapt))
            rows.append(Fig5Row(
                trace=trace_name, p=p, lam=lam, inv_r=inv_r,
                m_fixed=m_fixed, m_adaptive=m_adapt,
                stretch_fixed=fixed.stretch("MS"),
                stretch_adaptive=adaptive.stretch("MS"),
            ))
    return Fig5Result(rows=rows, m_fixed=m_fixed_by_p)


# ---------------------------------------------------------------------------
# Table 3 — simulator vs (emulated) Sun-cluster validation
# ---------------------------------------------------------------------------

#: Master counts the paper used on the 6-node testbed per trace.
TABLE3_MASTERS = {"UCB": 3, "KSU": 1, "ADL": 1}
#: The paper drove its Ultra-1 cluster at 20 and 40 req/s; those loads sit
#: below 35% utilisation in our (faster-I/O) substrate, where all schedulers
#: coincide, so the emulated validation replays at 40 and 70 req/s to reach
#: the same moderately-loaded regime the paper measured.
TABLE3_RATES: Tuple[float, ...] = (40.0, 70.0)
TABLE3_R = 1.0 / 40.0


@dataclass(slots=True)
class Table3Row:
    trace: str
    rate: float
    comparison: str       # "MS-1", "MS-ns" or "MS-nr"
    actual: float         # improvement % on the noisy replay
    simulated: float      # improvement % on the clean simulator

    @property
    def gap(self) -> float:
        return self.simulated - self.actual


@dataclass(slots=True)
class Table3Result:
    rows: List[Table3Row]

    @property
    def mean_abs_gap(self) -> float:
        gaps = [abs(r.gap) for r in self.rows]
        return sum(gaps) / len(gaps)

    def render(self) -> str:
        rows = [[r.trace, int(r.rate), r.comparison, r.actual, r.simulated,
                 r.gap] for r in self.rows]
        txt = format_table(
            ["trace", "rate/s", "MS vs", "actual %", "simu %", "gap"],
            rows,
            title=("Table 3: M/S improvement, emulated Sun cluster "
                   "(actual) vs clean simulator (simu)"),
        )
        txt += (f"\nmean |gap| = {self.mean_abs_gap:.1f} points "
                f"(paper: ~3, simulator slightly optimistic)")
        return txt


def run_table3(
    rates: Sequence[float] = TABLE3_RATES,
    r: float = TABLE3_R,
    duration: float = 60.0,
    seed: int = 31,
    comparisons: Sequence[str] = ("MS-1", "MS-ns", "MS-nr"),
    noise: Optional[NoiseConfig] = None,
) -> Table3Result:
    """Replay the Sun-cluster validation with and without ``noise``.

    "Actual" replays each trace on the Sun-cluster configuration with
    ``noise`` (default :class:`NoiseConfig`); "simu" is the same replay
    on the clean simulator.
    """
    noise = noise or NoiseConfig()
    sun = testbed_sim_config()
    mu_h, p = sun.static_rate, sun.num_nodes
    rows: List[Table3Row] = []
    for spec in (UCB, KSU, ADL):
        m = TABLE3_MASTERS[spec.name]
        for rate in rates:
            trace = generate_trace(spec, rate=rate, duration=duration,
                                   mu_h=mu_h, r=r, seed=seed)
            sampler = pretrain_sampler(trace, seed=seed)

            def stretch(policy_name: str,
                        run_noise: Optional[NoiseConfig]) -> float:
                policy = make_policy(policy_name, p, m, sampler, seed + 5)
                return replay(testbed_sim_config(), policy, trace,
                              noise=run_noise).report.overall.stretch

            ms_actual, ms_sim = stretch("MS", noise), stretch("MS", None)
            for comp in comparisons:
                other_actual = stretch(comp, noise)
                other_sim = stretch(comp, None)
                rows.append(Table3Row(
                    trace=spec.name, rate=rate, comparison=comp,
                    actual=improvement_percent(other_actual, ms_actual),
                    simulated=improvement_percent(other_sim, ms_sim),
                ))
    return Table3Result(rows=rows)


# ---------------------------------------------------------------------------
# Chaos — availability of the resilience layer under composed failures
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class ChaosRow:
    """One cluster variant's availability under a chaos scenario."""

    label: str
    submitted: int
    completed: int
    dropped: int
    lost: int
    retries: int
    goodput: float
    slo_violations: int
    p99_stretch: float
    static_mean_response: float
    mean_unavailability: float
    balance: int


@dataclass(slots=True)
class ChaosResult:
    """Baseline vs resilient (vs failure-free reference) on one scenario."""

    scenario: ChaosScenario
    horizon: float
    rows: List[ChaosRow]
    #: Whether each variant's span stream passed the trace auditor.
    audited: bool = False
    #: Total spans audited across the scenario's variants.
    audit_spans: int = 0

    def row(self, label: str) -> ChaosRow:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)

    def render(self) -> str:
        rows = [[r.label, r.submitted, r.completed, r.dropped, r.lost,
                 r.retries, f"{r.goodput:.1f}", r.slo_violations,
                 f"{r.p99_stretch:.1f}", f"{r.static_mean_response * 1e3:.1f}",
                 f"{r.mean_unavailability * 100:.1f}", r.balance]
                for r in self.rows]
        txt = format_table(
            ["variant", "subm", "done", "drop", "lost", "retry",
             "goodput/s", "slo-viol", "p99 S", "static ms",
             "unavail %", "balance"],
            rows,
            title=(f"Chaos scenario {self.scenario.name!r}: "
                   f"{self.scenario.description}"),
        )
        txt += ("\nbalance must be 0 on every row "
                "(request-conservation invariant)")
        return txt


def _chaos_trace(spec: TraceSpec, scenario: ChaosScenario, rate: float,
                 duration: float, mu_h: float, r: float,
                 seed: int) -> List[Request]:
    """The scenario's trace: base load plus its overload burst, renumbered."""
    base = generate_trace(spec, rate=rate, duration=duration, mu_h=mu_h,
                          r=r, seed=seed)
    if scenario.burst_factor > 1.0 and scenario.burst_duration_frac > 0:
        start, end = scenario.burst_window(duration)
        extra = generate_trace(spec, rate=rate * (scenario.burst_factor - 1.0),
                               duration=end - start, mu_h=mu_h, r=r,
                               seed=seed + 1, start=start)
        base = sorted(base + extra, key=lambda q: q.arrival_time)
        for i, req in enumerate(base):
            req.req_id = i
    return base


def default_chaos_resilience(duration: float) -> ResilienceConfig:
    """Resilience tuning used by the chaos experiments: finite dynamic
    deadlines well above healthy response times, a modest retry budget,
    and shedding thresholds reachable within a short run."""
    return ResilienceConfig(
        deadline_static=None,
        deadline_dynamic=min(10.0, duration / 4.0),
        max_retries=4,
        shed_stretch=40.0,
        shed_backlog=30.0,
    )


def run_chaos(
    scenario: str | ChaosScenario = "storm-burst",
    trace_name: str = "UCB",
    p: int = 16,
    rate: float = 400.0,
    duration: float = 60.0,
    inv_r: int = 40,
    drain: float = 60.0,
    seed: int = 0,
    mu_h: float = 1200.0,
    detection_mode: str = "monitor",
    resilience_cfg: Optional[ResilienceConfig] = None,
    include_reference: bool = True,
    audit: bool = True,
    control: Optional["ControlConfig"] = None,
) -> ChaosResult:
    """Drive one chaos scenario against seed-behaviour and resilient M/S.

    Three clusters replay the *same* trace (base load plus the scenario's
    overload burst) under the same policy construction and seeds:

    * ``failure-free`` — resilience armed but no chaos events: the
      reference the degradation criteria compare against;
    * ``baseline`` — chaos with seed semantics (no deadlines/retry budget
      /shedding; crashed work restarts per the failure policy);
    * ``resilient`` — chaos with the resilience layer armed.

    With ``control`` set (a :class:`repro.control.ControlConfig`), every
    variant also runs with the online control plane attached, so role
    transitions race the scenario's crash/recovery events and the audit
    additionally proves the CONTROL-span invariants.

    The request-conservation invariant is asserted on every variant, and
    with ``audit=True`` (the default) each variant also runs with tracing
    on and its full span stream through the trace auditor — causality,
    device exclusivity, reservation caps, conservation, and stretch
    recomputation are all re-derived from the trace and any violation
    raises :class:`repro.obs.TraceAuditError`.  Each variant gets a fresh
    tracer that is discarded after its audit, bounding span memory.
    """
    if isinstance(scenario, str):
        try:
            scenario = CHAOS_SCENARIOS[scenario]
        except KeyError:
            raise ValueError(
                f"unknown scenario {scenario!r}; known: "
                f"{sorted(CHAOS_SCENARIOS)}") from None
    scenario.validate()
    spec = TRACES[trace_name]
    r = 1.0 / inv_r
    trace = _chaos_trace(spec, scenario, rate, duration, mu_h, r, seed)
    sampler = pretrain_sampler(trace, seed=seed)
    m = choose_masters(spec, rate, mu_h, r, p)
    res_cfg = resilience_cfg or default_chaos_resilience(duration)
    failure_policy = FailurePolicy(detection_mode=detection_mode)

    variants: List[Tuple[str, bool, Optional[ResilienceConfig]]] = []
    if include_reference:
        variants.append(("failure-free", False, res_cfg))
    variants.append(("baseline", True, None))
    variants.append(("resilient", True, res_cfg))

    rows: List[ChaosRow] = []
    horizon = duration + drain
    audit_spans = 0
    for label, inject, res in variants:
        policy = make_ms(p, m, sampler=sampler, seed=seed + 5)
        tracer = Tracer() if audit else None
        cluster = Cluster(SimConfig(num_nodes=p, seed=seed),
                          policy, failure_policy=failure_policy,
                          resilience=res, tracer=tracer)
        if control is not None:
            from repro.control import SimControlLoop

            SimControlLoop(cluster, control).start()
        if inject:
            scenario.apply(cluster, duration,
                           np.random.default_rng(seed + 17))
        report = cluster.replay(trace, drain=drain, end=duration)
        cluster.assert_conservation()
        if tracer is not None:
            audit_spans += len(tracer)
            audit_cluster(cluster).raise_if_failed()
            tracer.clear()
        avail = cluster.availability(horizon=cluster.engine.now,
                                     slo_stretch=res_cfg.slo_stretch)
        static_mean = report.static.mean_response
        rows.append(ChaosRow(
            label=label,
            submitted=avail.submitted,
            completed=avail.completed,
            dropped=avail.total_dropped,
            lost=avail.lost,
            retries=avail.retries,
            goodput=avail.goodput,
            slo_violations=avail.slo_violations,
            p99_stretch=avail.p99_stretch,
            static_mean_response=static_mean,
            mean_unavailability=avail.mean_unavailability,
            balance=avail.balance,
        ))
        horizon = max(horizon, cluster.engine.now)
    return ChaosResult(scenario=scenario, horizon=horizon, rows=rows,
                       audited=audit, audit_spans=audit_spans)


# ---------------------------------------------------------------------------
# Control drift — online control plane vs a frozen Theorem-1 design
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class DriftPhase:
    """One stationary phase of the drift scenario (filled in by the run)."""

    pct_cgi: float          # CGI percentage, 0-100
    utilization: float      # target single-server offered load / p
    duration: float         # phase span, virtual seconds
    rate: float = 0.0       # iso-utilisation arrival rate (derived)
    requests: int = 0       # generated request count
    m_opt: int = 0          # Theorem-1 optimal masters for this phase
    analytic_sm: float = 0.0  # Theorem-1 predicted M/S stretch at m_opt


@dataclass(slots=True)
class ControlDriftResult:
    """Frozen-design vs controlled cluster on a workload-drift trace."""

    trace: str
    p: int
    m_frozen: int
    phases: List[DriftPhase]
    frozen_stretch: float
    controlled_stretch: float
    #: Request-weighted mean of the per-phase analytic optima — the
    #: stationary lower bound a clairvoyant per-phase design would see.
    analytic_sm: float
    #: ``(kind, node_id, value)`` of every *applied* control action.
    actions: List[Tuple[str, int, object]]
    final_masters: Tuple[int, ...]
    ticks: int
    audited: bool
    dry_run: bool
    background_jobs: int = 0

    @property
    def margin(self) -> float:
        """Fractional stretch improvement of controlled over frozen."""
        return self.frozen_stretch / self.controlled_stretch - 1.0

    @property
    def optimality_gap(self) -> float:
        """Controlled stretch over the per-phase analytic optimum."""
        return self.controlled_stretch / self.analytic_sm

    def render(self) -> str:
        rows = [[f"phase {i}", f"{ph.pct_cgi:.0f}%", f"{ph.rate:.0f}",
                 f"{ph.duration:.0f}s", ph.requests, ph.m_opt,
                 f"{ph.analytic_sm:.3f}"]
                for i, ph in enumerate(self.phases)]
        txt = format_table(
            ["phase", "cgi", "rate/s", "span", "requests", "m*", "SM*"],
            rows,
            title=(f"Control drift on {self.trace}-like trace, p={self.p} "
                   f"(frozen design m={self.m_frozen})"),
        )
        kinds: Dict[str, int] = {}
        for kind, _node, _value in self.actions:
            kinds[kind] = kinds.get(kind, 0) + 1
        acted = ", ".join(f"{k}x{v}" for k, v in sorted(kinds.items())) \
            or "none"
        txt += (
            f"\nfrozen stretch      {self.frozen_stretch:.3f}"
            f"\ncontrolled stretch  {self.controlled_stretch:.3f}"
            f"  ({'dry-run, no actuation' if self.dry_run else acted})"
            f"\nanalytic optimum    {self.analytic_sm:.3f}"
            f"  (request-weighted per-phase Theorem 1)"
            f"\nmargin              {self.margin * 100:+.1f}%"
            f"  (gap to optimum {self.optimality_gap:.2f}x)"
            f"\nfinal masters       {list(self.final_masters)}"
            f"  after {self.ticks} control ticks"
        )
        if self.background_jobs:
            txt += f"\nbackground jobs     {self.background_jobs} (confounder)"
        return txt


def drift_trace(spec: TraceSpec,
                phases: Sequence[DriftPhase],
                mu_h: float, r: float, p: int,
                seed: int = 0) -> List[Request]:
    """Concatenate one iso-utilisation sub-trace per phase.

    Each phase replays ``spec`` with its CGI share overridden, at the
    arrival rate that pins the single-server offered load at
    ``utilization * p`` *for that phase's mix* — so the drift is a mix
    shift, not a trivial overload.  Phase fields (rate, request count)
    are filled in in place; request ids are globally renumbered.
    """
    import dataclasses

    out: List[Request] = []
    start = 0.0
    for i, ph in enumerate(phases):
        sub_spec = dataclasses.replace(spec, pct_cgi=ph.pct_cgi)
        ph.rate = iso_load_rate(sub_spec, mu_h, r, p, ph.utilization)
        sub = generate_trace(sub_spec, rate=ph.rate, duration=ph.duration,
                             mu_h=mu_h, r=r, seed=seed + 31 * i,
                             start=start)
        ph.requests = len(sub)
        out.extend(sub)
        start += ph.duration
    for i, req in enumerate(out):
        req.req_id = i
    return out


def run_control_drift(
    trace_name: str = "UCB",
    p: int = 8,
    mu_h: float = 1200.0,
    inv_r: int = 40,
    phase_specs: Sequence[Tuple[float, float, float]] = (
        (20.0, 0.60, 4.0), (5.0, 0.60, 10.0)),
    seed: int = 0,
    control: Optional["ControlConfig"] = None,
    dry_run: bool = False,
    audit: bool = True,
    drain: float = 30.0,
    noise: Optional[NoiseConfig] = None,
    tracer: Optional[Tracer] = None,
) -> ControlDriftResult:
    """The control plane's headline scenario: mid-run workload drift.

    A two-phase (or longer) trace ramps the dynamic-request share —
    ``phase_specs`` is ``(pct_cgi, utilization, duration)`` per phase —
    and the same trace is replayed twice under M/S policies sized by
    Theorem 1 *for phase 0*:

    * **frozen** — that design stays in force for the whole run (the
      seed repo's behaviour: design once, never look back);
    * **controlled** — a :class:`repro.control.SimControlLoop` with
      ``control`` (default :class:`~repro.control.ControlConfig`)
      estimates the live workload and re-solves Theorem 1 periodically,
      retuning theta'_2 / the RSRC weight and stepping the master set.

    Both runs are trace-audited when ``audit`` is set (the controlled
    one including the CONTROL-span consistency invariant).  ``noise``
    optionally attaches a :class:`repro.workload.noise.NoiseConfig`-driven
    background-job confounder to *both* variants, exercising the
    estimator under un-modelled load.  ``dry_run`` arms the controller in
    shadow mode: decisions are logged but never actuated, so the two
    variants must then agree up to background-load jitter.
    """
    from repro.control import ControlConfig, SimControlLoop

    spec = TRACES[trace_name]
    r = 1.0 / inv_r
    phases = [DriftPhase(pct_cgi=c, utilization=u, duration=d)
              for c, u, d in phase_specs]
    trace = drift_trace(spec, phases, mu_h, r, p, seed=seed)
    total_span = sum(ph.duration for ph in phases)

    # Per-phase analytic optima (the clairvoyant stationary bound).
    import dataclasses

    for ph in phases:
        w = Workload.from_ratios(
            lam=ph.rate,
            a=dataclasses.replace(spec, pct_cgi=ph.pct_cgi).arrival_ratio_a,
            mu_h=mu_h, r=r, p=p)
        design = optimal_masters(w)
        ph.m_opt, ph.analytic_sm = design.m, design.sm
    weight = sum(ph.requests for ph in phases)
    analytic_sm = sum(ph.analytic_sm * ph.requests for ph in phases) / weight

    m_frozen = choose_masters(
        dataclasses.replace(spec, pct_cgi=phases[0].pct_cgi),
        phases[0].rate, mu_h, r, p)
    sampler = pretrain_sampler(trace, seed=seed)
    warmup = trace[0].arrival_time + 0.1 * total_span

    if control is None:
        control = ControlConfig()
    if dry_run:
        control = dataclasses.replace(control, dry_run=True)

    def one_run(control_cfg, run_tracer=None):
        policy = make_ms(p, m_frozen, sampler=sampler, seed=seed + 5)
        if run_tracer is None and audit:
            run_tracer = Tracer()
        cluster = Cluster(SimConfig(num_nodes=p, static_rate=mu_h,
                                    seed=seed), policy, tracer=run_tracer)
        loop = None
        if control_cfg is not None:
            loop = SimControlLoop(cluster, control_cfg).start()
        bg = None
        if noise is not None:
            bg = BackgroundLoad(cluster, noise, stop_at=total_span)
            bg.start()
        report = cluster.replay(trace, drain=drain, warmup=warmup,
                                end=total_span)
        cluster.assert_conservation()
        if audit and run_tracer is not None:
            audit_cluster(cluster).raise_if_failed()
        return report.overall.stretch, loop, cluster, bg

    frozen_stretch, _, _, _ = one_run(None)
    controlled_stretch, loop, cluster, bg = one_run(control, tracer)
    ctl = loop.controller
    return ControlDriftResult(
        trace=trace_name, p=p, m_frozen=m_frozen, phases=phases,
        frozen_stretch=frozen_stretch,
        controlled_stretch=controlled_stretch,
        analytic_sm=analytic_sm,
        actions=[(a.kind, a.node_id, a.value) for a in ctl.applied],
        final_masters=tuple(sorted(cluster.policy.master_ids)),
        ticks=ctl.ticks, audited=audit, dry_run=control.dry_run,
        background_jobs=bg.injected if bg is not None else 0,
    )
