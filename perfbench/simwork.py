"""The two simulator workloads.

Each replay starts from its own set-up: the trace generated from the seed,
then a fresh sampler, policy and :class:`Cluster`. Every replay of one
seed therefore simulates exactly the same run; only host time differs
between them. The untraced run reports simulated latencies from one
replay, and ``setup_s`` and ``host_req_per_s`` from host time sampled
across the whole measuring window.

Host time on a shared machine swings by tens of percent within seconds,
and contention only ever slows work down. ``setup_s`` and the replay time
are therefore the fastest of the run's identical set-ups and replays:
bursts of contention drop out, while any change to the work itself shows
in every sample. Spells that slow the host for minutes are measured by a
fixed yardstick workload timed before every set-up (:mod:`reference`)
and divided out of both figures.
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.experiments import DriftPhase, drift_trace, iso_load_rate
from repro.analysis.sweep import choose_masters
from repro.control import ControlConfig, SimControlLoop
from repro.core.policies import make_ms
from repro.obs import Tracer
from repro.obs.trace import ADMIT, DENY, START
from repro.sim.cluster import Cluster
from repro.sim.config import SimConfig
from repro.workload.generator import generate_trace
from repro.workload.replay import pretrain_sampler
from repro.workload.traces import ADL, UCB

from common import (NOT_MEASURED, Outcome, RunResult, median, peak_rss_mb,
                    time_route)
from layers import SELF_FRAC_LAYERS, self_fractions
from reference import Yardstick

#: Recorded simulated stretch per workload and seed (``record_expected.py``).
EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Set-ups timed by the traced run for ``setup.trace_s``/``setup.build_s``.
SETUP_REPS = 5
#: Replays (each with its own timed set-up) per run at least.
MIN_REPLAYS = 3
#: Nominal host seconds per replay: a run makes ``--seconds`` / this many.
REPLAY_S = 2.5
#: Static service rate of every node, requests per second.
MU_H = 1200.0
#: Virtual seconds allowed past the last arrival for queues to drain.
DRAIN = 30.0


@dataclass(frozen=True)
class SimSpec:
    name: str
    p: int
    control: bool
    #: Builds the trace and the Theorem-1 master count from a seed.
    make_trace: Callable[[int], Tuple[list, int]]


def _ucb_p32(seed: int) -> Tuple[list, int]:
    p, r = 32, 1.0 / 40
    lam = iso_load_rate(UCB, MU_H, r, p, 0.75)
    trace = generate_trace(UCB, rate=lam, n=60_000, mu_h=MU_H, r=r,
                           seed=seed)
    return trace, choose_masters(UCB, lam, MU_H, r, p)


def _adl_drift_p8(seed: int) -> Tuple[list, int]:
    p, r = 8, 1.0 / 80
    phases = [DriftPhase(pct_cgi=44.3, utilization=0.85, duration=50.0),
              DriftPhase(pct_cgi=20.0, utilization=0.85, duration=50.0)]
    trace = drift_trace(ADL, phases, MU_H, r, p, seed=seed)
    first = dataclasses.replace(ADL, pct_cgi=phases[0].pct_cgi)
    return trace, choose_masters(first, phases[0].rate, MU_H, r, p)


SIM_SPECS: Dict[str, SimSpec] = {
    "sim_ucb_p32": SimSpec("sim_ucb_p32", 32, False, _ucb_p32),
    "sim_adl_drift_p8": SimSpec("sim_adl_drift_p8", 8, True, _adl_drift_p8),
}


class SimRun:
    """One workload at one seed: the trace plus a factory for clusters."""

    def __init__(self, spec: SimSpec, seed: int):
        self.spec = spec
        self.seed = seed
        self.trace, self.masters = spec.make_trace(seed)

    def build(self, tracer: Optional[Tracer] = None
              ) -> Tuple[Cluster, Optional[SimControlLoop]]:
        spec = self.spec
        sampler = pretrain_sampler(self.trace, seed=self.seed)
        policy = make_ms(spec.p, self.masters, sampler, seed=self.seed + 17)
        cluster = Cluster(SimConfig(num_nodes=spec.p, static_rate=MU_H,
                                    seed=self.seed), policy, tracer=tracer)
        loop = (SimControlLoop(cluster, ControlConfig()).start()
                if spec.control else None)
        return cluster, loop

    def replay(self, cluster: Cluster) -> float:
        """Run the trace to completion; returns the host seconds taken."""
        start = time.perf_counter()
        cluster.submit_many(self.trace)
        deadline = self.trace[-1].arrival_time + DRAIN
        cluster.run(until=deadline)
        extensions = 0
        while any(node.active for node in cluster.nodes) and extensions < 20:
            deadline += DRAIN
            cluster.run(until=deadline)
            extensions += 1
        return time.perf_counter() - start


def set_up(spec: SimSpec, seed: int):
    """Generate the trace and build a cluster from a clean heap; returns
    ``(run, cluster, trace_s, build_s)``."""
    gc.collect()
    t0 = time.perf_counter()
    run = SimRun(spec, seed)
    t1 = time.perf_counter()
    cluster, _ = run.build()
    return run, cluster, t1 - t0, time.perf_counter() - t1


def outcome_of(cluster: Cluster, attempted: int) -> Outcome:
    arrivals, finishes, demands, kinds, _, _ = cluster.metrics.snapshot()
    out = Outcome(attempted=attempted)
    for a, f, d, k in zip(arrivals.tolist(), finishes.tolist(),
                          demands.tolist(), kinds.tolist()):
        out.add(f - a, d, k == 1)
    return out


def load_expected() -> Dict[str, Dict[str, str]]:
    if not EXPECTED_PATH.exists():
        return {}
    return json.loads(EXPECTED_PATH.read_text())


def check_replay(result: RunResult, cluster: Cluster, stretch: float,
                 reference: Optional[float]) -> None:
    ledger = cluster.conservation()
    result.check(ledger["balance"] == 0,
                 f"conservation balance {ledger['balance']} != 0: {ledger}")
    if reference is not None:
        result.check(stretch == reference,
                     f"simulated stretch {stretch!r} != {reference!r}")


def run_untraced(name: str, seed: int, seconds: float) -> RunResult:
    spec = SIM_SPECS[name]
    result = RunResult(name)
    t0 = time.perf_counter()
    expected = load_expected().get(name, {}).get(str(seed))
    reference = float(expected) if expected is not None else None
    if reference is None:
        result.notes.append(f"no recorded stretch for seed {seed}; "
                            "checking replays agree with each other")

    # Each replay starts from its own set-up, so the set-up samples are
    # spread over the whole window like the replays themselves.
    replays = max(MIN_REPLAYS, round(seconds / REPLAY_S))
    yardstick = Yardstick()
    setup: List[float] = []
    replay_s: List[float] = []
    first: Optional[Outcome] = None
    for _ in range(replays):
        yardstick.sample()
        run, cluster, trace_s, build_s = set_up(spec, seed)
        setup.append(trace_s + build_s)
        replay_s.append(run.replay(cluster))
        outcome = outcome_of(cluster, len(run.trace))
        stretch = outcome.latency_metrics()["stretch"]
        if first is None:
            first = outcome
            reference = reference if reference is not None else stretch
        check_replay(result, cluster, stretch, reference)
        result.attempted += outcome.attempted
        result.failed += outcome.failed

    fastest = min(replay_s)
    slowdown = yardstick.slowdown
    result.metrics = {
        "setup_s": min(setup) / slowdown,
        "peak_rss_mb": peak_rss_mb(),
        "host_req_per_s": len(first.done) / fastest * slowdown,
        **first.latency_metrics(),
    }
    result.notes += first.notes()
    result.notes.append(
        f"{replays} replays of {len(run.trace)} requests in "
        f"{time.perf_counter() - t0:.1f}s; host slowdown {slowdown:.3f}; "
        f"unscaled setup_s {min(setup):.4f}, host_req_per_s "
        f"{len(first.done) / fastest:.0f}; per-replay req/s "
        + " ".join(f"{len(first.done) / s:.0f}" for s in replay_s))
    return result


# -- traced run: per-layer figures ------------------------------------------


def _profile(run: SimRun) -> Tuple[Dict[str, float], float]:
    """Self-time share per layer and profiled calls per request."""
    cluster, _ = run.build()
    prof = cProfile.Profile()
    prof.enable()
    run.replay(cluster)
    prof.disable()
    prof.create_stats()
    entries, calls = [], 0
    for (filename, _, funcname), (_, nc, tt, _, _) in prof.stats.items():
        entries.append((filename, funcname, tt))
        calls += nc
    return self_fractions(entries), calls / len(run.trace)


def _route_us(run: SimRun) -> float:
    """Mean host microseconds per ``policy.route`` call."""
    cluster, _ = run.build()
    route_us = time_route(cluster.policy)
    run.replay(cluster)
    return route_us()


def _span_waits(tracer: Tracer) -> Tuple[float, float, int]:
    """(backlog wait ms, backlogged-admit share, denials) from spans."""
    admitted: Dict[int, Tuple[float, bool]] = {}
    waits: List[float] = []
    admits = backlogged = denied = 0
    for t, kind, req_id, _, data in tracer.spans:
        if kind == ADMIT:
            admits += 1
            flag = bool(data[0]) if data else False
            backlogged += flag
            admitted[req_id] = (t, flag)
        elif kind == START:
            entry = admitted.pop(req_id, None)
            if entry is not None and entry[1]:
                waits.append(t - entry[0])
        elif kind == DENY:
            denied += 1
    wait_ms = statistics.mean(waits) * 1e3 if waits else 0.0
    return wait_ms, backlogged / max(admits, 1), denied


def run_traced(name: str, seed: int, seconds: float) -> RunResult:
    spec = SIM_SPECS[name]
    result = RunResult(name)
    trace_s, build_s = [], []
    for _ in range(SETUP_REPS):
        run, _, t_s, b_s = set_up(spec, seed)
        trace_s.append(t_s)
        build_s.append(b_s)
    m: Dict[str, float] = {
        "setup.trace_s": min(trace_s),
        "setup.build_s": min(build_s),
    }

    plain, traced = [], []
    tracer = None
    cluster = loop = None
    for _ in range(2):
        c, _ = run.build()
        plain.append(run.replay(c))
        tracer = Tracer()
        cluster, loop = run.build(tracer)
        traced.append(run.replay(cluster))
    m["trace.overhead_frac"] = median(traced) / median(plain) - 1.0

    n = len(run.trace)
    horizon = max(cluster.metrics.snapshot()[1].max(), 1e-9)
    masters = set(cluster.policy.master_ids)
    nodes = cluster.nodes
    cpu_busy = {True: [], False: []}
    for node in nodes:
        cpu_busy[node.node_id in masters].append(node.cpu.busy_time / horizon)
    ledger = cluster.conservation()
    report = cluster.metrics.report()
    wait_ms, backlog_frac, denied = _span_waits(tracer)
    reservation = getattr(cluster.policy, "reservation", None)
    m.update({
        "engine.events": cluster.engine.processed,
        "engine.events_per_req": cluster.engine.processed / n,
        "cpu.switches": sum(nd.cpu.switches for nd in nodes),
        "cpu.preemptions": sum(nd.cpu.preemptions for nd in nodes),
        "cpu.busy_frac_master": median(cpu_busy[True]),
        "cpu.busy_frac_slave": median(cpu_busy[False]),
        "node.backlog_wait_ms": wait_ms,
        "node.backlog_admit_frac": backlog_frac,
        "disk.busy_frac": statistics.mean(nd.disk.busy_time / horizon
                                          for nd in nodes),
        "disk.slices": sum(nd.disk.slices_served for nd in nodes),
        "memory.faults": sum(nd.memory.faults for nd in nodes),
        "memory.refaults": sum(nd.memory.refaults for nd in nodes),
        "memory.steals": sum(nd.memory.steals for nd in nodes),
        "dispatch.remote_frac": cluster.metrics.remote_dispatches / n,
        "dispatch.master_dyn_frac": report.master_dynamic_fraction,
        "dispatch.theta_cap": (reservation.effective_cap
                               if reservation is not None else NOT_MEASURED),
        "dispatch.denied": denied,
        "control.ticks": loop.controller.ticks if loop is not None else 0,
        "control.actions": (len(loop.controller.applied)
                            if loop is not None else 0),
        "ledger.completed": ledger["completed"],
        "ledger.balance": ledger["balance"],
    })
    result.check(ledger["balance"] == 0, f"conservation: {ledger}")

    shares, calls_per_req = _profile(run)
    for layer in SELF_FRAC_LAYERS:
        m[f"{layer}.self_frac"] = shares.get(layer, 0.0)
    m["profile.mapped_frac"] = 1.0 - shares.get("other", 0.0)
    m["py.calls_per_req"] = calls_per_req
    result.check(m["profile.mapped_frac"] >= 0.95,
                 f"profile layer map covers only "
                 f"{m['profile.mapped_frac']:.3f} of self-time")
    m["dispatch.route_us"] = _route_us(run)

    result.attempted = n
    result.failed = n - ledger["completed"]
    result.metrics = m
    return result
