"""Exact pins of the M/S variants the golden trace does not reach.

The golden trace and :mod:`tests.test_sim_p32_pin` replay plain M/S.
These cases replay the variants built on top of it — M/S' with its
dynamic subset at k = 1, p - m and p, the speed-aware
:class:`HeteroMSPolicy` on a mixed-speed cluster with a role change
mid-run, and plain M/S on a drifting ADL trace with the control plane
armed — and pin every simulated outcome bit for bit: the stretch
factor by ``repr``, the event count, and the CPU, disk and dispatch
counters.  The control case also pins the kinds of the control actions
taken and the final reservation cap.

Any change to the order of RNG draws, engine insertions or float
operations on these dispatch paths moves at least one of these values.
"""

import dataclasses

import pytest

from repro.analysis.experiments import DriftPhase, drift_trace, iso_load_rate
from repro.analysis.sweep import choose_masters
from repro.control import ControlConfig, SimControlLoop
from repro.core.policies import HeteroMSPolicy, MSPrimePolicy, make_ms
from repro.obs import Tracer
from repro.obs.trace import CONTROL
from repro.sim.cluster import Cluster
from repro.sim.config import SimConfig, paper_sim_config
from repro.workload.generator import generate_trace
from repro.workload.replay import pretrain_sampler
from repro.workload.traces import ADL, UCB

MU_H = 1200.0
R = 1.0 / 40
REQUESTS = 2500
SEED = 3

#: M/S' on p=16 at utilization 0.85: m from Theorem 1, k dynamic nodes.
PRIME_P = 16
#: Mixed-speed cluster for the hetero case; masters 0-2 differ in speed.
SPEEDS = (3.0, 1.0, 0.5, 1.0, 1.0, 0.5, 3.0, 1.0)
#: Control-armed drift: ADL on p=8 drifting from 44.3% to 20% CGI.
DRIFT_P = 8
DRIFT_PHASES = ((44.3, 0.85, 10.0), (20.0, 0.85, 10.0))

#: Recorded before M/S' and the hetero policy were folded onto the one
#: M/S dispatch path (the control case: before the dispatch, node and
#: Theorem-1 paths dropped their small-array numpy); a change here is a
#: change to simulated behaviour.
EXPECTED = {
    "control-drift": {
        "stretch": "1.9865393388587647", "processed": 43967,
        "switches": 13113, "preemptions": 1394, "disk_slices": 16748,
        "remote_dispatches": 1782,
        "actions": ["set_w", "retune_theta", "set_w", "set_w", "set_w",
                    "set_w", "retune_theta", "set_w", "set_w"],
        "theta_cap": "0.09164581151250391"},
    "hetero-mixed": {
        "stretch": "1.767099984688727", "processed": 6835,
        "switches": 3309, "preemptions": 372, "disk_slices": 430,
        "remote_dispatches": 255},
    "msprime-k1": {
        "stretch": "5511.306833981608", "processed": 53109,
        "switches": 6044, "preemptions": 33, "disk_slices": 41667,
        "remote_dispatches": 998},
    "msprime-k=p": {
        "stretch": "1.8011398251405153", "processed": 14590,
        "switches": 4544, "preemptions": 370, "disk_slices": 4746,
        "remote_dispatches": 1011},
    "msprime-k=p-m": {
        "stretch": "1.8598847590790384", "processed": 14589,
        "switches": 4773, "preemptions": 430, "disk_slices": 4760,
        "remote_dispatches": 1009},
}


def _counters(cluster, report):
    nodes = cluster.nodes
    out = {
        "stretch": repr(report.overall.stretch),
        "processed": cluster.engine.processed,
        "switches": sum(n.cpu.switches for n in nodes),
        "preemptions": sum(n.cpu.preemptions for n in nodes),
        "disk_slices": sum(n.disk.slices_served for n in nodes),
        "remote_dispatches": cluster.metrics.remote_dispatches,
    }
    if cluster.tracer is not None:
        out["actions"] = [data[1] for _, kind, _, _, data
                          in cluster.tracer.spans
                          if kind == CONTROL and data[0] == "action"]
        out["theta_cap"] = repr(cluster.policy.theta_cap)
    return out


def _build_prime(k_of):
    lam = iso_load_rate(ADL, MU_H, R, PRIME_P, 0.85)
    trace = generate_trace(ADL, rate=lam, n=REQUESTS, mu_h=MU_H, r=R,
                           seed=SEED)
    m = choose_masters(ADL, lam, MU_H, R, PRIME_P)
    policy = MSPrimePolicy(PRIME_P, k_of(PRIME_P, m),
                           pretrain_sampler(trace, seed=SEED), seed=SEED + 1)
    cluster = Cluster(paper_sim_config(PRIME_P, seed=SEED + 2), policy)
    return cluster, trace


def _build_hetero():
    p = len(SPEEDS)
    lam = iso_load_rate(UCB, MU_H, R, p, 0.8)
    trace = generate_trace(UCB, rate=lam, n=REQUESTS, mu_h=MU_H, r=R,
                           seed=SEED)
    policy = HeteroMSPolicy(p, 3, cpu_speeds=SPEEDS, disk_speeds=SPEEDS,
                            sampler=pretrain_sampler(trace, seed=SEED),
                            seed=SEED + 1)
    cluster = Cluster(SimConfig(num_nodes=p, cpu_speeds=SPEEDS,
                                disk_speeds=SPEEDS, static_rate=MU_H,
                                seed=SEED + 2), policy)
    # Promote the other fast node half-way through the trace.
    cluster.engine.call_at(trace[len(trace) // 2].arrival_time,
                           policy.set_masters, {0, 1, 2, 6})
    return cluster, trace


def _build_control_drift():
    r = 1.0 / 80
    phases = [DriftPhase(pct_cgi=c, utilization=u, duration=d)
              for c, u, d in DRIFT_PHASES]
    trace = drift_trace(ADL, phases, MU_H, r, DRIFT_P, seed=SEED)
    first = dataclasses.replace(ADL, pct_cgi=phases[0].pct_cgi)
    m = choose_masters(first, phases[0].rate, MU_H, r, DRIFT_P)
    policy = make_ms(DRIFT_P, m, pretrain_sampler(trace, seed=SEED),
                     seed=SEED + 1)
    cluster = Cluster(SimConfig(num_nodes=DRIFT_P, static_rate=MU_H,
                                seed=SEED + 2), policy, tracer=Tracer())
    SimControlLoop(cluster, ControlConfig()).start()
    return cluster, trace


CASES = {
    "msprime-k1": lambda: _build_prime(lambda p, m: 1),
    "msprime-k=p-m": lambda: _build_prime(lambda p, m: p - m),
    "msprime-k=p": lambda: _build_prime(lambda p, m: p),
    "hetero-mixed": _build_hetero,
    "control-drift": _build_control_drift,
}


def _run(case):
    cluster, trace = CASES[case]()
    report = cluster.replay(trace, drain=30.0)
    return cluster, trace, _counters(cluster, report)


@pytest.mark.parametrize("case", sorted(CASES))
def test_variant_is_bit_identical(case):
    cluster, trace, got = _run(case)
    assert got == EXPECTED[case]
    assert cluster.conservation()["balance"] == 0
    assert len(cluster.metrics) == len(trace)


if __name__ == "__main__":  # pragma: no cover - re-record helper
    for name in sorted(CASES):
        print(f"    {name!r}: {_run(name)[2]},")
