"""Exact pins of the M/S variants the golden trace does not reach.

The golden trace and :mod:`tests.test_sim_p32_pin` replay plain M/S.
These cases replay the variants built on top of it — M/S' with its
dynamic subset at k = 1, p - m and p, and the speed-aware
:class:`HeteroMSPolicy` on a mixed-speed cluster with a role change
mid-run — and pin every simulated outcome bit for bit: the stretch
factor by ``repr``, the event count, and the CPU, disk and dispatch
counters.

Any change to the order of RNG draws, engine insertions or float
operations on these dispatch paths moves at least one of these values.
"""

import pytest

from repro.analysis.experiments import iso_load_rate
from repro.analysis.sweep import choose_masters
from repro.core.policies import HeteroMSPolicy, MSPrimePolicy
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

#: Recorded before M/S' and the hetero policy were folded onto the one
#: M/S dispatch path; a change here is a change to simulated behaviour.
EXPECTED = {
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
    return {
        "stretch": repr(report.overall.stretch),
        "processed": cluster.engine.processed,
        "switches": sum(n.cpu.switches for n in nodes),
        "preemptions": sum(n.cpu.preemptions for n in nodes),
        "disk_slices": sum(n.disk.slices_served for n in nodes),
        "remote_dispatches": cluster.metrics.remote_dispatches,
    }


def _replay_prime(k_of):
    lam = iso_load_rate(ADL, MU_H, R, PRIME_P, 0.85)
    trace = generate_trace(ADL, rate=lam, n=REQUESTS, mu_h=MU_H, r=R,
                           seed=SEED)
    m = choose_masters(ADL, lam, MU_H, R, PRIME_P)
    policy = MSPrimePolicy(PRIME_P, k_of(PRIME_P, m),
                           pretrain_sampler(trace, seed=SEED), seed=SEED + 1)
    cluster = Cluster(paper_sim_config(PRIME_P, seed=SEED + 2), policy)
    return cluster, cluster.replay(trace, drain=30.0)


def _replay_hetero():
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
    return cluster, cluster.replay(trace, drain=30.0)


CASES = {
    "msprime-k1": lambda: _replay_prime(lambda p, m: 1),
    "msprime-k=p-m": lambda: _replay_prime(lambda p, m: p - m),
    "msprime-k=p": lambda: _replay_prime(lambda p, m: p),
    "hetero-mixed": _replay_hetero,
}


def _run(case):
    cluster, report = CASES[case]()
    return cluster, _counters(cluster, report)


@pytest.mark.parametrize("case", sorted(CASES))
def test_variant_is_bit_identical(case):
    cluster, got = _run(case)
    assert got == EXPECTED[case]
    assert cluster.conservation()["balance"] == 0
    assert len(cluster.metrics) == REQUESTS


if __name__ == "__main__":  # pragma: no cover - re-record helper
    for name in sorted(CASES):
        print(f"    {name!r}: {_run(name)[1]},")
