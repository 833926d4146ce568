"""Exact pin of the p=32 operating point the simulator is tuned for.

The golden trace (4 nodes, 2 masters) is too small to exercise the paths
that only matter on a wide cluster: the cached master list drawn from on
every request, the all-healthy dispatch fast path over 32 candidates, and
CPUs that go idle between requests and start the next slice straight away.
This test replays a short UCB trace on the ``sim_ucb_p32`` configuration —
p=32, m from Theorem 1, mu_h=1200 req/s, 1/r=40, utilization 0.75 — and
pins every simulated outcome bit for bit: the stretch factor by ``repr``,
the event count, and the CPU, disk and dispatch counters.

Any change to the order of RNG draws, engine insertions or float
operations on the request path moves at least one of these values.
"""

from repro.analysis.experiments import iso_load_rate
from repro.analysis.sweep import choose_masters
from repro.core.policies import make_ms
from repro.sim.cluster import Cluster
from repro.sim.config import SimConfig
from repro.workload.generator import generate_trace
from repro.workload.replay import pretrain_sampler
from repro.workload.traces import UCB

P = 32
MU_H = 1200.0
R = 1.0 / 40
UTILIZATION = 0.75
REQUESTS = 8000
SEED = 5

#: Recorded before the simulator's per-request path was flattened; a
#: change here is a change to simulated behaviour, not to host speed.
EXPECTED = {
    "masters": 8,
    "stretch": "3.3350569295079326",
    "processed": 21779,
    "switches": 10250,
    "preemptions": 1371,
    "disk_slices": 1412,
    "remote_dispatches": 857,
}


def _replay():
    lam = iso_load_rate(UCB, MU_H, R, P, UTILIZATION)
    trace = generate_trace(UCB, rate=lam, n=REQUESTS, mu_h=MU_H, r=R,
                           seed=SEED)
    masters = choose_masters(UCB, lam, MU_H, R, P)
    policy = make_ms(P, masters, pretrain_sampler(trace, seed=SEED),
                     seed=SEED + 17)
    cluster = Cluster(SimConfig(num_nodes=P, static_rate=MU_H, seed=SEED),
                      policy)
    report = cluster.replay(trace, drain=30.0)
    nodes = cluster.nodes
    return cluster, masters, {
        "masters": masters,
        "stretch": repr(report.overall.stretch),
        "processed": cluster.engine.processed,
        "switches": sum(n.cpu.switches for n in nodes),
        "preemptions": sum(n.cpu.preemptions for n in nodes),
        "disk_slices": sum(n.disk.slices_served for n in nodes),
        "remote_dispatches": cluster.metrics.remote_dispatches,
    }


def test_p32_operating_point_is_bit_identical():
    cluster, _, got = _replay()
    assert got == EXPECTED
    assert cluster.conservation()["balance"] == 0
    assert len(cluster.metrics) == REQUESTS


if __name__ == "__main__":  # pragma: no cover - re-record helper
    print(_replay()[2])
