#!/usr/bin/env python
"""Watch the reservation cap theta'_2 self-stabilise (paper Section 4).

The M/S scheduler caps the fraction of CGI requests admitted to master
nodes.  The cap is recomputed online from the monitored arrival ratio ``a``
and a response-time approximation of the service-rate ratio ``r``.  The
paper argues the update rule converges regardless of the initial cap; this
example replays the same KSU-like trace with the cap initialised far too
low (0.0) and far too high (1.0) and samples the cap trajectory.

Run:  python examples/adaptive_reservation.py
"""

import numpy as np

from repro import (
    Cluster,
    KSU,
    MSPolicy,
    ReservationConfig,
    generate_trace,
    paper_sim_config,
    pretrain_sampler,
    reservation_ratio,
)

NODES = 16
MASTERS = 4
RATE = 600.0
R = 1.0 / 40.0
DURATION = 30.0


def run_with_initial_cap(theta_init: float, trace, sampler):
    cfg = paper_sim_config(num_nodes=NODES, seed=3)
    policy = MSPolicy(
        NODES, MASTERS, sampler=sampler, seed=4,
        reservation_cfg=ReservationConfig(theta_init=theta_init,
                                          update_period=0.5),
    )
    cluster = Cluster(cfg, policy)
    cluster.submit_many(trace)

    samples = []

    def sample_cap():
        samples.append((cluster.engine.now, policy.reservation.theta_cap))
        if cluster.engine.now < DURATION:
            cluster.engine.schedule(2.0, sample_cap)

    cluster.engine.schedule(2.0, sample_cap)
    cluster.run(until=DURATION + 20.0)
    return samples, policy


def main() -> None:
    trace = generate_trace(KSU, rate=RATE, duration=DURATION, mu_h=1200,
                           r=R, seed=7)
    sampler = pretrain_sampler(trace)

    # What Theorem 1 would prescribe given the true workload parameters.
    target = reservation_ratio(KSU.arrival_ratio_a, R, MASTERS, NODES)
    print(f"analytic cap theta'_2 (true a={KSU.arrival_ratio_a:.2f}, "
          f"r={R:.4f}): {target:.3f}\n")

    trajectories = {}
    for init in (0.0, 1.0):
        samples, policy = run_with_initial_cap(init, trace, sampler)
        trajectories[init] = samples
        final = samples[-1][1]
        print(f"theta_init={init:.1f}: cap after {samples[-1][0]:.0f}s of "
              f"traffic = {final:.3f} "
              f"(a_est={policy.tuner.a_estimate:.2f}, "
              f"r_est={policy.tuner.r_estimate:.4f})")

    lo = np.array([c for _, c in trajectories[0.0]])
    hi = np.array([c for _, c in trajectories[1.0]])
    spread = np.abs(hi - lo)
    print("\ncap trajectories (virtual time -> cap):")
    for (t, a), (_, b) in zip(trajectories[0.0], trajectories[1.0]):
        print(f"  t={t:5.1f}s   from-0.0: {a:.3f}   from-1.0: {b:.3f}")
    print(f"\ninitial spread {spread[0]:.3f} -> final spread "
          f"{spread[-1]:.3f}; both runs converge to the same operating cap.")


if __name__ == "__main__":
    main()
