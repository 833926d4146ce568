"""Noise sources that separate a real machine-room from a clean simulator.

The paper validates its simulator against a 6-node Sun cluster and finds
simulated improvements "slightly optimistic ... because the simulator does
not consider background jobs running in the cluster and only captures
approximated behavior of Solaris OS 2.5."  ``replay(..., noise=...)``
reintroduces exactly those effects on the clean simulator, and that noisy
replay is Table 3's "actual" column (a real multi-process testbed on a
small host would measure the host's scheduler, not the paper's):

* **Background jobs** — per-node Poisson stream of OS daemons / cron work
  consuming CPU and disk outside the measured workload.
* **Demand jitter** — per-request multiplicative perturbation of service
  demands (un-modelled OS overheads: TLB, interrupts, file-system variance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro._gc import gc_paused
from repro.sim.cluster import Cluster
from repro.workload.request import Request, RequestKind


@dataclass(slots=True)
class NoiseConfig:
    """Strength of the testbed's un-modelled effects."""

    #: Background jobs per second *per node*.
    bg_rate: float = 2.0
    #: Mean total service demand of one background job (seconds).
    bg_demand: float = 0.06
    #: CPU share of a background job's demand.
    bg_cpu_fraction: float = 0.6
    #: Working-set pages of a background job.
    bg_mem_pages: int = 64
    #: Lognormal sigma applied multiplicatively to every foreground
    #: request's demands (0 disables).
    demand_jitter: float = 0.15
    seed: int = 12345

    def validate(self) -> None:
        if self.bg_rate < 0:
            raise ValueError("bg_rate must be >= 0")
        if self.bg_demand <= 0:
            raise ValueError("bg_demand must be positive")
        if not 0.0 <= self.bg_cpu_fraction <= 1.0:
            raise ValueError("bg_cpu_fraction must be in [0, 1]")
        if self.bg_mem_pages < 0:
            raise ValueError("bg_mem_pages must be >= 0")
        if self.demand_jitter < 0:
            raise ValueError("demand_jitter must be >= 0")


class BackgroundLoad:
    """Injects Poisson background jobs into every node until ``stop_at``.

    ``stop_at`` is a hard budget boundary: no job is injected at or past
    it, and a job injected just before it has its demand clipped to the
    remaining window, so the *injected* background demand never outlives
    the stop time (a run's drain phase stays noise-free and deterministic
    in length).  Every injection is logged on :attr:`injections` as
    ``(inject_time, total_demand)`` for post-run assertions.
    """

    def __init__(self, cluster: Cluster, cfg: NoiseConfig, stop_at: float):
        cfg.validate()
        self.cluster = cluster
        self.cfg = cfg
        self.stop_at = stop_at
        self.rng = np.random.default_rng(cfg.seed)
        self.injected = 0
        #: ``(inject_time, cpu + io demand)`` of every injected job.
        self.injections: List[tuple] = []
        self._next_id = -1  # background req_ids are negative-ish markers

    def start(self) -> None:
        if self.cfg.bg_rate <= 0:
            return
        for node_id in range(self.cluster.cfg.num_nodes):
            self._schedule_next(node_id)

    def _schedule_next(self, node_id: int) -> None:
        gap = self.rng.exponential(1.0 / self.cfg.bg_rate)
        when = self.cluster.engine.now + gap
        if when >= self.stop_at:
            return
        self.cluster.engine.schedule(gap, self._inject, node_id)

    def _inject(self, node_id: int) -> None:
        cfg = self.cfg
        budget = self.stop_at - self.cluster.engine.now
        if budget <= 0.0:        # at/past the boundary: nothing to inject
            return
        demand = min(self.rng.exponential(cfg.bg_demand), budget)
        cpu = max(demand * cfg.bg_cpu_fraction, 1e-6)
        io = demand * (1.0 - cfg.bg_cpu_fraction)
        self.injections.append((self.cluster.engine.now, cpu + io))
        self._next_id += 1
        req = Request(
            req_id=10_000_000 + self._next_id,
            arrival_time=self.cluster.engine.now,
            kind=RequestKind.DYNAMIC,
            cpu_demand=cpu,
            io_demand=io,
            mem_pages=cfg.bg_mem_pages,
            type_key="background",
        )
        self.cluster.admit_background(req, node_id)
        self.injected += 1
        self._schedule_next(node_id)


@gc_paused()
def jitter_demands(requests: Sequence[Request], sigma: float,
                   seed: int = 0) -> List[Request]:
    """Return a copy of the trace with lognormal demand perturbation.

    The jitter is mean-one, so trace-level calibration is preserved while
    individual requests deviate like real measurements do.  Every other
    field, the CGI cache key and the session client id included, is kept.
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0:
        return list(requests)
    rng = np.random.default_rng(seed)
    mu = -sigma ** 2 / 2.0
    factors = rng.lognormal(mu, sigma, size=len(requests)).tolist()
    return [Request(req.req_id, req.arrival_time, req.kind,
                    req.cpu_demand * f, req.io_demand * f, req.mem_pages,
                    req.size_bytes, req.type_key, req.cache_key,
                    req.client_id)
            for req, f in zip(requests, factors)]
