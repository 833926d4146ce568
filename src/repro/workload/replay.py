"""Trace replay: wire a generated trace, a policy, and a simulated cluster
together, and return the metrics report.

This is the experiment entry point used by the examples and the Figure-4/5
benchmark harnesses.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.control import ControlConfig

from repro.core.policies import Policy
from repro.core.sampling import DemandSampler
from repro.obs import Tracer, audit_cluster
from repro.sim.cluster import Cluster
from repro.sim.config import SimConfig
from repro.sim.failures import FailurePolicy
from repro.sim.metrics import MetricsReport
from repro.sim.resilience import ResilienceConfig
from repro.workload.noise import BackgroundLoad, NoiseConfig, jitter_demands
from repro.workload.request import Request

#: Environment switch: a truthy value makes every :func:`replay` run with
#: tracing on and a post-run trace audit (violations raise).  The pytest
#: benchmark suite sets this so all figure benches are audited.
AUDIT_ENV = "REPRO_AUDIT"


def _env_audit() -> bool:
    return os.environ.get(AUDIT_ENV, "").strip().lower() in (
        "1", "true", "yes", "on")


@dataclass(slots=True)
class ReplayResult:
    """A replay's report plus the objects needed for post-mortems."""

    report: MetricsReport
    cluster: Cluster
    #: The attached control loop when ``replay(control=...)`` was used
    #: (``repro.control.SimControlLoop``); its controller exposes the
    #: applied/proposed actions for post-mortems.
    control: Optional[object] = None

    @property
    def stretch(self) -> float:
        return self.report.overall.stretch


def replay(
    cfg: SimConfig,
    policy: Policy,
    requests: Sequence[Request],
    *,
    warmup_fraction: float = 0.1,
    drain: float = 30.0,
    failure_policy: Optional[FailurePolicy] = None,
    resilience: Optional[ResilienceConfig] = None,
    tracer: Optional[Tracer] = None,
    audit: Optional[bool] = None,
    control: Optional["ControlConfig"] = None,
    noise: Optional[NoiseConfig] = None,
) -> ReplayResult:
    """Run one trace through one cluster configuration.

    Parameters
    ----------
    cfg:
        Cluster/OS constants (node count must match the policy).
    policy:
        Dispatch policy under test.
    requests:
        The trace; arrival times are absolute.
    warmup_fraction:
        Leading fraction of the trace span excluded from the metrics (queue
        fill-up transient).
    drain:
        Virtual seconds allowed past the last arrival for queues to empty.
    failure_policy, resilience:
        Passed through to :class:`Cluster` (crash semantics and the
        request-path resilience layer; both default off).
    tracer:
        Optional :class:`repro.obs.Tracer` to attach; spans survive on the
        tracer after the run.  ``None`` leaves tracing disabled unless
        ``audit`` turns it on.
    audit:
        Run the trace auditor over the finished run and raise
        :class:`repro.obs.TraceAuditError` on any invariant violation.
        Implies tracing (a throwaway tracer is created if none was passed).
        ``None`` (default) defers to the ``REPRO_AUDIT`` environment
        variable, so whole suites can be audited without plumbing.
    control:
        A :class:`repro.control.ControlConfig` to arm the online control
        plane for this run: a reconciliation loop estimates the workload
        from completions and re-solves Theorem 1 periodically, retuning
        theta'_2 / the RSRC weight and stepping the master set.  The
        loop is returned on ``ReplayResult.control``.
    noise:
        A :class:`repro.workload.noise.NoiseConfig` to replay on a noisy
        cluster instead of the clean simulator: request demands are
        jittered and every node runs background jobs until the last
        arrival.  Table 3's "actual" column is this replay.
    """
    if not requests:
        raise ValueError("empty trace")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    if audit is None:
        audit = _env_audit()
    if audit and tracer is None:
        tracer = Tracer()
    cluster = Cluster(cfg, policy, failure_policy=failure_policy,
                      resilience=resilience, tracer=tracer)
    control_loop = None
    if control is not None:
        from repro.control import SimControlLoop

        control_loop = SimControlLoop(cluster, control).start()
    first = min(q.arrival_time for q in requests)
    last = max(q.arrival_time for q in requests)
    if noise is not None:
        requests = jitter_demands(requests, noise.demand_jitter,
                                  seed=noise.seed)
        BackgroundLoad(cluster, noise, stop_at=last).start()
    report = cluster.replay(
        requests, drain, warmup=first + (last - first) * warmup_fraction,
        end=last)
    if report.completed == 0:
        raise RuntimeError(
            f"no requests completed out of {cluster.metrics.submitted}; "
            "cluster hopelessly overloaded?")
    if audit:
        audit_cluster(cluster).raise_if_failed()
    return ReplayResult(report=report, cluster=cluster,
                        control=control_loop)


def pretrain_sampler(requests: Sequence[Request],
                     sample_fraction: float = 0.02,
                     noise: float = 0.05,
                     seed: int = 0) -> DemandSampler:
    """Offline demand sampling for the M/S scheduler.

    Profiles a leading slice of the trace "on an unloaded system" with a
    little measurement noise, as the paper's off-line sampling would.
    """
    import numpy as np

    if not 0.0 < sample_fraction <= 1.0:
        raise ValueError("sample_fraction must be in (0, 1]")
    sampler = DemandSampler()
    n = max(1, int(len(requests) * sample_fraction))
    rng = np.random.default_rng(seed)
    sampler.train_offline(requests[:n], noise=noise, rng=rng)
    return sampler
