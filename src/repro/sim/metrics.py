"""Response-time collection and the paper's stretch-factor metric.

"Given a sequence of requests with execution times d_1..d_n and their
request response times at the server site t_1..t_n, the stretch factor is
``sum(t_i / d_i) / n``."  Internet delay is excluded; response time is the
interval between arrival at the cluster and the end of processing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.workload.request import Request, RequestKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.cluster import Cluster


@dataclass(slots=True)
class ClassStats:
    """Summary statistics for one request class (or the whole run)."""

    count: int
    stretch: float
    mean_response: float
    median_response: float
    p95_response: float
    mean_demand: float
    p99_response: float = float("nan")

    @staticmethod
    def empty() -> "ClassStats":
        return ClassStats(0, float("nan"), float("nan"), float("nan"),
                          float("nan"), float("nan"))


@dataclass(slots=True)
class MetricsReport:
    """Result of one replay: overall and per-class stats plus counters."""

    overall: ClassStats
    static: ClassStats
    dynamic: ClassStats
    completed: int
    duration: float
    remote_dispatches: int
    master_dynamic: int        # dynamic requests executed on masters
    dynamic_total: int

    @property
    def throughput(self) -> float:
        return self.completed / self.duration if self.duration > 0 else 0.0

    @property
    def master_dynamic_fraction(self) -> float:
        """Observed fraction of dynamic requests that ran on masters."""
        if self.dynamic_total == 0:
            return 0.0
        return self.master_dynamic / self.dynamic_total


class MetricsCollector:
    """The request ledger of both substrates: one row per completed
    request plus the count of every other outcome.  The simulated
    :class:`~repro.sim.cluster.Cluster` and the live
    :class:`~repro.live.master.MasterServer` both record here.

    The record path is append-only Python lists (cheapest possible per
    completion); conversion to numpy happens lazily in :meth:`snapshot`,
    which caches the arrays until the next :meth:`record` dirties them.
    Reports, availability summaries, and ad-hoc analysis all share the one
    cached conversion instead of re-materialising the arrays per call.
    """

    __slots__ = ("arrivals", "finishes", "demands", "cpu_demands",
                 "io_demands", "kinds", "nodes", "remotes", "on_master",
                 "remote_dispatches", "submitted", "drops", "lost",
                 "_snapshot", "_snapshot_len")

    def __init__(self) -> None:
        self.arrivals: List[float] = []
        self.finishes: List[float] = []
        #: Nominal demand of each request: the stretch denominator.
        self.demands: List[float] = []
        #: ``(cpu, io)`` split of each demand, nominal on the simulator and
        #: measured on live: the workload estimator's input, not part of
        #: :meth:`snapshot`.
        self.cpu_demands: List[float] = []
        self.io_demands: List[float] = []
        self.kinds: List[int] = []
        self.nodes: List[int] = []
        self.remotes: List[bool] = []
        self.on_master: List[bool] = []
        self.remote_dispatches = 0
        #: Requests accepted into the run (completed or not).
        self.submitted = 0
        #: Terminal failures by reason (see :meth:`drop`).
        self.drops: Dict[str, int] = {}
        #: Requests lost outright (crash, no restart, no resilience layer).
        self.lost = 0
        self._snapshot: Optional[tuple] = None
        self._snapshot_len = -1

    def record(self, req: Request, arrival: float, finish: float, node: int,
               remote: bool, on_master: bool,
               cpu: float = 0.0, io: float = 0.0) -> None:
        """Append one completed request's row.  Stretch divides by the
        nominal demand; ``cpu``/``io`` is the measured split, the nominal
        one when nothing was measured (both zero)."""
        nominal_cpu = req.cpu_demand
        nominal_io = req.io_demand
        if cpu <= 0.0 and io <= 0.0:
            cpu, io = nominal_cpu, nominal_io
        self.arrivals.append(arrival)
        self.finishes.append(finish)
        self.demands.append(nominal_cpu + nominal_io)  # Request.demand
        self.cpu_demands.append(cpu)
        self.io_demands.append(io)
        self.kinds.append(int(req.kind))
        self.nodes.append(node)
        self.remotes.append(remote)
        self.on_master.append(on_master)
        if remote:
            self.remote_dispatches += 1

    def drop(self, reason: str) -> None:
        """Count one request that failed for good, under ``reason``."""
        self.drops[reason] = self.drops.get(reason, 0) + 1

    @property
    def total_dropped(self) -> int:
        return sum(self.drops.values())

    def conservation(self, in_flight: int, pending: int) -> Dict[str, int]:
        """Account for every submitted request (the no-loss invariant).

        The substrate passes the requests it holds: ``in_flight`` (on a
        node, or in a live handler) and ``pending`` (in an event that will
        deliver it).  ``balance`` must be zero whenever it is read: a
        request is done, dropped, lost, held, or pending.
        """
        completed, dropped = len(self.arrivals), self.total_dropped
        return {"submitted": self.submitted, "completed": completed,
                "dropped": dropped, "lost": self.lost,
                "in_flight": in_flight, "pending": pending,
                "balance": (self.submitted - completed - dropped - self.lost
                            - in_flight - pending)}

    def __len__(self) -> int:
        return len(self.arrivals)

    # -- reporting --------------------------------------------------------------

    def snapshot(self) -> tuple:
        """``(arrivals, finishes, demands, kinds, remotes, on_master)`` as
        numpy arrays, cached until new samples arrive."""
        n = len(self.arrivals)
        if self._snapshot is None or self._snapshot_len != n:
            self._snapshot = (
                np.asarray(self.arrivals),
                np.asarray(self.finishes),
                np.asarray(self.demands),
                np.asarray(self.kinds),
                np.asarray(self.remotes, dtype=bool),
                np.asarray(self.on_master, dtype=bool),
            )
            self._snapshot_len = n
        return self._snapshot

    def report(self, warmup: float = 0.0, cutoff: Optional[float] = None) -> MetricsReport:
        """Summarise completed requests.

        Parameters
        ----------
        warmup:
            Ignore requests that *arrived* before this virtual time
            (queue-fill transient).
        cutoff:
            Ignore requests that arrived after this time (drain transient).
        """
        arr, fin, dem, kin, rem, mas = self.snapshot()

        mask = arr >= warmup
        if cutoff is not None:
            mask &= arr <= cutoff
        arr, fin, dem, kin = arr[mask], fin[mask], dem[mask], kin[mask]
        rem, mas = rem[mask], mas[mask]

        resp = fin - arr
        dyn_mask = kin == int(RequestKind.DYNAMIC)

        def stats(sel: np.ndarray) -> ClassStats:
            count = int(sel.sum())
            if count == 0:
                return ClassStats.empty()
            r, d = resp[sel], dem[sel]
            # One partition pass for all three quantiles (vs three sorts).
            median, p95, p99 = np.percentile(r, (50.0, 95.0, 99.0))
            return ClassStats(
                count=count,
                stretch=float(np.mean(r / d)),
                mean_response=float(r.mean()),
                median_response=float(median),
                p95_response=float(p95),
                mean_demand=float(d.mean()),
                p99_response=float(p99),
            )

        all_mask = np.ones(len(resp), dtype=bool)
        duration = float(fin.max() - arr.min()) if len(resp) else 0.0
        return MetricsReport(
            overall=stats(all_mask),
            static=stats(~dyn_mask),
            dynamic=stats(dyn_mask),
            completed=int(len(resp)),
            duration=duration,
            remote_dispatches=int(rem.sum()),
            master_dynamic=int((dyn_mask & mas).sum()),
            dynamic_total=int(dyn_mask.sum()),
        )


@dataclass(slots=True)
class AvailabilityReport:
    """Availability-centric summary of one run.

    Unlike :class:`MetricsReport` (response-time quality of *completed*
    requests), this accounts for the requests that did **not** complete:
    drops by reason, retries, SLO violations, and how much of the horizon
    each node spent out of service.  It is built from the cluster's request
    ledger and counters, so it works identically for seed-behaviour
    clusters and clusters running the resilience layer.
    """

    horizon: float
    submitted: int
    completed: int
    #: Drops by reason (empty when no resilience layer is armed).
    dropped: Dict[str, int]
    #: Requests lost outright (crash, no restart, no resilience layer).
    lost: int
    retries: int
    timeouts: int
    #: Completions within the stretch SLO.
    good: int
    slo_violations: int
    slo_stretch: float
    p99_stretch: float
    #: Per-node fraction of the horizon spent out of service.
    unavailability: np.ndarray
    #: ``conservation()['balance']`` at report time (0 = no request lost).
    balance: int

    @property
    def total_dropped(self) -> int:
        return sum(self.dropped.values())

    @property
    def goodput(self) -> float:
        """SLO-satisfying completions per second of horizon."""
        return self.good / self.horizon if self.horizon > 0 else 0.0

    @property
    def throughput(self) -> float:
        return self.completed / self.horizon if self.horizon > 0 else 0.0

    @property
    def drop_rate(self) -> float:
        if self.submitted == 0:
            return 0.0
        return (self.total_dropped + self.lost) / self.submitted

    @property
    def mean_unavailability(self) -> float:
        return float(self.unavailability.mean()) \
            if len(self.unavailability) else 0.0

    @staticmethod
    def from_cluster(cluster: "Cluster", horizon: float,
                     slo_stretch: float) -> "AvailabilityReport":
        col = cluster.metrics
        arr, fin, dem, _, _, _ = col.snapshot()
        if len(arr):
            stretch = (fin - arr) / dem
            good = int((stretch <= slo_stretch).sum())
            violations = int(len(stretch) - good)
            p99 = float(np.percentile(stretch, 99))
        else:
            good, violations, p99 = 0, 0, float("nan")
        mgr = cluster.resilience
        return AvailabilityReport(
            horizon=horizon,
            submitted=col.submitted,
            completed=len(col),
            dropped=dict(col.drops),
            lost=col.lost,
            retries=mgr.retries if mgr is not None else 0,
            timeouts=mgr.timeouts if mgr is not None else 0,
            good=good,
            slo_violations=violations,
            slo_stretch=slo_stretch,
            p99_stretch=p99,
            unavailability=cluster.unavailability(horizon),
            balance=cluster.conservation()["balance"],
        )


# Canonical definition lives in the core package; re-exported here for
# convenience when working with replay outputs.
from repro.core.stretch import stretch_factor  # noqa: E402,F401
