"""Response-time collection and the paper's stretch-factor metric.

"Given a sequence of requests with execution times d_1..d_n and their
request response times at the server site t_1..t_n, the stretch factor is
``sum(t_i / d_i) / n``."  Internet delay is excluded; response time is the
interval between arrival at the cluster and the end of processing.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, Optional

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


#: One ledger row, packed: arrival, finish, nominal demand, the ``(cpu,
#: io)`` split, kind, node, remote, on-master.  A C double holds a Python
#: float exactly, so every field reads back as it was recorded.
_ROW = struct.Struct("=5dbi??")
_ROW_DTYPE = np.dtype([("arrival", "f8"), ("finish", "f8"),
                       ("demand", "f8"), ("cpu", "f8"), ("io", "f8"),
                       ("kind", "i1"), ("node", "i4"), ("remote", "?"),
                       ("on_master", "?")])
assert _ROW_DTYPE.itemsize == _ROW.size
_pack_row = _ROW.pack
#: Rows :meth:`MetricsCollector.rows` copies at a time (~3 KB).
_BLOCK_ROWS = 64
#: Field name -> (byte offset in a row, reader of that field).
_FIELDS = {name: (offset, struct.Struct("=" + dtype.char).unpack_from)
           for name, (dtype, offset) in _ROW_DTYPE.fields.items()}


class LedgerColumn(Sequence):
    """A read-only view of one ledger field, in row order.

    It reads the ledger's rows in place, so it sees rows recorded after
    it was made.  Columns compare equal to columns with the same values;
    compare one to a list as ``list(column)``.
    """

    __slots__ = ("_rows", "_unpack", "_offset")

    def __init__(self, rows: bytearray, name: str) -> None:
        self._rows = rows
        self._offset, self._unpack = _FIELDS[name]

    def __len__(self) -> int:
        return len(self._rows) // _ROW.size

    def __getitem__(self, index):
        n = len(self)
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(n))]
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("ledger row out of range")
        return self._unpack(self._rows, index * _ROW.size + self._offset)[0]

    def __iter__(self) -> Iterator:
        rows, unpack, size = self._rows, self._unpack, _ROW.size
        offset = self._offset
        while offset < len(rows):
            yield unpack(rows, offset)[0]
            offset += size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LedgerColumn):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"LedgerColumn({list(self)!r})"


class MetricsCollector:
    """The request ledger of both substrates: one row per completed
    request plus the count of every other outcome.  The simulated
    :class:`~repro.sim.cluster.Cluster` and the live
    :class:`~repro.live.master.MasterServer` both record here.

    A row is 47 packed bytes appended to one ``bytearray`` by one C call
    (:data:`_ROW`).  The fields read back as :class:`LedgerColumn` views
    (``arrivals``, ``finishes``, ...) or whole rows (:meth:`rows`);
    :meth:`snapshot` copies them into numpy arrays, cached until the next
    :meth:`record`.  :meth:`summary` keeps the per-class means in O(1)
    memory for a long-running master; :meth:`report` is the full-window
    path with warm-up/cut-off windows and percentiles.
    """

    __slots__ = ("_rows", "remote_dispatches", "submitted", "drops", "lost",
                 "_snapshot", "_snapshot_len", "_folded", "_count", "_resp",
                 "_stretch", "_master_dynamic")

    def __init__(self) -> None:
        self._rows = bytearray()
        self.remote_dispatches = 0
        #: Requests accepted into the run (completed or not).
        self.submitted = 0
        #: Terminal failures by reason (see :meth:`drop`).
        self.drops: Dict[str, int] = {}
        #: Requests lost outright (crash, no restart, no resilience layer).
        self.lost = 0
        self._snapshot: Optional[tuple] = None
        self._snapshot_len = -1
        # summary(): rows folded so far, and per-kind (static, dynamic)
        # running sums over them.
        self._folded = 0
        self._count = [0, 0]
        self._resp = [0.0, 0.0]
        self._stretch = [0.0, 0.0]
        self._master_dynamic = 0

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
        self._rows += _pack_row(arrival, finish,
                                nominal_cpu + nominal_io,  # Request.demand
                                cpu, io, req.kind, node, remote, on_master)
        if remote:
            self.remote_dispatches += 1

    # -- columns ---------------------------------------------------------------

    @property
    def arrivals(self) -> LedgerColumn:
        return LedgerColumn(self._rows, "arrival")

    @property
    def finishes(self) -> LedgerColumn:
        return LedgerColumn(self._rows, "finish")

    @property
    def demands(self) -> LedgerColumn:
        """Nominal demand of each request: the stretch denominator."""
        return LedgerColumn(self._rows, "demand")

    @property
    def cpu_demands(self) -> LedgerColumn:
        """The ``(cpu, io)`` split of each demand, nominal on the simulator
        and measured on live: the workload estimator's input, not part of
        :meth:`snapshot`."""
        return LedgerColumn(self._rows, "cpu")

    @property
    def io_demands(self) -> LedgerColumn:
        return LedgerColumn(self._rows, "io")

    @property
    def kinds(self) -> LedgerColumn:
        return LedgerColumn(self._rows, "kind")

    @property
    def nodes(self) -> LedgerColumn:
        return LedgerColumn(self._rows, "node")

    @property
    def remotes(self) -> LedgerColumn:
        return LedgerColumn(self._rows, "remote")

    @property
    def on_master(self) -> LedgerColumn:
        return LedgerColumn(self._rows, "on_master")

    def rows(self, start: int = 0) -> Iterator[tuple]:
        """Rows ``start..`` as ``(arrival, finish, demand, cpu, io, kind,
        node, remote, on_master)`` tuples.  They are read a copied block
        of :data:`_BLOCK_ROWS` at a time: a buffer view would pin the rows
        against appends, and one copy of every row costs O(rows) memory."""
        rows, step = self._rows, _BLOCK_ROWS * _ROW.size
        offset = start * _ROW.size
        while offset < len(rows):
            block = rows[offset:offset + step]
            offset += len(block)
            yield from _ROW.iter_unpack(block)

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
        completed, dropped = len(self), self.total_dropped
        return {"submitted": self.submitted, "completed": completed,
                "dropped": dropped, "lost": self.lost,
                "in_flight": in_flight, "pending": pending,
                "balance": (self.submitted - completed - dropped - self.lost
                            - in_flight - pending)}

    def __len__(self) -> int:
        return len(self._rows) // _ROW.size

    # -- reporting --------------------------------------------------------------

    def summary(self) -> dict:
        """Every row's count, mean response and stretch, overall and per
        class, plus the remote and master-dynamic counts, as JSON values.

        It folds only the rows recorded since the previous call into
        running sums, so a poll costs O(new rows) time and O(1) memory.
        An empty class reads 0 (JSON has no NaN).  The means agree with
        :meth:`report` to rounding: the sums run in row order.
        """
        count, resp, stretch = self._count, self._resp, self._stretch
        master_dynamic = self._master_dynamic
        folded = self._folded
        for arrival, finish, demand, _, _, kind, _, _, on_master in \
                self.rows(folded):
            response = finish - arrival
            count[kind] += 1
            resp[kind] += response
            stretch[kind] += response / demand
            if kind and on_master:
                master_dynamic += 1
            folded += 1
        self._master_dynamic, self._folded = master_dynamic, folded

        def cls(n: int, resp_sum: float, stretch_sum: float) -> dict:
            return {"count": n,
                    "mean_response": resp_sum / n if n else 0.0,
                    "stretch": stretch_sum / n if n else 0.0}

        static, dynamic = int(RequestKind.STATIC), int(RequestKind.DYNAMIC)
        return {
            "count": folded,
            "remote": self.remote_dispatches,
            "dynamic_on_master": master_dynamic,
            "overall": cls(folded, resp[static] + resp[dynamic],
                           stretch[static] + stretch[dynamic]),
            "static": cls(count[static], resp[static], stretch[static]),
            "dynamic": cls(count[dynamic], resp[dynamic], stretch[dynamic]),
        }

    def snapshot(self) -> tuple:
        """``(arrivals, finishes, demands, kinds, remotes, on_master)`` as
        numpy arrays, cached until new samples arrive.  The arrays are
        copies: a view would pin the row buffer against appends."""
        n = len(self)
        if self._snapshot is None or self._snapshot_len != n:
            rows = np.frombuffer(self._rows, dtype=_ROW_DTYPE)
            self._snapshot = (
                rows["arrival"].copy(),
                rows["finish"].copy(),
                rows["demand"].copy(),
                rows["kind"].astype(np.int_),
                rows["remote"].copy(),
                rows["on_master"].copy(),
            )
            del rows        # release the buffer export before any append
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
