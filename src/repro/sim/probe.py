"""Time-series probing of a running cluster.

A :class:`ClusterProbe` samples per-node state on a fixed virtual-time
period — CPU/disk queue lengths, memory pressure, worker-slot usage,
in-flight counts, and (for M/S policies) the adaptive reservation cap —
without touching the simulator's hot path.  The result is a dict of numpy
arrays suitable for plotting or assertions; `examples/
adaptive_reservation.py`-style investigations are one `probe.series()`
away.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.sim.cluster import Cluster

#: Per-node metrics captured each tick (name -> extractor).
_NODE_METRICS = {
    "cpu_queue": lambda node: node.cpu.runnable,
    "disk_queue": lambda node: node.disk.pending,
    "active": lambda node: node.active,
    "busy_slots": lambda node: node.busy_slots,
    "backlog": lambda node: len(node.backlog),
    "memory_pressure": lambda node: node.memory.pressure,
}

#: Per-node availability flags captured from the cluster, not the node.
_CLUSTER_NODE_METRICS = {
    "alive": lambda cluster, i: float(cluster.alive[i]),
    "suspect": lambda cluster, i: float(cluster.table.suspect[i]),
}

#: Cluster-wide resilience counters, 0 when no resilience layer is armed
#: (drops are read off the request ledger; only the manager drops).
_RESILIENCE_METRICS = {
    "dropped": lambda mgr: mgr.cluster.metrics.total_dropped,
    "retries": lambda mgr: mgr.retries,
    "timeouts": lambda mgr: mgr.timeouts,
    "shed_level": lambda mgr: mgr.shed_level,
}


class ClusterProbe:
    """Periodic sampler of cluster state.

    Parameters
    ----------
    cluster:
        The cluster to observe.
    period:
        Virtual seconds between samples.
    until:
        Stop sampling after this virtual time (``None`` = sample forever;
        note that an immortal probe keeps the event heap non-empty, so
        bound your ``cluster.run(until=...)`` calls).
    """

    def __init__(self, cluster: Cluster, period: float = 0.5,
                 until: Optional[float] = None):
        if period <= 0:
            raise ValueError("period must be positive")
        self.cluster = cluster
        self.period = period
        self.until = until
        self.times: List[float] = []
        self._node_samples: Dict[str, List[List[float]]] = {
            name: []
            for name in (*_NODE_METRICS, *_CLUSTER_NODE_METRICS)
        }
        self._scalar_samples: Dict[str, List[float]] = {
            name: [] for name in _RESILIENCE_METRICS
        }
        self._theta_caps: List[float] = []
        self._completed: List[int] = []
        self._started = False

    def start(self) -> "ClusterProbe":
        """Arm the probe (first sample after one period)."""
        if self._started:
            raise RuntimeError("probe already started")
        self._started = True
        self.cluster.engine.call_later(self.period, self._tick)
        return self

    def _tick(self) -> None:
        now = self.cluster.engine.now
        if self.until is not None and now > self.until:
            return
        self.times.append(now)
        for name, extract in _NODE_METRICS.items():
            self._node_samples[name].append(
                [float(extract(node)) for node in self.cluster.nodes])
        for name, extract in _CLUSTER_NODE_METRICS.items():
            self._node_samples[name].append(
                [extract(self.cluster, i)
                 for i in range(self.cluster.cfg.num_nodes)])
        mgr = self.cluster.resilience
        for name, extract in _RESILIENCE_METRICS.items():
            self._scalar_samples[name].append(
                float(extract(mgr)) if mgr is not None else 0.0)
        cap = getattr(self.cluster.policy, "theta_cap", None)
        self._theta_caps.append(float("nan") if cap is None else float(cap))
        self._completed.append(len(self.cluster.metrics))
        self.cluster.engine.call_later(self.period, self._tick)

    # -- results ---------------------------------------------------------------

    def series(self, metric: str) -> np.ndarray:
        """(samples x nodes) array for one per-node metric."""
        if metric not in self._node_samples:
            raise KeyError(
                f"unknown metric {metric!r}; known: "
                f"{sorted(self._node_samples)} (+ "
                f"{sorted(self._scalar_samples)}, 'theta_cap', 'completed')"
            )
        return np.asarray(self._node_samples[metric])

    def scalar_series(self, metric: str) -> np.ndarray:
        """(samples,) array for one cluster-wide resilience counter.

        Counters sample as 0 when the cluster runs without a resilience
        layer, so plots stay comparable across configurations.
        """
        if metric not in self._scalar_samples:
            raise KeyError(
                f"unknown scalar metric {metric!r}; known: "
                f"{sorted(self._scalar_samples)}"
            )
        return np.asarray(self._scalar_samples[metric])

    @property
    def time(self) -> np.ndarray:
        return np.asarray(self.times)

    @property
    def theta_cap(self) -> np.ndarray:
        """Reservation-cap trajectory (NaN for policies without one)."""
        return np.asarray(self._theta_caps)

    @property
    def completed(self) -> np.ndarray:
        """Cumulative completed-request counts per sample."""
        return np.asarray(self._completed)

    def throughput(self) -> np.ndarray:
        """Completions per second between consecutive samples."""
        done = self.completed
        if done.size < 2:
            return np.zeros(0)
        return np.diff(done) / np.diff(self.time)

    def peak(self, metric: str) -> float:
        """Largest per-node value observed for a metric."""
        arr = self.series(metric)
        return float(arr.max()) if arr.size else 0.0

    def node_mean(self, metric: str) -> np.ndarray:
        """Time-averaged value per node."""
        arr = self.series(metric)
        if arr.size == 0:
            return np.zeros(self.cluster.cfg.num_nodes)
        return arr.mean(axis=0)
