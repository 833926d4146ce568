"""Substrate adapters: how control decisions touch a running cluster.

Two adapters present the same :class:`~repro.control.controller.ControlAdapter`
surface to the reconciliation loop.  One core holds what they share —
the policy and ledger, the tuning actions, the role-change validation
and ``set_masters`` call — and each substrate adds only its clock, its
promotion candidate and its side of a role change:

:class:`SimAdapter`
    Mutates a live :class:`~repro.sim.cluster.Cluster` mid-run — swaps
    the policy's master/slave role sets (``Policy.set_masters``),
    rewrites the theta'_2 reservation cap, and refreshes the RSRC weight.
    Demotion follows the PR-1 graceful-drain principle applied to the
    *role*: the node keeps executing everything already routed to it
    (``Cluster._routes`` tracks in-flight work by request id, not by
    role), it just stops being an accept/static target — so conservation
    holds with zero aborts.  Promotion re-registers the node with the
    :class:`~repro.sim.monitor.LoadMonitor` (re-baselines its busy
    counters, with no probation) so the first post-promotion load sample
    reflects the new duty cycle rather than averaging across roles.

:class:`LiveAdapter`
    Drives the same transitions from the live master over the PR-4
    protocol: the routing tables flip locally (the master owns dispatch)
    and a ``role`` frame notifies the affected node, which acknowledges
    with ``role_ok``; the node is then re-registered with the master's
    :class:`~repro.sim.monitor.LoadTable` (marked alive, and
    :meth:`~repro.sim.monitor.LoadTable.restart_probation` — heartbeat
    probation restarts, so dispatch treats the node cautiously until a
    fresh run of heartbeats arrives in its new role).

Both substrates also get a loop driver — :class:`SimControlLoop`
(engine-scheduled, invisible to ``Cluster.pending_requests`` so
conservation accounting is untouched) and :class:`LiveControlLoop`
(an asyncio task) — that owns a :class:`~repro.control.controller.Controller`
and ticks it every ``cfg.period``.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Tuple, TYPE_CHECKING

from repro.control.controller import (
    DEMOTE,
    PROMOTE,
    RETUNE_THETA,
    SET_W,
    ControlAction,
    ControlConfig,
    Controller,
)
from repro.control.estimator import WorkloadEstimator
from repro.control.log import ControlLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.policies import MSPolicy
    from repro.live.master import MasterServer
    from repro.sim.cluster import Cluster
    from repro.sim.metrics import MetricsCollector

__all__ = ["SimAdapter", "SimControlLoop", "LiveAdapter", "LiveControlLoop"]


class _PolicyAdapter:
    """What both substrates share: the M/S policy the control plane
    tunes, the request ledger its estimator learns from, and every
    action whose logic does not depend on the substrate.

    A subclass supplies ``now``, ``num_nodes``, :meth:`promote_candidate`
    and :meth:`_role_changed`, the substrate's side of a role change.
    """

    def __init__(self, policy: "MSPolicy",
                 ledger: "MetricsCollector") -> None:
        self.policy = policy
        self.ledger = ledger
        self._ingested = 0

    # -- observation -----------------------------------------------------------

    def poll(self, estimator: WorkloadEstimator) -> int:
        """Feed the estimator every ledger row recorded since the last
        poll, as ``(kind, cpu, io)``."""
        start = end = self._ingested
        for _, _, _, cpu, io, kind, _, _, _ in self.ledger.rows(start):
            estimator.observe(kind, cpu, io)
            end += 1
        self._ingested = end
        return end - start

    def master_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self.policy.master_ids))

    def theta_cap(self) -> float:
        gate = self.policy.reservation
        return gate.theta_cap if gate is not None else 1.0

    def rsrc_w(self) -> float:
        return self.policy.default_w

    def own_cap(self) -> None:
        """Make the control plane the one writer of theta'_2: detach the
        policy's own loop, so every cap in force is traceable to a
        recorded CONTROL action."""
        self.policy.tuner = None

    def demote_candidate(self, min_masters: int) -> Optional[int]:
        """Highest-id demotable master (never the front-end accept node)."""
        masters = sorted(self.policy.master_ids, reverse=True)
        if len(masters) <= min_masters:
            return None
        accept = getattr(self.policy, "accept_node", None)
        for i in masters:
            if i != accept:
                return i
        return None

    # -- actuation -------------------------------------------------------------

    def apply(self, action: ControlAction) -> bool:
        policy = self.policy
        if action.kind == RETUNE_THETA:
            if policy.reservation is None or action.value is None:
                return False
            policy.reservation.theta_cap = float(action.value)
            return True
        if action.kind == SET_W:
            if action.value is None:
                return False
            policy.default_w = min(1.0, max(0.0, float(action.value)))
            return True
        masters = set(policy.master_ids)
        if action.kind == PROMOTE:
            if action.node_id in masters:
                return False
            masters.add(action.node_id)
        elif action.kind == DEMOTE:
            if (action.node_id not in masters or len(masters) <= 1
                    or action.node_id == getattr(policy, "accept_node", None)):
                return False
            # Graceful role drain: no aborts — in-flight work routed while
            # the node was a master finishes on it (conservation tracks
            # requests, not roles); the node merely stops being a static/
            # accept target from this instant.
            masters.discard(action.node_id)
        else:
            return False
        policy.set_masters(masters)
        self._role_changed(action.node_id, action.kind == PROMOTE)
        return True

    def _role_changed(self, node_id: int, promoted: bool) -> None:
        raise NotImplementedError


# -- simulator substrate ------------------------------------------------------


class SimAdapter(_PolicyAdapter):
    """Control-plane view of a running simulated cluster."""

    def __init__(self, cluster: "Cluster") -> None:
        super().__init__(cluster.policy, cluster.metrics)
        self.cluster = cluster

    @property
    def now(self) -> float:
        return self.cluster.engine.now

    @property
    def num_nodes(self) -> int:
        return len(self.cluster.nodes)

    def promote_candidate(self) -> Optional[int]:
        """Lowest-id healthy slave: alive, not draining, not suspect."""
        cluster = self.cluster
        masters = set(self.policy.master_ids)
        suspect = cluster.table.suspect
        best_fallback: Optional[int] = None
        for i in range(len(cluster.nodes)):
            if i in masters or i in cluster._draining:
                continue
            if cluster.nodes[i].failed:
                continue
            if not suspect[i]:
                return i
            if best_fallback is None:
                best_fallback = i
        return best_fallback

    def _role_changed(self, node_id: int, promoted: bool) -> None:
        if promoted:
            # Re-register with the monitor: re-baseline busy counters so
            # the next sample measures the node in its new role.
            self.cluster.monitor.reregister(node_id)


class SimControlLoop:
    """Engine-scheduled driver: ticks the controller every ``period``.

    The tick is a plain engine callback, deliberately *not* one of the
    request-bearing callbacks ``Cluster.pending_requests`` recognises,
    so an armed controller never extends a drain or perturbs the
    conservation ledger.
    """

    def __init__(self, cluster: "Cluster",
                 cfg: Optional[ControlConfig] = None) -> None:
        self.cluster = cluster
        self.adapter = SimAdapter(cluster)
        self.controller = Controller(self.adapter, cfg,
                                     ControlLog(cluster.tracer))
        self._started = False

    def start(self) -> "SimControlLoop":
        if not self._started:
            self._started = True
            self.controller.attach()
            self.cluster.engine.call_later(self.controller.cfg.period,
                                           self._tick)
        return self

    def _tick(self) -> None:
        self.controller.tick()
        self.cluster.engine.call_later(self.controller.cfg.period, self._tick)


# -- live substrate -----------------------------------------------------------


class LiveAdapter(_PolicyAdapter):
    """Control-plane view of the live master (PR-4 substrate)."""

    def __init__(self, master: "MasterServer") -> None:
        super().__init__(master.policy, master.metrics)
        self.master = master
        self._role_seq = 0

    @property
    def now(self) -> float:
        return self.master.clock.now

    @property
    def num_nodes(self) -> int:
        return self.master.num_nodes

    def promote_candidate(self) -> Optional[int]:
        """Lowest-id connected slave whose heartbeats are current."""
        master = self.master
        masters = set(self.policy.master_ids)
        suspect = master.table.suspect_array(master.clock.now)
        best_fallback: Optional[int] = None
        for i in sorted(master.peers):
            peer = master.peers[i]
            if i in masters or not peer.connected:
                continue
            if not suspect[i]:
                return i
            if best_fallback is None:
                best_fallback = i
        return best_fallback

    def _role_changed(self, node_id: int, promoted: bool) -> None:
        """Best-effort ROLE frame to the affected node (ack is async),
        then loadd re-registration: heartbeat probation restarts so
        dispatch treats the node cautiously until it reports in its new
        role."""
        from repro.live import protocol

        master = self.master
        peer = master.peers.get(node_id)
        if peer is not None and peer.writer is not None:
            self._role_seq += 1
            try:
                protocol.send_message(peer.writer, {
                    "op": "role", "node": node_id,
                    "role": "master" if promoted else "slave",
                    "seq": self._role_seq,
                })
            except (ConnectionResetError, RuntimeError):
                pass   # reader loop handles the disconnect bookkeeping
        master.table.set_alive(node_id, True)
        master.table.restart_probation(node_id)


class LiveControlLoop:
    """Asyncio driver for the live substrate: tick every ``period``."""

    def __init__(self, master: "MasterServer",
                 cfg: Optional[ControlConfig] = None) -> None:
        self.master = master
        self.adapter = LiveAdapter(master)
        self.controller = Controller(self.adapter, cfg,
                                     ControlLog(master.tracer))
        self._task: Optional[asyncio.Task] = None

    def start(self) -> "LiveControlLoop":
        if self._task is None:
            self.controller.attach()
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="control-loop")
        return self

    async def _run(self) -> None:
        period = self.controller.cfg.period
        while True:
            await asyncio.sleep(period)
            self.controller.tick()

    async def stop(self) -> None:
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
