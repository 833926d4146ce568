"""Periodic reconciliation loop re-solving Theorem 1 on the live estimate.

Each tick the controller:

1. polls its substrate adapter for newly completed requests and folds
   them into the :class:`~repro.control.estimator.WorkloadEstimator`;
2. rebuilds the estimated :class:`~repro.core.queuing.Workload` and
   re-solves ``optimal_masters`` (the Theorem-1 sweep) for the target
   master count, clamped to ``[min_masters, max_masters]``;
3. emits typed :class:`ControlAction`\\ s — update the RSRC weight ``w``,
   retune the theta'_2 reservation cap, or step the master set by one
   node (promote slave -> master / demote master -> slave) — and applies
   them through the adapter unless running ``--dry-run``.

Stability machinery keeps estimator noise from thrashing the cluster:

* **hysteresis** — a role step needs the re-solve to disagree with the
  current master count for ``confirm_ticks`` consecutive ticks;
* **cooldown** — at most one role change per ``cooldown`` seconds, and
  only one node per actuation (the next tick re-evaluates before the
  next step);
* **clamps** — the target is bounded to ``[min_masters, max_masters]``
  (default upper bound ``p - 1`` so the reservation gate stays
  meaningful: at ``m == p`` there are no slaves to protect);
* **tolerances** — ``w``/theta retunes are suppressed while the change
  is below ``w_tolerance``/``theta_tolerance``, except right after a
  role change, when the cap *must* follow the new ``m``.

Everything the loop sees and does is recorded through
:class:`~repro.control.log.ControlLog`, giving the trace auditor a
replayable record of the configuration in force at every timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Tuple

from repro.control.estimator import EstimatorConfig, WorkloadEstimator
from repro.control.log import ControlLog
from repro.core.theorem import MSDesign, optimal_masters, reservation_ratio

__all__ = ["ControlAction", "ControlConfig", "Controller", "ControlAdapter",
           "RETUNE_THETA", "SET_W", "PROMOTE", "DEMOTE"]

# Action kinds (string tags so spans stay JSON-friendly).
RETUNE_THETA = "retune_theta"
SET_W = "set_w"
PROMOTE = "promote"
DEMOTE = "demote"


@dataclass(frozen=True)
class ControlAction:
    """One typed decision emitted by the reconciliation loop."""

    kind: str                       # RETUNE_THETA | SET_W | PROMOTE | DEMOTE
    node_id: int = -1               # affected node for role actions
    value: Optional[float] = None   # new cap / new w for tuning actions
    reason: str = ""


@dataclass(frozen=True)
class ControlConfig:
    """Knobs for the reconciliation loop (see module docstring)."""

    period: float = 0.5
    cooldown: float = 2.0
    confirm_ticks: int = 2
    min_masters: int = 1
    max_masters: Optional[int] = None   # None -> p - 1
    theta_tolerance: float = 0.02
    w_tolerance: float = 0.05
    dry_run: bool = False
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)

    def validate(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        if self.confirm_ticks < 1:
            raise ValueError("confirm_ticks must be >= 1")
        if self.min_masters < 1:
            raise ValueError("min_masters must be >= 1")
        if self.max_masters is not None and self.max_masters < self.min_masters:
            raise ValueError("max_masters must be >= min_masters")
        if self.theta_tolerance < 0 or self.w_tolerance < 0:
            raise ValueError("tolerances must be >= 0")
        self.estimator.validate()

    def resolved_max_masters(self, p: int) -> int:
        """Upper clamp on the master count (default ``p - 1``)."""
        cap = self.max_masters if self.max_masters is not None else p - 1
        return max(self.min_masters, min(cap, p - 1 if p > 1 else 1))


class ControlAdapter(Protocol):
    """Substrate interface the controller reconciles through.

    Implementations: :class:`repro.control.actuator.SimAdapter` (mutates
    a running :class:`~repro.sim.cluster.Cluster`) and
    :class:`repro.control.actuator.LiveAdapter` (drives the PR-4 wire
    protocol from the live master).  Both share one core: among the rest,
    :meth:`poll` feeds the estimator the request-ledger rows recorded
    since the last poll, and :meth:`own_cap` detaches the policy's own
    theta'_2 loop.
    """

    @property
    def now(self) -> float: ...
    @property
    def num_nodes(self) -> int: ...
    def master_ids(self) -> Tuple[int, ...]: ...
    def poll(self, estimator: WorkloadEstimator) -> int: ...
    def theta_cap(self) -> float: ...
    def rsrc_w(self) -> float: ...
    def own_cap(self) -> None: ...
    def promote_candidate(self) -> Optional[int]: ...
    def demote_candidate(self, min_masters: int) -> Optional[int]: ...
    def apply(self, action: ControlAction) -> bool: ...


class Controller:
    """The reconciliation loop itself; substrate-agnostic.

    Drive it by calling :meth:`tick` periodically — the sim wrapper
    schedules it on the event engine, the live wrapper from an asyncio
    task.  Call :meth:`attach` once before the first tick.
    """

    def __init__(self, adapter: ControlAdapter,
                 cfg: Optional[ControlConfig] = None,
                 log: Optional[ControlLog] = None) -> None:
        self.cfg = cfg or ControlConfig()
        self.cfg.validate()
        self.adapter = adapter
        self.log = log or ControlLog()
        self.estimator = WorkloadEstimator(self.cfg.estimator)
        self.ticks = 0
        #: Applied actions, in order (dry-run actions are *not* listed
        #: here; see :attr:`proposed` for everything the loop wanted).
        self.applied: List[ControlAction] = []
        #: Every action the loop emitted, applied or not.
        self.proposed: List[ControlAction] = []
        self.last_design: Optional[MSDesign] = None
        self._last_fold = adapter.now
        self._last_role_t = -float("inf")
        self._streak_target: Optional[int] = None
        self._streak = 0
        self._attached = False

    # -- lifecycle -------------------------------------------------------------

    def attach(self) -> None:
        """Record the initial configuration and take cap ownership."""
        if self._attached:
            return
        self._attached = True
        p = self.adapter.num_nodes
        masters = self.adapter.master_ids()
        if not self.cfg.dry_run:
            # The control plane becomes the one writer of theta'_2: the
            # policy's own response-ratio loop is detached.  A dry run
            # leaves it writing the cap.
            self.adapter.own_cap()
        self.log.attach(self.cfg, len(masters), p,
                        theta0=self.adapter.theta_cap(),
                        own_cap=not self.cfg.dry_run)
        self.log.roles(masters)

    # -- the loop --------------------------------------------------------------

    def tick(self) -> List[ControlAction]:
        """One reconciliation pass; returns the actions emitted."""
        if not self._attached:
            self.attach()
        self.ticks += 1
        now = self.adapter.now
        self.adapter.poll(self.estimator)
        est = self.estimator.fold(max(now - self._last_fold, 0.0))
        self._last_fold = now
        self.log.estimate(est.a, est.r, est.w, est.rate, est.samples)

        emitted: List[ControlAction] = []
        m_current = len(self.adapter.master_ids())
        if not est.ready:
            self.log.decision(None, m_current, None, "cold-window")
            return emitted

        p = self.adapter.num_nodes
        workload = self.estimator.workload(p)
        if workload is None or not workload.feasible:
            self.log.decision(None, m_current, None, "infeasible-estimate")
            return emitted

        try:
            design = optimal_masters(workload)
        except (ValueError, ArithmeticError, ZeroDivisionError):
            self.log.decision(None, m_current, None, "no-stable-design")
            return emitted
        self.last_design = design
        lo = self.cfg.min_masters
        hi = self.cfg.resolved_max_masters(p)
        m_target = max(lo, min(design.m, hi))

        # 1. RSRC weight refresh (w drives min-RSRC node selection).
        assert est.w is not None
        if abs(est.w - self.adapter.rsrc_w()) > self.cfg.w_tolerance:
            emitted.append(ControlAction(SET_W, value=est.w,
                                         reason="cgi-split-drift"))

        # 2. Role step, gated by hysteresis + cooldown.
        role_changed = False
        if m_target != m_current:
            if self._streak_target == m_target:
                self._streak += 1
            else:
                self._streak_target, self._streak = m_target, 1
            confirmed = self._streak >= self.cfg.confirm_ticks
            cooled = now - self._last_role_t >= self.cfg.cooldown
            if confirmed and cooled:
                step = self._role_step(m_target, m_current)
                if step is not None:
                    emitted.append(step)
                    role_changed = True
        else:
            self._streak_target, self._streak = None, 0

        # 3. theta'_2 retune from the *post-step* master count: the cap
        #    formula depends on m, so a role change forces a retune.
        m_after = m_current + (1 if role_changed and emitted[-1].kind
                               == PROMOTE else 0)
        if role_changed and emitted[-1].kind == DEMOTE:
            m_after = m_current - 1
        assert est.a is not None and est.r is not None
        theta_target = reservation_ratio(est.a, est.r, m_after, p)
        if (role_changed
                or abs(theta_target - self.adapter.theta_cap())
                > self.cfg.theta_tolerance):
            emitted.append(ControlAction(
                RETUNE_THETA, value=theta_target,
                reason="role-step" if role_changed else "arrival-drift"))

        self.log.decision(m_target, m_current, theta_target,
                          "reconcile" if emitted else "steady")
        self._dispatch(emitted, now)
        return emitted

    # -- helpers ---------------------------------------------------------------

    def _role_step(self, m_target: int, m_current: int
                   ) -> Optional[ControlAction]:
        if m_target > m_current:
            node = self.adapter.promote_candidate()
            if node is None:
                return None
            return ControlAction(PROMOTE, node_id=node,
                                 reason=f"target-m={m_target}")
        node = self.adapter.demote_candidate(self.cfg.min_masters)
        if node is None:
            return None
        return ControlAction(DEMOTE, node_id=node,
                             reason=f"target-m={m_target}")

    def _dispatch(self, actions: List[ControlAction], now: float) -> None:
        for action in actions:
            self.proposed.append(action)
            applied = False
            if not self.cfg.dry_run:
                applied = self.adapter.apply(action)
            self.log.action(action, applied)
            if applied:
                self.applied.append(action)
                if action.kind in (PROMOTE, DEMOTE):
                    self._last_role_t = now
                    self._streak_target, self._streak = None, 0
                    self.log.roles(self.adapter.master_ids())
