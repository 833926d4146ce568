"""End-to-end resilience: deadlines, bounded retries, and overload shedding.

The paper motivates the master/slave architecture operationally — "hiding
server failures is critical" — but its model stops at restarting work after
a crash.  This module closes the remaining gaps on the request path:

* **Per-attempt deadlines with bounded retries.**  A request that times out
  on a node, lands on a dead/reclaimed node, or finds no capacity is
  re-routed after an exponential backoff with jitter.  Each request carries
  a retry budget; once it is exhausted the request is counted as *failed*
  (dropped, with a reason) instead of silently vanishing or queueing
  forever.
* **SLO-driven overload protection.**  A periodic controller watches the
  monitored dynamic stretch and per-node backlog.  Under pressure it first
  tightens the Section-4 reservation cap (``theta'_2``) toward zero so
  masters keep serving static traffic, then sheds new dynamic admissions
  outright.  Static service degrades gracefully instead of collapsing.
* **Accounting.**  Every drop is attributed to a reason (``timeout``,
  ``crash``, ``dead_node``, ``no_capacity``, ``shed``), retries and SLO
  violations are counted, and drops land on the cluster's request ledger
  (:class:`~repro.sim.metrics.MetricsCollector`), whose
  :meth:`~repro.sim.cluster.Cluster.conservation` can prove that no
  request was lost.

The manager is opt-in: a :class:`~repro.sim.cluster.Cluster` built without a
:class:`ResilienceConfig` behaves exactly like the seed simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.obs.trace import DROP, RETRY, SHED_LEVEL, TIMEOUT
from repro.sim.engine import Event
from repro.workload.request import Request

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.cluster import Cluster

#: Drop reasons the manager may record (keys of the ledger's ``drops``).
DROP_REASONS = ("timeout", "crash", "dead_node", "no_capacity", "shed")


@dataclass(slots=True)
class ResilienceConfig:
    """Tunables of the request-path resilience layer."""

    #: Per-attempt deadline for static / dynamic requests, in seconds from
    #: admission on a node (``None`` = attempts never time out).  An expired
    #: attempt is aborted and re-routed against the retry budget.
    deadline_static: Optional[float] = None
    deadline_dynamic: Optional[float] = None
    #: Retry budget per request, counting every re-route (timeouts, crash
    #: restarts, dead-node denials).  Exhausting it drops the request.
    max_retries: int = 3
    #: Exponential backoff between attempts: the n-th retry waits
    #: ``min(backoff_max, backoff_base * backoff_factor**(n-1))`` seconds,
    #: jittered by ``+/- jitter`` (a fraction) to avoid retry storms.
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.5

    #: Enable the overload controller.
    shed_enabled: bool = True
    #: Seconds between controller evaluations.
    shed_period: float = 0.25
    #: Dynamic-stretch EWMA above which the cluster is overloaded (level 1:
    #: reservation cap forced to zero; at twice the threshold, level 2: new
    #: dynamic admissions are shed).
    shed_stretch: float = 50.0
    #: Mean in-flight + backlogged requests per alive node with the same
    #: two-level semantics.
    shed_backlog: float = 40.0
    #: De-escalation hysteresis: pressure must fall below ``threshold *
    #: shed_hysteresis`` before a level is left.
    shed_hysteresis: float = 0.5
    #: Per-tick decay of the stretch EWMA when no dynamic request completed
    #: since the last tick (drained backlogs must be able to de-escalate).
    shed_decay: float = 0.85

    #: Completions whose stretch exceeds this count as SLO violations and
    #: are excluded from goodput.
    slo_stretch: float = 30.0
    #: Seed of the manager-private jitter stream.
    seed: int = 0

    def validate(self) -> None:
        for name in ("deadline_static", "deadline_dynamic"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValueError(f"{name} must be positive or None")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff bounds must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.shed_period <= 0:
            raise ValueError("shed_period must be positive")
        if self.shed_stretch <= 0 or self.shed_backlog <= 0:
            raise ValueError("shed thresholds must be positive")
        if not 0.0 < self.shed_hysteresis <= 1.0:
            raise ValueError("shed_hysteresis must be in (0, 1]")
        if not 0.0 < self.shed_decay <= 1.0:
            raise ValueError("shed_decay must be in (0, 1]")
        if self.slo_stretch <= 0:
            raise ValueError("slo_stretch must be positive")


class ResilienceManager:
    """Per-cluster runtime of the resilience layer.

    Owned by :class:`~repro.sim.cluster.Cluster`; the cluster calls in on
    every admission, completion, crash abort, and mis-route, and the manager
    decides whether to retry (with backoff), drop (with a reason), or shed.
    """

    __slots__ = ("cluster", "cfg", "rng", "attempts", "_deadline_ev",
                 "_retry_ev", "retries", "timeouts", "shed_level",
                 "shed_transitions", "_shed_armed", "_stretch_ewma",
                 "_dyn_completions", "_dyn_seen_at_tick", "_tracer")

    def __init__(self, cluster: "Cluster", cfg: ResilienceConfig):
        cfg.validate()
        self.cluster = cluster
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        #: Retries consumed per in-flight request id.
        self.attempts: Dict[int, int] = {}
        self._deadline_ev: Dict[int, Event] = {}
        self._retry_ev: Dict[int, Event] = {}
        self.retries = 0
        self.timeouts = 0
        #: 0 = normal, 1 = reservation cap forced to zero, 2 = shedding new
        #: dynamic admissions.
        self.shed_level = 0
        self.shed_transitions = 0
        self._shed_armed = False
        self._stretch_ewma: Optional[float] = None
        self._dyn_completions = 0
        self._dyn_seen_at_tick = 0
        #: Observability tap (set by the cluster; ``None`` = disabled).
        self._tracer = None

    # -- admission gate --------------------------------------------------------

    def admit(self, request: Request) -> bool:
        """Gate one arrival; ``False`` means the request was shed."""
        if self.cfg.shed_enabled:
            self._ensure_shed_loop()
        if self.shed_level >= 2 and request.is_dynamic:
            self._drop(request, "shed")
            return False
        return True

    # -- attempt lifecycle -----------------------------------------------------

    def on_admitted(self, request: Request) -> None:
        """Arm the per-attempt deadline once a node accepted the request."""
        deadline = (self.cfg.deadline_dynamic if request.is_dynamic
                    else self.cfg.deadline_static)
        if deadline is None:
            return
        self._deadline_ev[request.req_id] = self.cluster.engine.schedule(
            deadline, self._on_deadline, request)

    def on_complete(self, request: Request, response_time: float) -> None:
        """Completion: disarm timers and feed the overload controller
        (SLO outcomes are read off the cluster's request ledger)."""
        self._disarm(request.req_id)
        self.attempts.pop(request.req_id, None)
        if request.is_dynamic:
            stretch = response_time / request.demand
            self._dyn_completions += 1
            prev = self._stretch_ewma
            self._stretch_ewma = (stretch if prev is None
                                  else 0.2 * stretch + 0.8 * prev)

    def on_crash_abort(self, request: Request) -> bool:
        """A crash aborted this in-flight request; retry or drop it.

        Returns ``True`` when the request was rescheduled (the master
        restarts it elsewhere after the detection delay).
        """
        self._disarm(request.req_id)
        if not self.cluster.failure_policy.restart_inflight:
            self._drop(request, "crash")
            return False
        return self.handle_failure(
            request, "crash",
            extra_delay=self.cluster.failure_policy.detection_delay)

    def handle_failure(self, request: Request, reason: str,
                       extra_delay: float = 0.0) -> bool:
        """Charge one failed attempt; re-route with backoff or drop.

        Returns ``True`` if a retry was scheduled.
        """
        self._disarm(request.req_id)
        n = self.attempts.get(request.req_id, 0) + 1
        if n > self.cfg.max_retries:
            self.attempts.pop(request.req_id, None)
            self._drop(request, reason)
            return False
        self.attempts[request.req_id] = n
        self.retries += 1
        delay = min(self.cfg.backoff_max,
                    self.cfg.backoff_base * self.cfg.backoff_factor ** (n - 1))
        if self.cfg.jitter > 0.0:
            delay *= 1.0 + self.cfg.jitter * (2.0 * self.rng.random() - 1.0)
        self._retry_ev[request.req_id] = self.cluster.engine.schedule(
            extra_delay + delay, self._retry, request)
        if self._tracer is not None:
            self._tracer.record(RETRY, request.req_id, -1,
                                (n, extra_delay + delay))
        return True

    def _retry(self, request: Request) -> None:
        self._retry_ev.pop(request.req_id, None)
        self.cluster._arrive(request)

    def _on_deadline(self, request: Request) -> None:
        """An admitted attempt outlived its deadline: abort and re-route."""
        self._deadline_ev.pop(request.req_id, None)
        route = self.cluster._routes.pop(request.req_id, None)
        if route is None:
            return  # completed in the same instant
        if self._tracer is not None:
            self._tracer.record(TIMEOUT, request.req_id, route.node_id)
        self.cluster.nodes[route.node_id].abort_request(request.req_id)
        self.timeouts += 1
        self.handle_failure(request, "timeout")

    def _disarm(self, req_id: int) -> None:
        ev = self._deadline_ev.pop(req_id, None)
        if ev is not None:
            ev.cancel()

    def _drop(self, request: Request, reason: str) -> None:
        """Count a failed request (terminal) on the cluster's ledger."""
        self._disarm(request.req_id)
        self.attempts.pop(request.req_id, None)
        self.cluster.metrics.drop(reason)
        if self._tracer is not None:
            self._tracer.record(DROP, request.req_id, -1, (reason,))

    # -- overload controller ---------------------------------------------------

    def _ensure_shed_loop(self) -> None:
        if not self._shed_armed:
            self._shed_armed = True
            self.cluster.engine.schedule(self.cfg.shed_period,
                                         self._shed_tick)

    def pressure(self) -> float:
        """Normalised overload score: 1.0 = at threshold, 2.0 = severe."""
        cluster = self.cluster
        alive = max(1, cluster.table.alive_count)
        backlog = sum(node.active + len(node.backlog)
                      for node in cluster.nodes if not node.failed) / alive
        score = backlog / self.cfg.shed_backlog
        if self._stretch_ewma is not None:
            score = max(score, self._stretch_ewma / self.cfg.shed_stretch)
        return score

    def _shed_tick(self) -> None:
        self._shed_armed = False
        # Without fresh dynamic completions the stretch estimate would pin
        # the controller at its last level; decay it so drained backlogs
        # can de-escalate.
        if (self._dyn_completions == self._dyn_seen_at_tick
                and self._stretch_ewma is not None):
            self._stretch_ewma *= self.cfg.shed_decay
        self._dyn_seen_at_tick = self._dyn_completions

        score = self.pressure()
        level = self.shed_level
        if score >= 2.0:
            level = 2
        elif score >= 1.0:
            level = max(level, 1)
        if level == 2 and score < 2.0 * self.cfg.shed_hysteresis:
            level = 1
        if level >= 1 and score < self.cfg.shed_hysteresis:
            level = 0
        if level != self.shed_level:
            self.shed_transitions += 1
            if self._tracer is not None:
                self._tracer.record_meta(SHED_LEVEL, self.shed_level, level)
            self.shed_level = level
            self._apply_pressure()

        cluster = self.cluster
        if (any(node.active or node.backlog for node in cluster.nodes)
                or self._retry_ev or cluster._routes
                or self.shed_level > 0):
            self._ensure_shed_loop()

    def _apply_pressure(self) -> None:
        """Tighten/release the reservation cap on the routing policy."""
        reservation = getattr(self.cluster.policy, "reservation", None)
        if reservation is not None:
            reservation.set_pressure(0.0 if self.shed_level >= 1 else 1.0)
