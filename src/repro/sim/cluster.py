"""Cluster assembly: nodes + load monitor + dispatch policy + metrics.

The cluster plays the role of the paper's front end (load-balancing switch
or DNS plus the master-level acceptors).  Every arriving request is routed
by the configured :class:`~repro.core.policies.Policy`; a request executed
on a node other than the one that accepted it pays the remote-CGI network
latency before admission.

Optional subsystems, both off by default so the seed behaviour is exact:

* a :class:`~repro.sim.failures.FailurePolicy` controls crash semantics
  (detection mode/delay, restart-vs-lose);
* a :class:`~repro.sim.resilience.ResilienceConfig` arms the end-to-end
  resilience layer (per-attempt deadlines, bounded retries with backoff,
  overload shedding, drop accounting).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.core.policies import Policy, Route
from repro.obs.trace import (
    ABORT,
    ARRIVE,
    BG_ADMIT,
    COMPLETE,
    DENY,
    DISPATCH,
    LOST,
    NODE_DRAIN,
    NODE_FAIL,
    NODE_RECOVER,
    NODE_RETIRE,
    Tracer,
)
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.failures import FailurePolicy
from repro.sim.metrics import (
    AvailabilityReport,
    MetricsCollector,
    MetricsReport,
)
from repro.sim.monitor import LoadMonitor, LoadView
from repro.sim.node import Node
from repro.sim.process import SimProcess
from repro.sim.resilience import ResilienceConfig, ResilienceManager
from repro.workload.request import Request


class Cluster:
    """A simulated Web-server cluster with a pluggable dispatch policy.

    Optional failure semantics (crashes, recruitment) are controlled by a
    :class:`~repro.sim.failures.FailurePolicy`; by default all nodes are
    alive for the whole run and none of the failure paths fire.  Passing a
    :class:`~repro.sim.resilience.ResilienceConfig` arms deadlines, bounded
    retries, and overload shedding on the request path.
    """

    def __init__(self, cfg: SimConfig, policy: Policy,
                 failure_policy: Optional[FailurePolicy] = None,
                 resilience: Optional[ResilienceConfig] = None,
                 tracer: Optional[Tracer] = None):
        cfg.validate()
        if policy.num_nodes != cfg.num_nodes:
            raise ValueError(
                f"policy is sized for {policy.num_nodes} nodes but the "
                f"cluster has {cfg.num_nodes}"
            )
        self.cfg = cfg
        self.policy = policy
        self.engine = Engine()
        seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.num_nodes)
        self.nodes = [
            Node(self.engine, cfg, i, np.random.default_rng(seeds[i]),
                 self._on_complete)
            for i in range(cfg.num_nodes)
        ]
        self.monitor = LoadMonitor(self.engine, cfg.monitor, self.nodes)
        self.monitor.start()
        #: The load information a scheduler is allowed to see: stale by up
        #: to one monitoring period, as when polling ``rstat()``.
        self.table = self.monitor.table
        self.metrics = MetricsCollector()
        nodes = self.nodes
        self.view = LoadView(self.table, self.engine,
                             lambda node_id: nodes[node_id].active)
        #: Route per in-flight request, keyed by req_id (a request may sit
        #: in a node's listen backlog before any process exists for it).
        self._routes: Dict[int, Route] = {}
        self._background_ids: set[int] = set()
        #: Bound callbacks cached once: the request path schedules these on
        #: every arrival/hop, and attribute access would otherwise build a
        #: fresh bound-method object per event.
        self._arrive_cb = self._arrive
        self._admit_cb = self._admit
        self.background_completed = 0
        self.failure_policy = failure_policy or FailurePolicy()
        self.failure_policy.validate()
        self.resilience: Optional[ResilienceManager] = (
            ResilienceManager(self, resilience)
            if resilience is not None else None
        )
        #: Membership (the load table's): which nodes are in service.
        self.alive = self.table.alive
        #: Nodes draining gracefully: no new work, in-flight completes.
        self._draining: set[int] = set()
        self.restarted_requests = 0
        self.denied_attempts = 0
        #: Per-node accumulated out-of-service time (availability metrics).
        self.downtime = np.zeros(cfg.num_nodes)
        self._down_since: Dict[int, float] = {}
        #: Observability tap (``None`` keeps every hook a no-op).
        self.tracer = tracer
        if tracer is not None:
            tracer.bind(self.engine)
            self.engine.tracer = tracer
            for node in self.nodes:
                node._tracer = tracer
                node.cpu._tracer = tracer
                node.disk._tracer = tracer
            if self.resilience is not None:
                self.resilience._tracer = tracer
            # Policies stash their per-decision verdict (w, RSRC score,
            # reservation-gate state) only when asked to.
            self.policy.trace_decisions = True

    # -- submission ---------------------------------------------------------------

    def submit(self, request: Request) -> None:
        """Schedule one request's arrival."""
        self.engine.call_at(request.arrival_time, self._arrive_cb, request)
        self.metrics.submitted += 1

    def submit_many(self, requests: Iterable[Request]) -> int:
        """Schedule a whole trace.  Returns the number of requests queued.

        Batched through :meth:`Engine.call_at_many`: the arrivals join the
        engine's sorted bulk run with one sort instead of one heap
        insertion per request.
        """
        arrive = self._arrive_cb
        n = self.engine.call_at_many(
            (req.arrival_time, arrive, (req,)) for req in requests)
        self.metrics.submitted += n
        return n

    # -- arrival / completion ---------------------------------------------------

    def _arrive(self, request: Request) -> None:
        mgr = self.resilience
        tr = self.tracer
        if tr is not None:
            tr.record(ARRIVE, request.req_id, -1,
                      (int(request.kind), request.demand))
            # A cache-hit route can bypass the dynamic-dispatch path, so a
            # stale verdict from the previous request must not leak into
            # this request's dispatch span.
            self.policy.last_decision = None
        if mgr is not None and not mgr.admit(request):
            return  # shed under overload
        try:
            route = self.policy.route(request, self.view)
        except RuntimeError:
            if mgr is not None:
                # Total blackout: back off and retry against the budget.
                mgr.handle_failure(request, "no_capacity")
                return
            raise
        node_id = route.node_id
        num_nodes = self.cfg.num_nodes
        if not 0 <= node_id < num_nodes:
            raise ValueError(
                f"policy routed request {request.req_id} to invalid node "
                f"{node_id}"
            )
        if tr is not None:
            ld = self.policy.last_decision
            tr.record(DISPATCH, request.req_id, node_id,
                      (route.remote, self.policy.is_master(node_id))
                      + (ld if ld is not None
                         else (None, None, None, None, None)))
        if (self.nodes[node_id].failed
                or (self.table.alive_count < num_nodes
                    and not self.alive[node_id])):
            # A failure-unaware front end (DNS rotation with cached IPs) or
            # an undetected crash: the client's connection attempt fails.
            self.denied_attempts += 1
            if tr is not None:
                tr.record(DENY, request.req_id, node_id, ("dead_node",))
            if mgr is not None:
                mgr.handle_failure(request, "dead_node")
            else:
                self.engine.call_later(
                    self.failure_policy.client_retry_timeout,
                    self._arrive_cb, request)
            return
        net = self.cfg.network
        latency = net.frontend_latency + route.extra_latency
        if route.remote:
            latency += net.remote_cgi_latency
        if latency > 0.0:
            self.engine.call_later(latency, self._admit_cb, request, route,
                                   latency)
        else:
            self._admit(request, route, 0.0)

    def _admit(self, request: Request, route: Route, latency: float) -> None:
        node_id = route.node_id
        node = self.nodes[node_id]
        if node.failed or (self.table.alive_count < self.cfg.num_nodes
                           and not self.alive[node_id]):
            # The node died during the dispatch hop; re-route.
            if self.tracer is not None:
                self.tracer.record(DENY, request.req_id, node_id,
                                   ("dead_node",))
            if self.resilience is not None:
                self.resilience.handle_failure(request, "dead_node")
            else:
                self.engine.call_later(self.failure_policy.detection_delay,
                                       self._arrive_cb, request)
            return
        executed = route.substitute if route.substitute is not None \
            else request
        self._routes[executed.req_id] = route
        node.admit(executed, latency)
        if self.resilience is not None:
            self.resilience.on_admitted(request)

    # -- membership -----------------------------------------------------------

    def _mark_down(self, node_id: int) -> None:
        self.table.set_alive(node_id, False)
        self._down_since.setdefault(node_id, self.engine.now)

    def _mark_up(self, node_id: int) -> None:
        since = self._down_since.pop(node_id, None)
        if since is not None:
            self.downtime[node_id] += self.engine.now - since
        self.table.set_alive(node_id, True)

    def _detect_failure(self, node_id: int) -> None:
        """Deferred membership update of ``detection_mode='monitor'``."""
        if self.nodes[node_id].failed:
            self._mark_down(node_id)

    def fail_node(self, node_id: int) -> int:
        """Crash a node; restart its in-flight foreground requests
        elsewhere per the failure policy.  Returns the number of requests
        restarted.  Idempotent for already-dead nodes."""
        node = self.nodes[node_id]
        if node.failed:
            return 0
        self._draining.discard(node_id)
        if self.alive[node_id]:
            if (self.failure_policy.detection_mode == "monitor"
                    and self.failure_policy.detection_delay > 0):
                # The front end keeps routing to the corpse until detection;
                # only the suspicion layer can close this window earlier.
                self._down_since.setdefault(node_id, self.engine.now)
                self.engine.schedule(self.failure_policy.detection_delay,
                                     self._detect_failure, node_id)
            else:
                self._mark_down(node_id)
        aborted, queued = node.fail()
        tr = self.tracer
        if tr is not None:
            tr.record(NODE_FAIL, -1, node_id,
                      (len(aborted) + len(queued),))
        restarted = 0
        for request in [proc.request for proc in aborted] + queued:
            if request.req_id in self._background_ids:
                self._background_ids.discard(request.req_id)
                continue
            self._routes.pop(request.req_id, None)
            if tr is not None:
                tr.record(ABORT, request.req_id, node_id, ("crash",))
            if self.resilience is not None:
                if self.resilience.on_crash_abort(request):
                    restarted += 1
            elif self.failure_policy.restart_inflight:
                self.engine.call_later(self.failure_policy.detection_delay,
                                       self._arrive_cb, request)
                restarted += 1
            else:
                self.metrics.lost += 1
                if tr is not None:
                    tr.record(LOST, request.req_id, node_id)
        self.restarted_requests += restarted
        return restarted

    def recover_node(self, node_id: int) -> None:
        """Bring a crashed, drained, or standby node (back) into service."""
        self.nodes[node_id].recover()
        self._draining.discard(node_id)
        self._mark_up(node_id)
        if self.tracer is not None:
            self.tracer.record(NODE_RECOVER, -1, node_id)

    def retire_node(self, node_id: int) -> None:
        """Take an idle node out of service without the crash semantics
        (used to initialise recruitment-pool standby nodes)."""
        if self.nodes[node_id].active:
            raise RuntimeError(
                f"node {node_id} has in-flight work; use fail_node")
        self.nodes[node_id].failed = True
        self._mark_down(node_id)
        if self.tracer is not None:
            self.tracer.record(NODE_RETIRE, -1, node_id)

    def drain_node(self, node_id: int) -> int:
        """Gracefully take a node out of service: stop routing new work to
        it, let in-flight and backlogged requests finish, then retire it.

        This is the non-destructive counterpart of :meth:`fail_node` for
        recruitment reclaims and planned maintenance.  Returns the number
        of requests still draining.  Idempotent for out-of-service nodes.
        """
        node = self.nodes[node_id]
        if node.failed or node_id in self._draining:
            return 0
        self._mark_down(node_id)
        if self.tracer is not None:
            self.tracer.record(NODE_DRAIN, -1, node_id,
                               (node.active + len(node.backlog),))
        if node.active == 0 and not node.backlog:
            node.failed = True
            return 0
        self._draining.add(node_id)
        return node.active + len(node.backlog)

    def _finish_drain(self, node_id: int) -> None:
        node = self.nodes[node_id]
        if node.active == 0 and not node.backlog:
            self._draining.discard(node_id)
            node.failed = True

    def admit_background(self, request: Request, node_id: int) -> SimProcess:
        """Run a request on a node *outside* the measured workload.

        Background jobs consume CPU, disk and memory like any process but
        are excluded from metrics and policy feedback.
        :class:`repro.workload.noise.BackgroundLoad` uses this to model the
        "background jobs running in the cluster" that the paper cites as
        the gap between its simulator and the real Sun cluster.
        """
        if not 0 <= node_id < self.cfg.num_nodes:
            raise ValueError(f"invalid node {node_id}")
        self._background_ids.add(request.req_id)
        if self.tracer is not None:
            # Marked before the node's admit span so the auditor can
            # exclude the request from foreground lifecycle checks.
            self.tracer.record(BG_ADMIT, request.req_id, node_id)
        return self.nodes[node_id].admit(request)

    def _on_complete(self, node: Node, proc: SimProcess) -> None:
        request = proc.request
        req_id = request.req_id
        if self._draining and node.node_id in self._draining:
            self._finish_drain(node.node_id)
        if self._background_ids and req_id in self._background_ids:
            self._background_ids.discard(req_id)
            self.background_completed += 1
            return
        route = self._routes.pop(req_id)
        policy = self.policy
        node_id = proc.node_id
        on_master = node_id in policy.master_ids
        if self.tracer is not None:
            # Demand comes from the *executed* request (a cache hit
            # substitutes a cheaper body under the same id), matching what
            # the metrics collector records.
            self.tracer.record(COMPLETE, req_id, node_id,
                               (request.demand, route.remote, on_master))
        arrival = request.arrival_time
        finish = proc.finish_time
        self.metrics.record(request, arrival, finish, node_id, route.remote,
                            on_master)
        response = finish - arrival
        if self.resilience is not None:
            self.resilience.on_complete(request, response)
        policy.on_complete(request, response, on_master, node_id)

    # -- running ------------------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Run the event loop; see :meth:`Engine.run`."""
        return self.engine.run(until=until, max_events=max_events)

    def replay(self, requests: Iterable[Request], drain: float = 60.0,
               warmup: float = 0.0, *,
               end: Optional[float] = None) -> MetricsReport:
        """Submit a trace, run it to completion, and summarise.

        This is the one replay driver: every simulated run submits its
        trace and drains through here.

        Parameters
        ----------
        requests:
            The trace (arrival times must be non-decreasing is *not*
            required; the event heap orders them).
        drain:
            Extra virtual time allowed after ``end`` for queued work to
            finish; while any node is active or any request is still
            pending (an arrival, an admit hop, a backoff retry) the run
            is extended by ``drain`` again, at most 20 times.
        warmup:
            Passed through to :meth:`MetricsCollector.report`.
        end:
            Virtual time the drain starts from; defaults to the trace's
            last arrival.  Harnesses with a fixed horizon (a chaos
            scenario's duration, a drift trace's span) pass it.
        """
        requests = list(requests)
        n = self.submit_many(requests)
        if n == 0:
            raise ValueError("empty trace")
        if end is None:
            end = max(req.arrival_time for req in requests)
        deadline = end + drain
        self.run(until=deadline)
        # Under heavy load queues may still be draining: extend, bounded.
        extensions = 0
        while (any(node.active for node in self.nodes)
               or self.pending_requests()) and extensions < 20:
            deadline += drain
            self.run(until=deadline)
            extensions += 1
        return self.metrics.report(warmup=warmup)

    # -- availability accounting ---------------------------------------------------

    def pending_requests(self) -> int:
        """Foreground requests scheduled but not yet on a node: future
        arrivals, dispatch hops in flight, and backoff retries."""
        fns = {self._arrive_cb, self._admit_cb}
        if self.resilience is not None:
            fns.add(self.resilience._retry)
        return sum(1 for _, fn in self.engine.iter_pending() if fn in fns)

    def conservation(self) -> Dict[str, int]:
        """The request ledger's balance (the no-loss invariant), with the
        requests on nodes as ``in_flight`` and those still in the event
        queue as ``pending``; see :meth:`MetricsCollector.conservation`."""
        return self.metrics.conservation(len(self._routes),
                                         self.pending_requests())

    def assert_conservation(self) -> None:
        """Raise ``AssertionError`` if any request is unaccounted for."""
        ledger = self.conservation()
        if ledger["balance"] != 0:
            raise AssertionError(f"request conservation violated: {ledger}")

    def unavailability(self, horizon: Optional[float] = None) -> np.ndarray:
        """Per-node fraction of ``[0, horizon]`` spent out of service."""
        horizon = self.engine.now if horizon is None else horizon
        if horizon <= 0:
            return np.zeros(self.cfg.num_nodes)
        down = self.downtime.copy()
        for node_id, since in self._down_since.items():
            down[node_id] += max(0.0, min(self.engine.now, horizon) - since)
        return np.clip(down / horizon, 0.0, 1.0)

    def availability(self, horizon: Optional[float] = None,
                     slo_stretch: Optional[float] = None) -> AvailabilityReport:
        """Summarise goodput, drops, retries, and unavailability.

        Works with or without the resilience layer, so seed-behaviour and
        resilient clusters can be compared on identical metrics.
        """
        mgr = self.resilience
        if slo_stretch is None:
            slo_stretch = mgr.cfg.slo_stretch if mgr is not None else 30.0
        horizon = self.engine.now if horizon is None else horizon
        report = AvailabilityReport.from_cluster(
            self, horizon=horizon, slo_stretch=slo_stretch)
        return report
