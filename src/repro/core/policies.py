"""Dispatch policies: the flat architecture, the optimized M/S scheduler,
its ablations (M/S-ns, M/S-nr, M/S-1), the M/S' alternative, and two
baseline policies a load-balancing switch might implement.

A policy maps each arriving request to an executing node, given only the
load view a real front end would have (periodic, slightly stale CPU-idle
and disk-available ratios).  The cluster charges the remote-CGI network
latency whenever the executing node differs from the accepting node.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from operator import mul
from typing import Iterable, List, Optional, Protocol, Sequence

import numpy as np

from repro.core.draws import BlockStream
from repro.core.reservation import (
    ReservationConfig,
    ReservationController,
    ReservationGate,
)
from repro.core.rsrc import DEFAULT_W, rsrc_cost, select_min_rsrc
from repro.core.sampling import DemandSampler
from repro.workload.request import Request, RequestKind


#: Idle-ratio discount per unit of work a dispatcher has in flight on a
#: resource: ``n`` outstanding units scale the reported ratio by ``0.5**n``.
HERDING_DISCOUNT = 0.5


class LoadView(Protocol):
    """What a policy is allowed to observe about the cluster.

    The suspicion layer is part of it: ``healthy_array()`` flags nodes
    that are in service and not suspect, ``all_healthy()`` is its O(1)
    summary (see :class:`repro.sim.monitor.LoadView`).  A view with no
    source of suspicion returns its alive membership from both.
    """

    @property
    def num_nodes(self) -> int: ...

    @property
    def now(self) -> float: ...

    def cpu_idle_array(self) -> np.ndarray: ...

    def disk_avail_array(self) -> np.ndarray: ...

    def active_requests(self, node_id: int) -> int: ...

    def is_alive(self, node_id: int) -> bool: ...

    def alive_array(self) -> np.ndarray: ...

    def healthy_array(self) -> np.ndarray: ...

    def all_healthy(self) -> bool: ...


@dataclass(frozen=True, slots=True)
class Route:
    """Outcome of a dispatch decision."""

    node_id: int
    #: True when the executing node differs from the accepting node, which
    #: costs one remote-CGI dispatch latency.
    remote: bool
    #: Additional dispatch latency beyond the standard network costs —
    #: e.g. a client round-trip for HTTP-redirection rescheduling.
    extra_latency: float = 0.0
    #: Execute this request instead of the submitted one (same identity,
    #: different demand) — used by the CGI cache to serve hits cheaply.
    substitute: Optional["Request"] = None


class Policy(abc.ABC):
    """Base class for dispatch policies."""

    #: When true (set by a traced cluster), :meth:`route` stashes its
    #: per-decision verdict in :attr:`last_decision` as ``(w, rsrc_cost,
    #: gate, effective_cap, master_fraction)`` — ``gate`` is ``None`` for
    #: policies/paths where the reservation cap does not apply.  Policies
    #: that never run the dynamic-dispatch path simply leave it ``None``.
    trace_decisions = False
    last_decision: Optional[tuple] = None

    def __init__(self, num_nodes: int, master_ids: Sequence[int],
                 seed: int = 0):
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        self.num_nodes = num_nodes
        self._all_nodes = np.arange(num_nodes, dtype=np.intp)
        #: Shared local and remote routes per node: routes are frozen, so
        #: every plain decision can return the same object.
        self._local = tuple(Route(i, remote=False) for i in range(num_nodes))
        self._remote = tuple(Route(i, remote=True) for i in range(num_nodes))
        self._set_roles(master_ids)
        #: The policy's random draws; the accepting-master pick is served
        #: from pre-drawn blocks.
        self._draws = BlockStream(np.random.default_rng(seed))

    @property
    def rng(self) -> np.random.Generator:
        """The policy's generator, for draws the block stream does not
        serve.  Reading it re-syncs the stream, so the generator is
        positioned exactly as if every draw had been a scalar call."""
        return self._draws.generator

    def is_master(self, node_id: int) -> bool:
        return node_id in self.master_ids

    @property
    def num_masters(self) -> int:
        return len(self._masters)

    def set_masters(self, master_ids: Iterable[int]) -> None:
        """Replace the master/slave role split mid-run (control plane).

        Only routing state changes: in-flight requests keep executing
        where they were dispatched (the cluster tracks them by request
        id, not by role), so a role transition is loss-free by
        construction.  Subclasses holding derived per-role state extend
        this.
        """
        self._set_roles(master_ids)

    def _set_roles(self, master_ids: Iterable[int]) -> None:
        """Validate a master set and rebuild every per-role id cache."""
        ids = frozenset(int(i) for i in master_ids)
        if not ids:
            raise ValueError("at least one master/acceptor node is required")
        if not all(0 <= i < self.num_nodes for i in ids):
            raise ValueError("master ids out of range")
        self.master_ids = ids
        #: Plain-int master ids, drawn from on every all-healthy request.
        self._master_list = sorted(ids)
        self._masters = np.array(self._master_list, dtype=np.intp)
        self._slaves = np.array(
            sorted(set(range(self.num_nodes)) - ids), dtype=np.intp
        )

    @abc.abstractmethod
    def route(self, request: Request, view: LoadView) -> Route:
        """Choose the executing node for a request."""

    def on_complete(self, request: Request, response_time: float,
                    on_master: bool, node_id: int) -> None:
        """Completion feedback; default: ignore."""

    def on_abort(self, request: Request, node_id: int) -> None:
        """Forget in-flight bookkeeping for a request that will never
        complete (timeout, dead node).  Unlike :meth:`on_complete` this
        must not feed the response-time estimators — a failure elapsed
        time is not a service-time observation.  Default: ignore."""

    def _stash_decision(self, w: float, eff_cpu: Sequence[float],
                        eff_disk: Sequence[float], node: int,
                        gate: Optional[bool]) -> None:
        """Record a dynamic-dispatch verdict for the tracing layer.

        Called *before* ``record_decision`` moves the admission EWMA, so
        the stashed gate state is the one the dispatch was gated on.
        """
        res = getattr(self, "reservation", None)
        self.last_decision = (
            w,
            rsrc_cost(w, float(eff_cpu[node]), float(eff_disk[node])),
            gate,
            None if res is None else res.effective_cap,
            None if res is None else res.master_fraction,
        )

    def _alive(self, view: LoadView, ids: np.ndarray) -> np.ndarray:
        """Restrict a candidate id array to in-service, trusted nodes.

        Nodes flagged *suspect* (failed probe, stale sample, post-recovery
        probation) are excluded before formal crash detection removes them
        from membership.  If suspicion would empty the pool the plain
        alive set is used — a node with stale load data still beats
        refusing service.
        """
        if view.all_healthy():
            return ids
        pool = ids[view.alive_array()[ids]]
        if len(pool) == 0:
            return pool
        trusted = ids[view.healthy_array()[ids]]
        return trusted if len(trusted) else pool

    def _random_alive_master(self, view: LoadView) -> int:
        """An in-service accepting master; any alive node acts as master
        when the whole master tier is down (emergency promotion)."""
        if view.all_healthy():
            # Same draw as the general path: the pool is every master.
            masters = self._master_list
            return masters[self._draws.integers(len(masters))]
        masters = self._alive(view, self._masters)
        if len(masters) == 0:
            masters = self._alive(view, self._all_nodes)
            if len(masters) == 0:
                raise RuntimeError("no nodes in service")
        return int(masters[self._draws.integers(len(masters))])

    @property
    def name(self) -> str:
        return type(self).__name__


# -- flat architecture and switch baselines ------------------------------------------


class FlatPolicy(Policy):
    """Uniform random dispatch; every node serves every class locally.

    This is the paper's model of a DNS-rotation or switch-based cluster
    ("requests are randomly dispatched to nodes in the cluster with a
    uniform distribution").

    ``failure_aware`` distinguishes the two flat front ends the paper
    discusses: a load-balancing switch detects dead nodes sub-second and
    removes them from the pool (True); DNS rotation with client-side IP
    caching keeps sending traffic to dead nodes (False), costing those
    clients a retry timeout.
    """

    def __init__(self, num_nodes: int, seed: int = 0,
                 failure_aware: bool = True):
        super().__init__(num_nodes, range(num_nodes), seed)
        self.failure_aware = failure_aware

    def route(self, request: Request, view: LoadView) -> Route:
        pool = self._alive(view, self._all_nodes) if self.failure_aware \
            else self._all_nodes
        if len(pool) == 0:
            raise RuntimeError("no nodes in service")
        node = int(pool[self.rng.integers(len(pool))])
        return self._local[node]


class DNSAffinityPolicy(Policy):
    """DNS rotation with client-side IP caching.

    The paper's Section-1/2 model of the NCSA-style cluster: the DNS
    server hands out node IPs round-robin, but each *client* caches its
    answer and keeps hitting the same node for all of its requests.  Load
    balance is then only as good as the client mix — heavy clients pile
    onto single nodes, which is exactly why "research has demonstrated
    that DNS round-robin rotation does not evenly distribute the load".

    Requests without a client id (``client_id == -1``) fall back to
    per-request rotation (an uncached resolver).
    """

    def __init__(self, num_nodes: int, seed: int = 0):
        super().__init__(num_nodes, range(num_nodes), seed)
        self._next = 0
        self._bindings: dict[int, int] = {}
        self.failure_aware = False  # cached IPs ignore failures

    def route(self, request: Request, view: LoadView) -> Route:
        client = request.client_id
        if client < 0:
            node = self._next
            self._next = (self._next + 1) % self.num_nodes
            return self._local[node]
        node = self._bindings.get(client)
        if node is None:
            node = self._next
            self._next = (self._next + 1) % self.num_nodes
            self._bindings[client] = node
        return self._local[node]

    @property
    def distinct_bindings(self) -> int:
        return len(self._bindings)


class RoundRobinPolicy(Policy):
    """Strict cyclic dispatch (NCSA-style DNS rotation)."""

    def __init__(self, num_nodes: int, seed: int = 0,
                 failure_aware: bool = True):
        super().__init__(num_nodes, range(num_nodes), seed)
        self._next = 0
        self.failure_aware = failure_aware

    def route(self, request: Request, view: LoadView) -> Route:
        for _ in range(self.num_nodes):
            node = self._next
            self._next = (self._next + 1) % self.num_nodes
            if not self.failure_aware or view.is_alive(node):
                return self._local[node]
        raise RuntimeError("no nodes in service")


class LeastActivePolicy(Policy):
    """Send to the node with the fewest in-flight requests — the
    "least connections" scheme of a load-balancing switch."""

    def __init__(self, num_nodes: int, seed: int = 0):
        super().__init__(num_nodes, range(num_nodes), seed)

    def route(self, request: Request, view: LoadView) -> Route:
        pool = [i for i in range(self.num_nodes) if view.is_alive(i)]
        if not pool:
            raise RuntimeError("no nodes in service")
        counts = {i: view.active_requests(i) for i in pool}
        best = min(counts.values())
        ties = [i for i, c in counts.items() if c == best]
        node = ties[int(self.rng.integers(len(ties)))]
        return self._local[node]


# -- the master/slave scheduler and its ablations -----------------------------------


class MSPolicy(Policy):
    """The paper's optimized master/slave scheduler.

    * static requests are processed at a uniformly random master;
    * dynamic requests are placed on the minimum-RSRC node among the slaves
      plus — when the reservation gate admits — the masters;
    * the CPU weight ``w`` per request family comes from the offline
      :class:`DemandSampler` (Equation 5), defaulting to 0.5;
    * the reservation gate (:attr:`reservation`) caps the master share of
      dynamic work at ``theta'_2``, which the paper's loop
      (:attr:`tuner`) adapts online from monitored ``a`` and
      response-time-approximated ``r``.  Setting ``tuner = None`` fixes
      the cap, or hands it to the one other writer, an attached control
      plane.

    Ablations are expressed by the flags (factories below):

    * ``use_sampling=False`` → **M/S-ns** (``w`` fixed at 0.5);
    * ``use_reservation=False`` → **M/S-nr** (masters always candidates);
    * ``num_masters == num_nodes`` → **M/S-1** (no slaves; flat + remote
      CGI with the same RSRC selection).
    """

    def __init__(self, num_nodes: int, num_masters: int,
                 sampler: Optional[DemandSampler] = None,
                 use_sampling: bool = True,
                 use_reservation: bool = True,
                 reservation_cfg: Optional[ReservationConfig] = None,
                 default_w: float = DEFAULT_W,
                 seed: int = 0):
        if not 1 <= num_masters <= num_nodes:
            raise ValueError(
                f"need 1 <= num_masters <= num_nodes; got {num_masters}"
            )
        if not 0.0 <= default_w <= 1.0:
            raise ValueError("default_w must be in [0, 1]")
        super().__init__(num_nodes, range(num_masters), seed)
        self.use_sampling = use_sampling
        self.sampler = sampler if use_sampling else None
        #: CPU weight of a family the sampler has not seen (or of every
        #: request, without a sampler).
        self.default_w = default_w
        self.use_reservation = use_reservation and num_masters < num_nodes
        self.reservation: Optional[ReservationGate] = None
        self.tuner: Optional[ReservationController] = None
        if self.use_reservation:
            cfg = reservation_cfg or ReservationConfig()
            self.reservation = ReservationGate(cfg)
            self.tuner = ReservationController(self.reservation, num_masters,
                                               num_nodes, cfg)
        # In-flight dynamic work per node, split by resource using each
        # request's sampled CPU weight.  A master performing remote CGI
        # execution knows what it has sent and not yet seen complete;
        # discounting the reported idle ratios by that outstanding work
        # (HERDING_DISCOUNT) avoids herding every request onto the node
        # that looked idlest at the last rstat() poll.
        self._outstanding_cpu = [0.0] * num_nodes
        self._outstanding_disk = [0.0] * num_nodes
        self._dispatched_w: dict[int, float] = {}
        #: ``HERDING_DISCOUNT ** outstanding`` per node and resource,
        #: refreshed (through ``_pow_buf``) whenever a node's outstanding
        #: work changes.
        self._pow_buf = np.zeros(2)
        one_cpu, one_disk = (HERDING_DISCOUNT ** self._pow_buf).tolist()
        self._discount_cpu = [one_cpu] * num_nodes
        self._discount_disk = [one_disk] * num_nodes

    # -- routing -------------------------------------------------------------

    def route(self, request: Request, view: LoadView) -> Route:
        if self.tuner is not None:
            self.tuner.observe_arrival(request.kind, view.now)
        accept = self._random_alive_master(view)
        if request.kind is RequestKind.STATIC:
            return self._local[accept]
        return self._route_dynamic(request, view, accept)

    def _set_roles(self, master_ids: Iterable[int]) -> None:
        super()._set_roles(master_ids)
        #: Plain-int slave ids and the dynamic-dispatch candidates when
        #: every node is healthy and the gate admits masters: slaves
        #: first, the order ties are broken in.
        self._slave_list = self._slaves.tolist()
        self._both = self._slave_list + self._master_list

    def _candidates(self, view: LoadView):
        """Dynamic-dispatch candidate ids and the reservation-gate verdict
        they were chosen under (``None`` where the cap does not apply)."""
        if view.all_healthy():
            slaves, masters, both = (self._slave_list, self._master_list,
                                     self._both)
        else:
            slaves = self._alive(view, self._slaves)
            masters = self._alive(view, self._masters)
            both = None
        gate = None
        if len(slaves) == 0:
            candidates = masters
        else:
            if self.reservation is not None:
                gate = self.reservation.admit_to_master()
            if gate is None or gate:
                candidates = (both if both is not None
                              else np.concatenate([slaves, masters]))
            else:
                candidates = slaves
        if len(candidates) == 0:
            # Emergency fallback: the reservation cap cannot be honoured
            # when the preferred tier is entirely out of service.
            gate = None
            candidates = self._alive(view, self._all_nodes)
            if len(candidates) == 0:
                raise RuntimeError("no nodes in service")
        return candidates, gate

    def _effective_idle(self, view: LoadView):
        """Per-node (CPU, disk) availability the RSRC choice ranks by:
        the reported idle ratios, discounted by work this dispatcher has
        in flight there."""
        return (list(map(mul, view.cpu_idle_array().tolist(),
                         self._discount_cpu)),
                list(map(mul, view.disk_avail_array().tolist(),
                         self._discount_disk)))

    def _refresh_discount(self, node: int) -> None:
        """Recompute ``node``'s cached discounts after its outstanding work
        changed.

        numpy's array ``power`` kernel computes them, as it did when the
        discounts were recomputed for every node on every dispatch: on
        some inputs it differs from Python's ``**`` in the last bit, which
        would move RSRC costs.  Its result for an element does not depend
        on the array's length, so a two-element buffer reproduces it.
        """
        buf = self._pow_buf
        buf[0] = self._outstanding_cpu[node]
        buf[1] = self._outstanding_disk[node]
        self._discount_cpu[node], self._discount_disk[node] = (
            HERDING_DISCOUNT ** buf).tolist()

    def _route_dynamic(self, request: Request, view: LoadView,
                       accept: int) -> Route:
        candidates, gate = self._candidates(view)
        w = (self.sampler.w(request.type_key, self.default_w)
             if self.sampler is not None else self.default_w)
        eff_cpu, eff_disk = self._effective_idle(view)
        # The stream, not ``self.rng``: a tie draw re-syncs it only when
        # one happens.
        node = select_min_rsrc(w, eff_cpu, eff_disk, candidates,
                               self._draws)
        if self.trace_decisions:
            self._stash_decision(w, eff_cpu, eff_disk, node, gate)
        self._outstanding_cpu[node] += w
        self._outstanding_disk[node] += 1.0 - w
        self._refresh_discount(node)
        self._dispatched_w[request.req_id] = w
        if self.reservation is not None:
            self.reservation.record_decision(node in self.master_ids)
        return self._remote[node] if node != accept else self._local[node]

    def _release(self, request: Request, node_id: int) -> None:
        """Take a finished or aborted request's work off ``node_id``'s
        outstanding totals."""
        w = self._dispatched_w.pop(request.req_id, None)
        if w is not None:
            self._outstanding_cpu[node_id] = max(
                0.0, self._outstanding_cpu[node_id] - w)
            self._outstanding_disk[node_id] = max(
                0.0, self._outstanding_disk[node_id] - (1.0 - w))
            self._refresh_discount(node_id)

    def on_complete(self, request: Request, response_time: float,
                    on_master: bool, node_id: int) -> None:
        self._release(request, node_id)
        if self.tuner is not None:
            self.tuner.observe_response(request.kind, response_time)
        # Online refinement of the sampler from real executions keeps the
        # offline estimates fresh (harmless if already trained).
        if (self.sampler is not None
                and request.kind is RequestKind.DYNAMIC):
            self.sampler.observe(request.type_key, request.cpu_demand,
                                 request.io_demand)

    def on_abort(self, request: Request, node_id: int) -> None:
        self._release(request, node_id)

    @property
    def theta_cap(self) -> Optional[float]:
        """Current reservation cap, or ``None`` when reservation is off."""
        return self.reservation.theta_cap if self.reservation else None

    def set_masters(self, master_ids: Iterable[int]) -> None:
        """Role change plus reservation bookkeeping: the cap formula
        theta_2(a, r, m, p) depends on the master count, so the
        tuner's ``m`` follows the new split.  In-flight
        bookkeeping (``_outstanding_*``, ``_dispatched_w``) is keyed by
        node/request, not role, and is deliberately left alone."""
        super().set_masters(master_ids)
        if self.tuner is not None:
            self.tuner.m = self.num_masters


class FrontEndMSPolicy(MSPolicy):
    """The M/S scheduler as run by *one* accepting front end.

    :class:`MSPolicy` models the cluster's aggregate dispatch: it draws
    the accepting master uniformly per request ("static requests are
    processed at a random master").  A live deployment runs one policy
    instance inside each master process, and the accepting node is pinned
    by reality — whichever master's HTTP listener the request hit.  Static
    requests execute on the accepting node; dynamic requests follow the
    usual reservation-gated min-RSRC choice, with ``remote`` meaning "not
    this process" (one intra-cluster dispatch hop).

    Each front end carries its own reservation gate, tuner and sampler
    state, mirroring the paper's implementation where every master makes
    decisions from its own periodically-refreshed load view.
    """

    def __init__(self, num_nodes: int, num_masters: int, accept_node: int,
                 **kwargs):
        super().__init__(num_nodes, num_masters, **kwargs)
        if accept_node not in self.master_ids:
            raise ValueError(
                f"accept_node {accept_node} is not a master "
                f"(masters: {sorted(self.master_ids)})")
        self.accept_node = accept_node

    def set_masters(self, master_ids: Iterable[int]) -> None:
        """The accepting front end can never be demoted out from under
        its own HTTP listener — statics execute here by construction."""
        ids = frozenset(int(i) for i in master_ids)
        if self.accept_node not in ids:
            raise ValueError(
                f"accept_node {self.accept_node} must remain a master")
        super().set_masters(ids)

    def _random_alive_master(self, view: LoadView) -> int:
        # The request hit this front end's listener: nothing to draw.
        return self.accept_node


class MSPrimePolicy(MSPolicy):
    """The M/S' alternative of Section 3: dynamic requests are pinned to a
    fixed subset of ``k`` nodes (min-RSRC within the subset), while static
    requests are spread uniformly over **all** nodes.

    This is M/S-1 — every node accepts, so the reservation gate is off —
    with the dynamic candidates narrowed to nodes ``0..k-1``.
    """

    def __init__(self, num_nodes: int, num_dynamic_nodes: int,
                 sampler: Optional[DemandSampler] = None,
                 default_w: float = DEFAULT_W, seed: int = 0):
        if not 1 <= num_dynamic_nodes <= num_nodes:
            raise ValueError("need 1 <= num_dynamic_nodes <= num_nodes")
        super().__init__(num_nodes, num_nodes, sampler=sampler,
                         default_w=default_w, seed=seed)
        self.dynamic_nodes = np.arange(num_dynamic_nodes, dtype=np.intp)

    def _candidates(self, view: LoadView):
        # The alive dynamic subset; any alive node when it is all down.
        dyn = self._alive(view, self.dynamic_nodes)
        if len(dyn) == 0:
            dyn = self._alive(view, self._all_nodes)
        return dyn, None

    def on_complete(self, request: Request, response_time: float,
                    on_master: bool, node_id: int) -> None:
        # M/S' keeps its offline ``w``: no online sampler refinement.
        self._release(request, node_id)


class HeteroMSPolicy(MSPolicy):
    """Speed-aware M/S for heterogeneous clusters.

    The paper notes that on non-uniform nodes "the relative speed in
    accessing CPU and disk I/O resource needs to be considered" (its
    adaptive-load-sharing companion work).  Two changes over the
    homogeneous scheduler:

    * **RSRC with relative speeds** — an idle fast node is worth more than
      an idle slow one, so Equation 5 becomes
      ``w/(s_cpu * CPUIdleRatio) + (1-w)/(s_disk * DiskAvailRatio)``;
    * **capacity-weighted static dispatch** — the accepting master is
      drawn proportionally to CPU speed rather than uniformly, keeping
      master utilisations equal across a mixed tier.
    """

    def __init__(self, num_nodes: int, num_masters: int,
                 cpu_speeds: Sequence[float],
                 disk_speeds: Optional[Sequence[float]] = None,
                 **kwargs):
        super().__init__(num_nodes, num_masters, **kwargs)
        cpu = np.asarray(cpu_speeds, dtype=float)
        if cpu.shape != (num_nodes,):
            raise ValueError("need one cpu speed per node")
        if (cpu <= 0).any():
            raise ValueError("cpu speeds must be positive")
        disk = (np.asarray(disk_speeds, dtype=float)
                if disk_speeds is not None else cpu.copy())
        if disk.shape != (num_nodes,):
            raise ValueError("need one disk speed per node")
        if (disk <= 0).any():
            raise ValueError("disk speeds must be positive")
        self.cpu_speeds = cpu
        self.disk_speeds = disk
        self._cpu_speed_list: List[float] = cpu.tolist()
        self._disk_speed_list: List[float] = disk.tolist()

    def _random_alive_master(self, view: LoadView) -> int:
        masters = self._alive(view, self._masters)
        if len(masters) == 0:
            return super()._random_alive_master(view)
        weights = self.cpu_speeds[masters]
        idx = self.rng.choice(len(masters), p=weights / weights.sum())
        return int(masters[idx])

    def _effective_idle(self, view: LoadView):
        # Effective *capacity* per resource: speed times available ratio,
        # discounted by work this dispatcher has in flight there.
        return (list(map(mul, map(mul, self._cpu_speed_list,
                                  view.cpu_idle_array().tolist()),
                         self._discount_cpu)),
                list(map(mul, map(mul, self._disk_speed_list,
                                  view.disk_avail_array().tolist()),
                         self._discount_disk)))


class RedirectMSPolicy(MSPolicy):
    """SWEB-style rescheduling by HTTP redirection.

    The authors' earlier SWEB system rebalanced load by sending the client
    an HTTP redirect to another server; the paper rejects that because "it
    adds client round-trip latency for every rescheduled request and also
    exposes IP addresses of server nodes".  This baseline quantifies the
    first objection: placement decisions are identical to M/S, but moving a
    request to a node other than its accepting master costs a full client
    round-trip instead of the 1 ms intra-cluster dispatch.
    """

    def __init__(self, num_nodes: int, num_masters: int,
                 client_rtt: float = 0.080, **kwargs):
        super().__init__(num_nodes, num_masters, **kwargs)
        if client_rtt < 0:
            raise ValueError("client_rtt must be >= 0")
        self.client_rtt = client_rtt
        self.redirects = 0

    def _route_dynamic(self, request: Request, view: LoadView,
                       accept: int) -> Route:
        route = super()._route_dynamic(request, view, accept)
        if route.remote:
            self.redirects += 1
            # The redirect replaces remote execution: the client reconnects
            # to the target directly (no intra-cluster hop), paying a WAN
            # round-trip on top.
            return Route(route.node_id, remote=False,
                         extra_latency=self.client_rtt,
                         substitute=route.substitute)
        return route


# -- factories matching the paper's names ----------------------------------------------


def make_ms(num_nodes: int, num_masters: int,
            sampler: Optional[DemandSampler] = None,
            seed: int = 0) -> MSPolicy:
    """The full optimized scheduler ("M/S")."""
    return MSPolicy(num_nodes, num_masters, sampler=sampler,
                    use_sampling=True, use_reservation=True, seed=seed)


def make_ms_ns(num_nodes: int, num_masters: int, seed: int = 0) -> MSPolicy:
    """M/S-ns: no demand sampling; ``w = 0.5`` for every request."""
    return MSPolicy(num_nodes, num_masters, sampler=None,
                    use_sampling=False, use_reservation=True, seed=seed)


def make_ms_nr(num_nodes: int, num_masters: int,
               sampler: Optional[DemandSampler] = None,
               seed: int = 0) -> MSPolicy:
    """M/S-nr: no reservation of master resources for static requests."""
    return MSPolicy(num_nodes, num_masters, sampler=sampler,
                    use_sampling=True, use_reservation=False, seed=seed)


def make_ms_1(num_nodes: int,
              sampler: Optional[DemandSampler] = None,
              seed: int = 0) -> MSPolicy:
    """M/S-1: every node is a master (separation ablation)."""
    return MSPolicy(num_nodes, num_nodes, sampler=sampler,
                    use_sampling=True, use_reservation=True, seed=seed)


POLICY_NAMES = ("MS", "MS-ns", "MS-nr", "MS-1", "Flat", "MSPrime",
                "RoundRobin", "LeastActive", "Redirect", "DNS")


def make_policy(name: str, num_nodes: int, num_masters: int = 1,
                sampler: Optional[DemandSampler] = None,
                seed: int = 0) -> Policy:
    """Construct any policy by its paper name (see ``POLICY_NAMES``)."""
    key = name.lower()
    if key == "ms":
        return make_ms(num_nodes, num_masters, sampler, seed)
    if key == "ms-ns":
        return make_ms_ns(num_nodes, num_masters, seed)
    if key == "ms-nr":
        return make_ms_nr(num_nodes, num_masters, sampler, seed)
    if key == "ms-1":
        return make_ms_1(num_nodes, sampler, seed)
    if key == "flat":
        return FlatPolicy(num_nodes, seed)
    if key == "msprime":
        return MSPrimePolicy(num_nodes, num_masters, sampler, seed=seed)
    if key == "roundrobin":
        return RoundRobinPolicy(num_nodes, seed)
    if key == "leastactive":
        return LeastActivePolicy(num_nodes, seed)
    if key == "redirect":
        return RedirectMSPolicy(num_nodes, num_masters, sampler=sampler,
                                seed=seed)
    if key == "dns":
        return DNSAffinityPolicy(num_nodes, seed)
    raise ValueError(f"unknown policy {name!r}; known: {POLICY_NAMES}")
