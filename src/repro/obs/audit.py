"""Replay a completed run's span stream and prove scheduler invariants.

The auditor consumes the flat span list a :class:`~repro.obs.trace.Tracer`
collected and checks, offline:

1. **Causality** — span timestamps never decrease, and every request's
   spans follow the lifecycle state machine (no ``start`` before
   ``admit``, no ``complete`` without ``start``, nothing after a
   terminal span).
2. **Single-server exclusivity** — each node's CPU and disk serve at
   most one process at a time: ``cpu_on``/``cpu_off`` (and
   ``io_on``/``io_off``) spans must form non-overlapping intervals per
   device.
3. **Work conservation** — terminal span counts agree with
   :meth:`repro.sim.cluster.Cluster.conservation`: every submitted
   request is completed, dropped, lost, or provably still in flight,
   and the ledger balance is zero.
4. **Reservation cap** — a dynamic request is dispatched to a master
   only while the policy's gate was open, i.e. the running
   master-admission fraction was below the effective theta'_2 cap
   (except during the emergency fallback when no slave is in service,
   which the policy reports as gate-not-applicable).
5. **Metric agreement** — per-request response and stretch recomputed
   from spans reproduce :meth:`MetricsCollector.report` (or, for a saved
   live stream, the header's :meth:`MetricsCollector.summary`) exactly
   (count, mean response, mean stretch).
6. **Control consistency** — when a control plane (repro.control) was
   attached, every dispatch must agree with the configuration in force
   at its timestamp: the master-role flag matches the membership
   announced by the latest CONTROL ``roles`` span, and (when the
   controller owned the cap) the effective theta'_2 equals the last
   actuated cap times the shed scale.  Applied role actions must also
   respect the controller's cooldown and master-count clamps.

Every failed check becomes a :class:`Violation`; the run passes when the
:class:`AuditReport` carries none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.trace import (
    ABORT,
    ADMIT,
    ARRIVE,
    BG_ADMIT,
    COMPLETE,
    CONTROL,
    CPU_OFF,
    CPU_ON,
    DENY,
    DISPATCH,
    DROP,
    IO_OFF,
    IO_ON,
    LOST,
    RETRY,
    SHED_LEVEL,
    START,
    TIMEOUT,
    Span,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.cluster import Cluster
    from repro.sim.metrics import MetricsReport

#: Relative tolerance for the span-vs-metrics stretch comparison.  The two
#: paths consume bitwise-identical floats in identical order, so this only
#: absorbs summation-order differences (numpy's pairwise sum against the
#: ledger summary's running sum).
_RTOL = 1e-9

_DEVICE_KINDS = frozenset((CPU_ON, CPU_OFF, IO_ON, IO_OFF))

#: Lifecycle transition table: kind -> (allowed source phases, next phase).
#: Phases: new (never seen), idle (between attempts), arrived, routed,
#: admitted, executing, and the terminals done/dropped/lost.
_TRANSITIONS: Dict[str, Tuple[frozenset, str]] = {
    ARRIVE: (frozenset(("new", "idle")), "arrived"),
    DISPATCH: (frozenset(("arrived",)), "routed"),
    DENY: (frozenset(("arrived", "routed")), "idle"),
    ADMIT: (frozenset(("routed",)), "admitted"),
    START: (frozenset(("admitted",)), "executing"),
    COMPLETE: (frozenset(("executing",)), "done"),
    TIMEOUT: (frozenset(("admitted", "executing")), "idle"),
    ABORT: (frozenset(("admitted", "executing")), "idle"),
    RETRY: (frozenset(("idle", "arrived")), "idle"),
    DROP: (frozenset(("idle", "arrived")), "dropped"),
    LOST: (frozenset(("idle",)), "lost"),
}

_TERMINAL_PHASES = frozenset(("done", "dropped", "lost"))


@dataclass(slots=True)
class Violation:
    """One failed invariant check, anchored to a span."""

    check: str
    message: str
    span_index: int = -1
    req_id: int = -1

    def render(self) -> str:
        where = f" [span #{self.span_index}]" if self.span_index >= 0 else ""
        who = f" req {self.req_id}" if self.req_id >= 0 else ""
        return f"{self.check}:{who} {self.message}{where}"


@dataclass(slots=True)
class AuditReport:
    """Outcome of one audit pass over a span stream."""

    violations: List[Violation] = field(default_factory=list)
    #: Work performed, per check family (for "did it actually run" tests).
    checked: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, check: str, message: str, span_index: int = -1,
            req_id: int = -1) -> None:
        self.violations.append(Violation(check, message, span_index, req_id))

    def count(self, check: str, n: int = 1) -> None:
        self.checked[check] = self.checked.get(check, 0) + n

    def render(self, limit: int = 20) -> str:
        if self.ok:
            work = ", ".join(f"{k}={v}" for k, v in sorted(self.checked.items()))
            return f"audit OK ({work})"
        lines = [f"audit FAILED: {len(self.violations)} violation(s)"]
        for v in self.violations[:limit]:
            lines.append("  " + v.render())
        if len(self.violations) > limit:
            lines.append(f"  ... and {len(self.violations) - limit} more")
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise TraceAuditError(self)


class TraceAuditError(AssertionError):
    """A trace audit found invariant violations."""

    def __init__(self, report: AuditReport):
        super().__init__(report.render())
        self.report = report


# -- individual passes --------------------------------------------------------


def _check_monotonic(spans: Sequence[Span], report: AuditReport) -> None:
    prev = float("-inf")
    for idx, span in enumerate(spans):
        t = span[0]
        if t < prev:
            report.add("causality",
                       f"time went backwards: {t:.9f} after {prev:.9f}", idx)
        elif t > prev:
            prev = t
    report.count("spans", len(spans))


def _check_lifecycle(spans: Sequence[Span], bg: set, report: AuditReport):
    """Phase machine per request.  Returns per-request bookkeeping used by
    the conservation and stretch passes: (arrival time of the first
    attempt, completion records, terminal counts, arrived ids)."""
    phase: Dict[int, str] = {}
    last_node: Dict[int, int] = {}
    first_arrive: Dict[int, float] = {}
    completions: List[Tuple[int, float, float]] = []  # (req, finish, demand)
    terminals = {"done": 0, "dropped": 0, "lost": 0}

    for idx, (t, kind, req, node, data) in enumerate(spans):
        if req < 0 or req in bg or kind in _DEVICE_KINDS:
            continue
        rule = _TRANSITIONS.get(kind)
        if rule is None:
            continue
        allowed, nxt = rule
        ph = phase.get(req, "new")
        if ph in _TERMINAL_PHASES:
            report.add("lifecycle",
                       f"span {kind!r} after terminal phase {ph!r}", idx, req)
            continue
        if ph not in allowed:
            report.add("lifecycle",
                       f"{kind!r} from phase {ph!r} "
                       f"(allowed: {sorted(allowed)})", idx, req)
            # Resynchronise so one bad span doesn't cascade.
        phase[req] = nxt
        if kind == ARRIVE:
            if req not in first_arrive:
                first_arrive[req] = t
        elif kind == DISPATCH:
            last_node[req] = node
        elif kind in (ADMIT, START):
            expected = last_node.get(req)
            if expected is not None and node != expected:
                report.add("lifecycle",
                           f"{kind!r} on node {node} but request was "
                           f"dispatched to node {expected}", idx, req)
            last_node[req] = node
        elif kind == COMPLETE:
            expected = last_node.get(req)
            if expected is not None and node != expected:
                report.add("lifecycle",
                           f"complete on node {node} but request ran on "
                           f"node {expected}", idx, req)
            terminals["done"] += 1
            demand = data[0] if data else float("nan")
            completions.append((req, t, demand))
        elif kind == DROP:
            terminals["dropped"] += 1
        elif kind == LOST:
            terminals["lost"] += 1
    report.count("requests", len(phase))
    return first_arrive, completions, terminals


def _check_exclusivity(spans: Sequence[Span], report: AuditReport,
                       complete_run: bool) -> None:
    """At most one process in service per CPU and per disk at any time.

    Span order is causal (appended in event-execution order), so a device
    is busy iff its last span was an ``*_on`` without a matching ``*_off``
    — zero-length slices at equal timestamps stay unambiguous.
    """
    open_iv: Dict[Tuple[str, int], Tuple[int, int]] = {}  # (dev, node) -> (req, idx)
    intervals = 0
    for idx, (t, kind, req, node, _) in enumerate(spans):
        if kind not in _DEVICE_KINDS:
            continue
        dev = "cpu" if kind in (CPU_ON, CPU_OFF) else "disk"
        key = (dev, node)
        if kind in (CPU_ON, IO_ON):
            held = open_iv.get(key)
            if held is not None:
                report.add("exclusivity",
                           f"{dev} on node {node} started serving while "
                           f"still serving req {held[0]} (span "
                           f"#{held[1]})", idx, req)
            open_iv[key] = (req, idx)
            intervals += 1
        else:
            held = open_iv.pop(key, None)
            if held is None:
                report.add("exclusivity",
                           f"{dev} on node {node} released with no open "
                           f"interval", idx, req)
            elif held[0] != req:
                report.add("exclusivity",
                           f"{dev} on node {node} released req {req} but "
                           f"was serving req {held[0]}", idx, req)
    if complete_run:
        for (dev, node), (req, idx) in sorted(open_iv.items()):
            report.add("exclusivity",
                       f"{dev} on node {node} still serving req {req} at "
                       f"end of run", idx, req)
    report.count("service_intervals", intervals)


def _check_reservation(spans: Sequence[Span], bg: set,
                       report: AuditReport) -> None:
    """theta'_2: dynamic work reaches a master only through an open gate."""
    checked = 0
    for idx, (t, kind, req, node, data) in enumerate(spans):
        if kind != DISPATCH or data is None or req in bg:
            continue
        # data = (remote, is_master, w, rsrc, gate, eff_cap, master_frac)
        _, is_master, _, _, gate, eff_cap, master_frac = data
        if gate is None:
            continue  # no controller, or emergency fallback (cap waived)
        checked += 1
        if gate != (master_frac < eff_cap):
            report.add("reservation",
                       f"gate verdict {gate} inconsistent with "
                       f"master_fraction={master_frac:.6f} vs "
                       f"cap={eff_cap:.6f}", idx, req)
        if is_master and not gate:
            report.add("reservation",
                       f"dynamic request placed on master node {node} while "
                       f"the reservation gate was closed "
                       f"(master_fraction={master_frac:.6f} >= "
                       f"cap={eff_cap:.6f})", idx, req)
    report.count("reservation_decisions", checked)


def _check_conservation(first_arrive: Dict[int, float], terminals: Dict[str, int],
                        conservation: Dict[str, int],
                        report: AuditReport) -> None:
    ledger_pairs = (("done", "completed"), ("dropped", "dropped"),
                    ("lost", "lost"))
    for span_key, ledger_key in ledger_pairs:
        if terminals[span_key] != conservation[ledger_key]:
            report.add("conservation",
                       f"{terminals[span_key]} {span_key!r} spans but ledger "
                       f"counts {ledger_key}={conservation[ledger_key]}")
    if conservation["balance"] != 0:
        report.add("conservation",
                   f"ledger balance {conservation['balance']} != 0: "
                   f"{conservation}")
    arrived = len(first_arrive)
    finished = sum(terminals.values())
    if arrived < finished:
        report.add("conservation",
                   f"{finished} requests reached a terminal span but only "
                   f"{arrived} ever arrived")
    if arrived > conservation["submitted"]:
        report.add("conservation",
                   f"{arrived} distinct requests arrived but only "
                   f"{conservation['submitted']} were submitted")
    if (conservation["pending"] == 0 and conservation["in_flight"] == 0
            and arrived != conservation["submitted"]):
        report.add("conservation",
                   f"run drained but {arrived} distinct arrivals != "
                   f"{conservation['submitted']} submitted")
    report.count("conservation_checks", 1)


def _check_stretch(first_arrive: Dict[int, float],
                   completions: List[Tuple[int, float, float]],
                   completed: int, mean_response: float, stretch: float,
                   report: AuditReport) -> None:
    """Per-request stretch recomputed from spans must match the ledger's
    completed count and overall mean response and stretch."""
    if completed != len(completions):
        report.add("stretch",
                   f"{len(completions)} complete spans but the metrics "
                   f"report counted {completed}")
        return
    if not completions:
        report.count("stretch_samples", 0)
        return
    resp = np.empty(len(completions))
    dem = np.empty(len(completions))
    for i, (req, finish, demand) in enumerate(completions):
        arrival = first_arrive.get(req)
        if arrival is None:
            report.add("stretch", "completed request never arrived",
                       req_id=req)
            return
        resp[i] = finish - arrival
        dem[i] = demand
    mean_resp = float(resp.mean())
    mean_stretch = float(np.mean(resp / dem))
    if not np.isclose(mean_resp, mean_response, rtol=_RTOL, atol=0.0):
        report.add("stretch",
                   f"mean response from spans {mean_resp!r} != metrics "
                   f"{mean_response!r}")
    if not np.isclose(mean_stretch, stretch, rtol=_RTOL, atol=0.0):
        report.add("stretch",
                   f"mean stretch from spans {mean_stretch!r} != metrics "
                   f"{stretch!r}")
    report.count("stretch_samples", len(completions))


def _check_control(spans: Sequence[Span], bg: set,
                   report: AuditReport) -> None:
    """Dispatches agree with the control-plane configuration in force.

    Replays the CONTROL span stream (repro.control's event log) as a
    state machine — current master set, last actuated theta'_2, shed
    scale, last applied role action — and holds every subsequent
    DISPATCH span to it.  No-op on streams without CONTROL spans, so
    uncontrolled runs audit exactly as before.
    """
    masters: Optional[frozenset] = None
    cooldown: Optional[float] = None
    min_m = 1
    max_m: Optional[int] = None
    own_cap = False
    cap: Optional[float] = None
    shed_scale = 1.0
    last_role_t: Optional[float] = None
    pending_role: Optional[Tuple[str, int]] = None
    events = 0
    dispatches = 0

    for idx, (t, kind, req, node, data) in enumerate(spans):
        if kind == SHED_LEVEL and data is not None:
            shed_scale = 0.0 if data[1] >= 1 else 1.0
            continue
        if kind == CONTROL:
            events += 1
            tag = data[0]
            if tag == "attach":
                _, _, _, cooldown, c_min, c_max, theta0, c_own = data[1:]
                min_m, max_m = int(c_min), int(c_max)
                own_cap = bool(c_own)
                if own_cap:
                    cap = float(theta0)
            elif tag == "roles":
                new_masters = frozenset(int(i) for i in data[1])
                if pending_role is not None and masters is not None:
                    act, target = pending_role
                    expect = (masters | {target} if act == "promote"
                              else masters - {target})
                    if new_masters != expect:
                        report.add(
                            "control",
                            f"roles {sorted(new_masters)} do not match the "
                            f"applied {act} of node {target} from "
                            f"{sorted(masters)}", idx)
                pending_role = None
                masters = new_masters
            elif tag == "action":
                _, act_kind, act_node, value, applied = data
                if not applied:
                    continue
                if act_kind in ("promote", "demote"):
                    if (last_role_t is not None and cooldown is not None
                            and t - last_role_t < cooldown - 1e-9):
                        report.add(
                            "control",
                            f"role action {act_kind!r} at t={t:.6f} only "
                            f"{t - last_role_t:.6f}s after the previous one "
                            f"(cooldown {cooldown})", idx)
                    last_role_t = t
                    pending_role = (act_kind, int(act_node))
                    if masters is not None and max_m is not None:
                        size = (len(masters) + 1 if act_kind == "promote"
                                else len(masters) - 1)
                        if not min_m <= size <= max(max_m, len(masters)):
                            report.add(
                                "control",
                                f"{act_kind} leaves {size} masters, outside "
                                f"the clamp [{min_m}, {max_m}]", idx)
                elif act_kind == "retune_theta" and own_cap:
                    cap = float(value)
            continue
        if kind != DISPATCH or data is None or req in bg:
            continue
        # data = (remote, is_master, w, rsrc, gate, eff_cap, master_frac)
        is_master, gate, eff_cap = data[1], data[4], data[5]
        if masters is not None:
            dispatches += 1
            if bool(is_master) != (node in masters):
                report.add(
                    "control",
                    f"dispatch marked is_master={is_master} on node {node} "
                    f"but the masters in force were {sorted(masters)}",
                    idx, req)
        if own_cap and gate is not None and cap is not None:
            expected = cap * shed_scale
            if abs(eff_cap - expected) > 1e-12:
                report.add(
                    "control",
                    f"dispatch gated on cap {eff_cap!r} but the control "
                    f"plane's cap in force was {cap!r} (shed scale "
                    f"{shed_scale})", idx, req)
    if events:
        report.count("control_events", events)
        report.count("control_dispatches", dispatches)


# -- entry points -------------------------------------------------------------


def audit_spans(
    spans: Sequence[Span],
    conservation: Optional[Dict[str, int]] = None,
    metrics_report: Optional["MetricsReport"] = None,
    complete_run: bool = True,
    summary: Optional[dict] = None,
) -> AuditReport:
    """Audit a span stream.

    Parameters
    ----------
    spans:
        The stream, in recording order (order is part of the contract:
        spans are appended in event-execution order).
    conservation:
        A :meth:`Cluster.conservation` ledger to reconcile terminal spans
        against.  Omit for standalone/loaded traces.
    metrics_report:
        A full-window (``warmup=0``) :class:`MetricsReport` to recompute
        stretch against.  Omit for standalone traces.
    complete_run:
        When true, devices still serving at the end of the stream are
        violations (the run was expected to drain).
    summary:
        A :meth:`MetricsCollector.summary` taken with the spans (live
        span headers carry one): checked like ``metrics_report`` when
        that is omitted.
    """
    spans = spans if isinstance(spans, list) else list(spans)   # six walks
    report = AuditReport()
    bg = {span[2] for span in spans if span[1] == BG_ADMIT}
    _check_monotonic(spans, report)
    first_arrive, completions, terminals = _check_lifecycle(spans, bg, report)
    _check_exclusivity(spans, report, complete_run)
    _check_reservation(spans, bg, report)
    _check_control(spans, bg, report)
    if conservation is not None:
        _check_conservation(first_arrive, terminals, conservation, report)
    if metrics_report is not None:
        overall = metrics_report.overall
        _check_stretch(first_arrive, completions, metrics_report.completed,
                       overall.mean_response, overall.stretch, report)
    elif summary is not None:
        overall = summary["overall"]
        _check_stretch(first_arrive, completions, summary["count"],
                       overall["mean_response"], overall["stretch"], report)
    return report


def audit_cluster(cluster: "Cluster",
                  complete_run: bool = True) -> AuditReport:
    """Audit a traced cluster in place, with full cross-checks armed.

    The cluster must have been built with a tracer
    (``Cluster(..., tracer=Tracer())``).
    """
    tracer = cluster.tracer
    if tracer is None:
        raise ValueError("cluster was not built with a tracer")
    return audit_spans(
        tracer.spans,
        conservation=cluster.conservation(),
        metrics_report=cluster.metrics.report(),
        complete_run=complete_run,
    )
