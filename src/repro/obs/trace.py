"""Structured per-request span recording for the simulator.

A *span* is one immutable tuple ``(t, kind, req_id, node_id, data)``:

``t``
    Virtual engine time the event happened at.
``kind``
    One of the ``SPAN_*`` string constants below (interned literals, so
    consumers can compare with ``is`` or ``==`` interchangeably).
``req_id``
    The request the span belongs to, or ``-1`` for cluster-level meta
    spans (node failures, shed-level changes, run summaries).
``node_id``
    The node the event happened on, or ``-1`` when no node is involved
    (arrival at the dispatcher, run meta).
``data``
    Kind-specific payload tuple, or ``None``.  Payload layouts are
    documented per constant and in ``docs/observability.md``.

The tracer is deliberately dumb: components append tuples to its
``spans`` container via :meth:`Tracer.record` and the auditor
reconstructs lifecycles offline.  There is no per-span object allocation
beyond the tuple, no locking, and no formatting on the hot path — a
disabled tap costs one ``None`` attribute check per hook site.

A simulated run keeps one flat list.  The live master, which serves
until it is stopped, records into a :class:`SpanLog` instead: it keeps
the newest spans as tuples and seals older ones into zlib-compressed
JSONL chunks, ~20 B a span instead of ~170 B.
"""

from __future__ import annotations

import hashlib
import json
import sys
import zlib
from collections.abc import Sequence
from itertools import chain, islice
from typing import (TYPE_CHECKING, Callable, Iterable, Iterator, List,
                    Optional, Tuple, Union, overload)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

#: Span tuple layout, in order.
SPAN_FIELDS = ("t", "kind", "req_id", "node_id", "data")

Span = Tuple[float, str, int, int, Optional[tuple]]

# -- request lifecycle kinds --------------------------------------------------

#: Request reached the dispatcher.  data=(kind, demand).
ARRIVE = "arrive"
#: Dispatcher chose a node.  data=(remote, is_master, w, rsrc_cost,
#: gate, effective_cap, master_fraction) — the last three are None for
#: policies without a reservation controller.
DISPATCH = "dispatch"
#: Dispatcher or admission refused the request.  data=(reason,).
DENY = "deny"
#: Node accepted the request.  data=(backlogged,).
ADMIT = "admit"
#: Node began executing (left the backlog).  data=(plan_len,).
START = "start"
#: Request finished.  data=(demand, remote, on_master).
COMPLETE = "complete"
#: Resilience layer dropped the request.  data=(reason,).
DROP = "drop"
#: Resilience layer scheduled a re-submission.  data=(attempt, delay).
RETRY = "retry"
#: Deadline fired while the request was in flight.  data=None.
TIMEOUT = "timeout"
#: Request aborted in place (node crash / drain).  data=(reason,).
ABORT = "abort"
#: Request lost outright (crash with no resilience layer).  data=None.
LOST = "lost"
#: Background (recruitment-overhead) work admitted.  data=None.
BG_ADMIT = "bg_admit"

# -- device occupancy kinds ---------------------------------------------------

#: CPU started serving a slice for the request.  data=None.
CPU_ON = "cpu_on"
#: CPU stopped serving the request (slice end / preempt / abort).
CPU_OFF = "cpu_off"
#: Disk started serving a burst chunk for the request.  data=None.
IO_ON = "io_on"
#: Disk stopped serving the request.  data=None.
IO_OFF = "io_off"

# -- cluster meta kinds (req_id == node-or--1, see payloads) ------------------

#: Node failed.  node_id set; data=(aborted_count,).
NODE_FAIL = "node_fail"
#: Node recovered.  node_id set; data=None.
NODE_RECOVER = "node_recover"
#: Node drained gracefully.  node_id set; data=None.
NODE_DRAIN = "node_drain"
#: Node retired from the recruitment schedule.  node_id set; data=None.
NODE_RETIRE = "node_retire"
#: Overload shed level changed.  data=(old_level, new_level).
SHED_LEVEL = "shed_level"
#: Control-plane event (repro.control).  req_id == -1; node_id is the
#: affected node for role actions, else -1.  data is a tagged tuple:
#: ("attach", m, p, period, cooldown, min_m, max_m, theta0, own_cap),
#: ("roles", (master ids...)), ("estimate", a, r, w, rate, samples),
#: ("decision", m_target, m_current, theta_target, reason), or
#: ("action", kind, node_id, value, applied).
CONTROL = "control"
#: Engine run finished.  data=(events_processed,).
RUN = "run"

#: Kinds that end a request's lifecycle for conservation accounting.
TERMINAL_KINDS = frozenset((COMPLETE, DROP, LOST))


class Tracer:
    """Append-only span sink bound to one engine clock.

    ``spans`` is the container spans are appended to: a new list unless
    the caller passes one (the live master passes a :class:`SpanLog`).

    >>> from repro.sim.engine import Engine
    >>> eng = Engine()
    >>> tr = Tracer(eng)
    >>> tr.record(ARRIVE, 7, -1, (1, 0.25))
    >>> tr.spans
    [(0.0, 'arrive', 7, -1, (1, 0.25))]
    """

    __slots__ = ("engine", "spans", "meta")

    def __init__(self, engine: Optional["Engine"] = None,
                 spans: Optional[Union[List[Span], "SpanLog"]] = None
                 ) -> None:
        self.engine = engine
        self.spans = [] if spans is None else spans
        self.meta: dict = {}

    def bind(self, engine: "Engine") -> None:
        """Attach the engine whose clock timestamps every span."""
        self.engine = engine

    def record(self, kind: str, req_id: int, node_id: int,
               data: Optional[tuple] = None) -> None:
        """Append one span stamped with the engine's current time."""
        self.spans.append((self.engine.now, kind, req_id, node_id, data))

    def record_meta(self, kind: str, *data: object) -> None:
        """Append a cluster-level span with no request attached."""
        self.spans.append(
            (self.engine.now, kind, -1, -1, data if data else None))

    def clear(self) -> None:
        self.spans.clear()

    def __len__(self) -> int:
        return len(self.spans)


# -- serialisation ------------------------------------------------------------


def _json_default(obj: object) -> object:
    """Coerce numpy scalars (np.bool_, np.float64, ...) leaking into span
    payloads from vectorised policy code into plain Python values."""
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"unserialisable span payload element: {obj!r}")


#: One encoder for every span line: ``json.dumps`` with keyword arguments
#: builds a new encoder per call, which doubled the cost of a seal.
_ENCODER = json.JSONEncoder(separators=(",", ":"), default=_json_default)

#: One span as its JSONL line (a tuple encodes as a JSON array).
_encode: Callable[[Span], str] = _ENCODER.encode


def _decode(line: str) -> Span:
    """One JSONL line back to a span: payload a tuple of JSON values (a
    nested tuple reads back as a list)."""
    t, kind, req_id, node_id, data = json.loads(line)
    return (float(t), sys.intern(kind), int(req_id), int(node_id),
            None if data is None else tuple(data))


def _unseal(chunk: bytes) -> str:
    """The JSONL lines a :class:`SpanLog` sealed into ``chunk``."""
    return zlib.decompress(chunk).decode()


#: Spans per sealed chunk of a :class:`SpanLog`.  A seal encodes and
#: compresses on the caller's thread, the live event loop: ~5 µs a span,
#: so ~0.6-1 ms a seal on a 2-vCPU host.  Larger chunks compress no
#: better (~20 B a span from 64 spans up), they only stall the loop longer.
BLOCK = 128


class SpanLog(Sequence[Span]):
    """Append-only span sequence that seals every :data:`BLOCK` spans into
    one zlib-compressed chunk of the JSONL lines :func:`iter_jsonl` writes.

    Only the live master uses it: a server's trace grows for as long as
    it serves.  A simulated trace is finite and consumed in process, and
    it records ~15 spans a request, so sealing at several µs a span
    would slow a replay for memory it does not need to save.

    A sealed span reads back as :func:`load_jsonl` reads its line; the
    unsealed tail reads back as recorded.  Iteration sees the spans
    recorded when it started.

    >>> log = SpanLog()
    >>> for i in range(BLOCK + 1):
    ...     log.append((float(i), ARRIVE, i, -1, (1, 0.25)))
    >>> len(log), log[0][:3], log[-1][:3]
    (129, (0.0, 'arrive', 0), (128.0, 'arrive', 128))
    """

    __slots__ = ("_chunks", "_tail", "_sealed_bytes")

    def __init__(self) -> None:
        self._chunks: List[bytes] = []
        self._tail: List[Span] = []
        self._sealed_bytes = 0

    def append(self, span: Span) -> None:
        tail = self._tail
        tail.append(span)
        if len(tail) >= BLOCK:
            chunk = zlib.compress(
                "\n".join(map(_encode, tail)).encode(), 1)
            self._chunks.append(chunk)
            self._sealed_bytes += sys.getsizeof(chunk)
            tail.clear()

    def clear(self) -> None:
        self._chunks.clear()
        self._tail.clear()
        self._sealed_bytes = 0

    def copy(self) -> "SpanLog":
        """A log of the spans so far, sharing their sealed chunks; spans
        appended later go to this log only."""
        log = SpanLog()
        log._chunks = self._chunks[:]
        log._tail = self._tail[:]
        log._sealed_bytes = self._sealed_bytes
        return log

    @property
    def nbytes(self) -> int:
        """Bytes held: the sealed chunks plus the tail's tuples."""
        tail = sum(sys.getsizeof(span) + sys.getsizeof(span[0])
                   + (0 if span[4] is None else sys.getsizeof(span[4]))
                   for span in self._tail)
        return self._sealed_bytes + sys.getsizeof(self._tail) + tail

    def __len__(self) -> int:
        return len(self._chunks) * BLOCK + len(self._tail)

    def _iter_from(self, k: int) -> Iterator[Span]:
        """The spans from sealed chunk ``k`` on, as recorded so far."""
        chunks, tail = self._chunks[k:], self._tail[:]
        for chunk in chunks:
            yield from map(_decode, _unseal(chunk).split("\n"))
        yield from tail

    def __iter__(self) -> Iterator[Span]:
        return self._iter_from(0)

    def _text(self) -> Tuple[int, Iterator[str]]:
        """(span count, JSONL text): each sealed chunk's lines as one
        string as stored, then the tail's lines encoded now."""
        chunks, tail = self._chunks[:], self._tail[:]
        count = len(chunks) * BLOCK + len(tail)
        return count, chain(map(_unseal, chunks), map(_encode, tail))

    @overload
    def __getitem__(self, index: int) -> Span: ...

    @overload
    def __getitem__(self, index: slice) -> List[Span]: ...

    def __getitem__(self, index):
        rows = range(len(self))[index]      # IndexError when out of range
        if isinstance(rows, int):
            k, j = divmod(rows, BLOCK)
            if k < len(self._chunks):
                return _decode(_unseal(self._chunks[k]).split("\n")[j])
            return self._tail[j]
        if not rows:
            return []
        first = min(rows[0], rows[-1]) // BLOCK * BLOCK
        window = list(islice(self._iter_from(first // BLOCK),
                             max(rows[0], rows[-1]) - first + 1))
        return [window[i - first] for i in rows]


def iter_jsonl(spans: Sequence[Span],
               meta: Optional[dict] = None) -> Iterator[str]:
    """Yield the JSONL text (header first, no trailing newlines), one or
    more whole lines at a time: a :class:`SpanLog` yields each sealed
    chunk as stored and encodes only its tail.  Shared by
    :func:`save_jsonl` and network servers that stream a span file
    without touching disk (``repro.live``)."""
    if isinstance(spans, SpanLog):
        count, lines = spans._text()
    else:
        count, lines = len(spans), map(_encode, spans)
    header = {"format": "repro.obs/1", "fields": list(SPAN_FIELDS),
              "count": count}
    if meta:
        header["meta"] = meta
    yield json.dumps(header, separators=(",", ":"))
    yield from lines


def save_jsonl(spans: Sequence[Span], path, meta: Optional[dict] = None) -> None:
    """Write spans as JSONL: one meta header line, then one span per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in iter_jsonl(spans, meta):
            fh.write(line + "\n")


def load_jsonl(path) -> Tuple[List[Span], dict]:
    """Read a trace written by :func:`save_jsonl`; returns (spans, header)."""
    spans: List[Span] = []
    with open(path, "r", encoding="utf-8") as fh:
        header_line = fh.readline()
        header = json.loads(header_line) if header_line.strip() else {}
        if header.get("format") != "repro.obs/1":
            raise ValueError(f"{path}: not a repro.obs/1 trace file")
        for line in fh:
            if line.strip():
                spans.append(_decode(line))
    return spans, header


# -- digest & summary ---------------------------------------------------------


def span_digest(spans: Iterable[Span]) -> str:
    """Order-sensitive sha256 over the span stream.

    Timestamps are rendered at fixed ``.9f`` precision so the digest is
    stable across platforms that agree to within a nanosecond of virtual
    time, while still catching any real scheduling change.
    """
    h = hashlib.sha256()
    for t, kind, req_id, node_id, data in spans:
        payload = "" if data is None else json.dumps(
            list(data), separators=(",", ":"), default=_json_default)
        h.update(f"{kind}|{req_id}|{node_id}|{t:.9f}|{payload}\n".encode())
    return h.hexdigest()


def summarize_spans(spans: Sequence[Span]) -> dict:
    """Aggregate counts + horizon for human display and quick sanity checks."""
    kinds: dict = {}
    requests = set()
    nodes = set()
    t_min = float("inf")
    t_max = float("-inf")
    for t, kind, req_id, node_id, _ in spans:
        kinds[kind] = kinds.get(kind, 0) + 1
        if req_id >= 0:
            requests.add(req_id)
        if node_id >= 0:
            nodes.add(node_id)
        if t < t_min:
            t_min = t
        if t > t_max:
            t_max = t
    return {
        "spans": len(spans),
        "requests": len(requests),
        "nodes": len(nodes),
        "t_min": t_min if spans else 0.0,
        "t_max": t_max if spans else 0.0,
        "kinds": dict(sorted(kinds.items())),
        "digest": span_digest(spans),
    }
