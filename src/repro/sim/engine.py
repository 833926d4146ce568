"""Discrete-event simulation kernel.

A deliberately small, fast core: a virtual clock plus a two-tier event
queue.  Components schedule plain callables; there is no coroutine
machinery, because the preemptive CPU scheduler is easier to express as
explicit state machines than as generators.

Determinism: given the same schedule calls in the same order, the run is
bit-reproducible.  Ties in event time are broken by insertion order.

Hot-path design
---------------
The seed kernel kept one binary heap and allocated an :class:`Event`
object per scheduled callback.  Profiling the replay grids showed three
dominating costs — per-event object allocation, ``heappush``/``heappop``
on heaps holding an entire trace's arrivals, and cyclic-GC scans
triggered by event garbage.  The kernel addresses all three:

* **Two-tier queue (bulk run + heap).**  Arrivals submitted in bulk via
  :meth:`call_at_many` (a whole trace) go into ``_bulk``, a list sorted
  in *descending* ``(time, seq)`` order whose next entry sits at the end,
  so ``list.pop()`` takes it in O(1).  Everything scheduled one at a time
  (slices, dispatch hops, monitor ticks) goes onto ``_heap``, a C
  ``heapq`` that only ever holds the few hundred events in flight.  The
  loop pops whichever head has the smaller ``(time, seq)``: one tuple
  comparison per event, and the same total order a single heap would
  give, FIFO within equal timestamps.
* **Handle-free fast path.**  Most events are fire-and-forget (request
  arrivals, dispatch hops, worker-slot releases, monitor ticks) and
  never need cancellation.  :meth:`call_later` / :meth:`call_at` store a
  plain ``(time, seq, fn, args)`` tuple — no :class:`Event` object at
  all.  :meth:`schedule` / :meth:`schedule_at` return cancellable
  :class:`Event` handles, stored as ``(time, seq, event)``, for the
  callers that need them (CPU slices, disk slices, resilience deadlines).
* **Event free-list pooling.**  Fired and dead-on-pop :class:`Event`
  objects are recycled through a free list instead of being
  re-allocated, which keeps steady-state replays from churning the
  allocator.  A handle is only allocated when the list is empty, so the
  list never outgrows the peak number of handles pending at once.
  Contract: **a handle must not be cancelled after its callback has
  fired** (every in-tree holder nulls its reference at fire/cancel
  time); cancelling a *pending* handle any number of times remains safe
  and idempotent.
* **GC pause around :meth:`run`.**  Event tuples die by reference
  counting; the cyclic collector only adds allocation-triggered scan
  pauses mid-run, so it is suspended for the duration and restored on
  exit (exception-safe, and a no-op if the caller already disabled it).
"""

from __future__ import annotations

import itertools
import sys
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Iterator, Optional, Tuple

from repro._gc import gc_paused

_INF = float("inf")

class Event:
    """A scheduled callback.  Returned by :meth:`Engine.schedule`.

    Events may be cancelled (``ev.cancel()``); cancelled events stay in the
    queue but are skipped when popped, which is O(1) amortised and avoids
    re-sorting.

    Pooling contract: once the callback has fired (or a cancelled event has
    been reaped by the queue), the handle is recycled for a future
    ``schedule`` call — drop the reference and never call :meth:`cancel` on
    a handle whose callback already ran.  Cancelling a *pending* event any
    number of times is safe and idempotent.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} seq={self.seq} {state} fn={self.fn!r}>"


class Engine:
    """Virtual-time event loop.

    Examples
    --------
    >>> eng = Engine()
    >>> hits = []
    >>> _ = eng.schedule(1.5, hits.append, "a")
    >>> _ = eng.schedule(0.5, hits.append, "b")
    >>> eng.run()
    2
    >>> hits
    ['b', 'a']
    >>> eng.now
    1.5
    """

    __slots__ = ("now", "_bulk", "_heap", "_seq", "_running", "_processed",
                 "_free", "tracer")

    def __init__(self) -> None:
        self.now: float = 0.0
        #: Optional :class:`repro.obs.trace.Tracer`.  The engine itself only
        #: emits one ``run`` meta span per :meth:`run` call — per-event
        #: tracing lives in the components, keeping the hot loop untouched.
        self.tracer = None
        #: :meth:`call_at_many` entries in descending (time, seq) order; the
        #: next due one is LAST.
        self._bulk: list = []
        #: Binary heap of every other pending entry.
        self._heap: list = []
        self._seq = itertools.count()
        self._running = False
        self._processed = 0
        #: Free list of recycled Event objects.
        self._free: list[Event] = []

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        Returns a cancellable :class:`Event` handle.  Prefer
        :meth:`call_later` when the caller never cancels: it skips the
        handle allocation entirely.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute virtual time."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past (t={time} < now={self.now})"
            )
        seq = next(self._seq)
        free = self._free
        if free:
            ev = free.pop()
            ev.time = time
            ev.seq = seq
            ev.fn = fn
            ev.args = args
            ev.cancelled = False
        else:
            ev = Event(time, seq, fn, args)
        heappush(self._heap, (time, seq, ev))
        return ev

    def call_later(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no Event handle, no allocation
        beyond the queue entry itself.  Use for callbacks that are never
        cancelled — the hot request path."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        heappush(self._heap, (self.now + delay, next(self._seq), fn, args))

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at` (no Event handle)."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past (t={time} < now={self.now})"
            )
        heappush(self._heap, (time, next(self._seq), fn, args))

    def call_at_many(
        self, items: Iterable[Tuple[float, Callable[..., Any], tuple]]
    ) -> int:
        """Batch fire-and-forget scheduling into the bulk run.

        ``items`` yields ``(time, fn, args)`` triples (``args`` a tuple).
        This is how a whole trace's arrivals are submitted: one C-level
        build and one sort (linear for a time-ordered trace), instead of n
        heap pushes.  Safe to call at any time, including from a running
        callback.  Returns the number of events scheduled.
        """
        seq = self._seq
        batch = [(t, next(seq), fn, args) for t, fn, args in items]
        if not batch:
            return 0
        t_min = min(entry[0] for entry in batch)
        if t_min < self.now:
            raise ValueError(
                f"cannot schedule into the past (t={t_min} < now={self.now})"
            )
        bulk = self._bulk
        bulk.extend(batch)
        bulk.sort(reverse=True)
        return len(batch)

    def _recycle(self, ev: Event) -> None:
        ev.fn = None  # type: ignore[assignment]
        ev.args = ()  # drop references; help refcounting
        self._free.append(ev)

    def _pop(self) -> Optional[tuple]:
        """Remove and return the next entry of either tier, or ``None``."""
        heap = self._heap
        bulk = self._bulk
        if heap:
            if bulk and bulk[-1] < heap[0]:
                return bulk.pop()
            return heappop(heap)
        return bulk.pop() if bulk else None

    # -- execution ----------------------------------------------------------

    @gc_paused()
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Process events in time order.

        Parameters
        ----------
        until:
            Stop once the next event lies strictly after this time; the clock
            is then advanced to ``until``.  ``None`` runs until the queue is
            empty.
        max_events:
            Safety valve for runaway simulations; raises ``RuntimeError``
            when exceeded.

        Returns
        -------
        int
            Number of events processed by this call.
        """
        if self._running:
            raise RuntimeError("Engine.run() is not reentrant")
        self._running = True
        processed = 0
        stop = _INF if until is None else until
        limit = sys.maxsize if max_events is None else max_events
        heap = self._heap
        bulk = self._bulk
        free = self._free
        try:
            while True:
                # Take the smaller head of the two tiers, unless it lies
                # past the stop time.
                if heap:
                    entry = heap[0]
                    if bulk and bulk[-1] < entry:
                        entry = bulk[-1]
                        if entry[0] > stop:
                            break
                        bulk.pop()
                    else:
                        if entry[0] > stop:
                            break
                        heappop(heap)
                elif bulk:
                    entry = bulk[-1]
                    if entry[0] > stop:
                        break
                    bulk.pop()
                else:
                    break
                if len(entry) == 4:
                    self.now = entry[0]
                    entry[2](*entry[3])
                else:
                    ev = entry[2]
                    fn = ev.fn
                    args = ev.args
                    ev.fn = None
                    ev.args = ()
                    free.append(ev)
                    if ev.cancelled:
                        continue
                    self.now = entry[0]
                    fn(*args)
                processed += 1
                if processed > limit:
                    raise RuntimeError(
                        f"exceeded max_events={max_events}; runaway simulation?"
                    )
        finally:
            self._running = False
            self._processed += processed
        if until is not None and self.now < until:
            self.now = until
        if self.tracer is not None:
            self.tracer.record_meta("run", processed)
        return processed

    def step(self) -> bool:
        """Process a single event.  Returns ``False`` if none remained."""
        while True:
            entry = self._pop()
            if entry is None:
                return False
            if len(entry) == 4:
                self.now = entry[0]
                entry[2](*entry[3])
                self._processed += 1
                return True
            ev = entry[2]
            if ev.cancelled:
                self._recycle(ev)
                continue
            self.now = entry[0]
            fn = ev.fn
            args = ev.args
            self._recycle(ev)
            fn(*args)
            self._processed += 1
            return True

    # -- introspection ------------------------------------------------------

    def peek(self) -> Optional[float]:
        """Virtual time of the next pending event, or ``None``."""
        heap = self._heap
        bulk = self._bulk
        while True:
            if heap:
                entry = bulk[-1] if bulk and bulk[-1] < heap[0] else heap[0]
            elif bulk:
                entry = bulk[-1]
            else:
                return None
            if len(entry) == 3 and entry[2].cancelled:
                self._recycle(self._pop()[2])
                continue
            return entry[0]

    def iter_pending(self) -> Iterator[Tuple[float, Callable[..., Any]]]:
        """Yield ``(time, fn)`` for every not-yet-cancelled queued event.

        The supported way to inspect queued work (drain sizing, request
        conservation) without reaching into the queue internals.
        """
        for tier in (self._bulk, self._heap):
            for entry in tier:
                if len(entry) == 4:
                    yield entry[0], entry[2]
                elif not entry[2].cancelled:
                    yield entry[0], entry[2].fn

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for _ in self.iter_pending())

    @property
    def processed(self) -> int:
        """Total events processed over the engine's lifetime."""
        return self._processed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine now={self.now:.6f} pending={self.pending}>"
