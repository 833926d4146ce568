"""Property-based check of the engine's two-tier queue (the file and
test names keep the queue's earlier "ladder" name).

The engine keeps :meth:`~repro.sim.engine.Engine.call_at_many` arrivals
in a descending sorted bulk run and everything else in a binary heap,
pops whichever head has the smaller ``(time, seq)``, takes handle-free
tuples on the fast path and pools :class:`Event` handles.  These tests
pit it against an obviously-correct single-``heapq`` reference model:
both sides replay the same randomly generated program of ``call_at`` /
``call_at_many`` / ``schedule_at`` calls — including callbacks that
schedule more work one at a time or in bulk, and cancel pending handles
mid-run — and must fire callbacks in exactly the same order, FIFO within
equal timestamps.  The run is cut into ``run(until=...)`` segments; at
every stop ``peek()``, ``pending`` and ``iter_pending()`` must agree with
the model, also after handles on either side of the bulk head have been
cancelled.

Times are drawn from a coarse 0.25s grid so timestamp ties (the
tie-break path) occur constantly.
"""

import heapq
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine

#: Coarse time grid => frequent exact ties.
_TIMES = st.integers(min_value=0, max_value=12).map(lambda k: k * 0.25)
_DELAYS = st.integers(min_value=0, max_value=8).map(lambda k: k * 0.25)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("call_at"), _TIMES),
        st.tuples(st.just("call_at_many"),
                  st.lists(_TIMES, min_size=0, max_size=4)),
        st.tuples(st.just("schedule_at"), _TIMES),
        # A callback that schedules children, one at a time or in bulk.
        st.tuples(st.just("chain"), _TIMES,
                  st.lists(_DELAYS, min_size=1, max_size=3), st.booleans()),
    ),
    max_size=30,
)

_STOPS = st.lists(
    st.integers(min_value=0, max_value=24).map(lambda k: k * 0.25),
    max_size=4,
).map(sorted)


class _HeapModel:
    """Reference semantics: one binary heap, (time, seq) ordering, lazy
    cancellation on pop — exactly what the seed kernel did."""

    def __init__(self):
        self.heap = []
        self.seq = itertools.count()
        self.cancelled = set()

    def push(self, t, entry_id, payload):
        heapq.heappush(self.heap, (t, next(self.seq), entry_id, payload))

    def run(self, until=float("inf")):
        """Pop everything due by ``until``; returns the fired tags."""
        fired = []
        while self.heap and self.heap[0][0] <= until:
            t, _seq, entry_id, payload = heapq.heappop(self.heap)
            if entry_id in self.cancelled:
                continue
            tag, children, cancel_entry = payload
            fired.append(tag)
            if cancel_entry is not None:
                self.cancelled.add(cancel_entry)
            for dt, child_tag in children:
                self.push(t + dt, child_tag, (child_tag, (), None))
        return fired

    def live(self):
        return sorted(t for t, _s, entry_id, _p in self.heap
                      if entry_id not in self.cancelled)


def _check_introspection(eng, model):
    live = model.live()
    assert eng.pending == len(live)
    assert sorted(t for t, _fn in eng.iter_pending()) == live
    assert eng.peek() == (live[0] if live else None)


@settings(deadline=None, max_examples=150)
@given(ops=_OPS, stops=_STOPS, data=st.data())
def test_ladder_queue_matches_heap_model(ops, stops, data):
    eng = Engine()
    model = _HeapModel()
    fired = []
    expected = []
    tags = itertools.count()

    # Handles eligible for cancellation: (engine_handle, time, setup_seq,
    # model_entry_id).  setup_seq mirrors the engine's internal sequence
    # counter so "does this handle fire after that chain?" is decidable
    # statically, which keeps every cancel() within the pooling contract
    # (never cancel a handle whose callback already ran).
    handles = []
    cancelled = set()
    setup_seq = itertools.count()

    def fire(tag):
        fired.append(tag)

    def fire_chain(tag, dts_tags, victim, bulk):
        fired.append(tag)
        if victim is not None:
            victim.cancel()
        if bulk:
            eng.call_at_many((eng.now + dt, fire, (child_tag,))
                             for dt, child_tag in dts_tags)
        else:
            for dt, child_tag in dts_tags:
                eng.call_at(eng.now + dt, fire, child_tag)

    for op in ops:
        if op[0] == "call_at":
            _, t = op
            tag = next(tags)
            eng.call_at(t, fire, tag)
            model.push(t, tag, (tag, (), None))
            next(setup_seq)
        elif op[0] == "call_at_many":
            _, ts = op
            batch = []
            for t in ts:
                tag = next(tags)
                batch.append((t, fire, (tag,)))
                model.push(t, tag, (tag, (), None))
                next(setup_seq)
            eng.call_at_many(batch)
        elif op[0] == "schedule_at":
            _, t = op
            tag = next(tags)
            handle = eng.schedule_at(t, fire, tag)
            model.push(t, tag, (tag, (), None))
            handles.append((handle, t, next(setup_seq), tag))
        else:  # chain
            _, t, dts, bulk = op
            tag = next(tags)
            my_seq = next(setup_seq)
            dts_tags = tuple((dt, next(tags)) for dt in dts)
            # Maybe cancel a handle that provably fires after this chain.
            victims = [h for h in handles
                       if (h[1], h[2]) > (t, my_seq)]
            victim = (data.draw(st.sampled_from(victims),
                                label="victim") if victims
                      and data.draw(st.booleans(), label="do_cancel")
                      else None)
            eng.call_at(t, fire_chain, tag, dts_tags,
                        None if victim is None else victim[0], bulk)
            model.push(t, tag, (tag, dts_tags,
                                None if victim is None else victim[3]))

    # Some handles are cancelled up front too (before anything fires).
    if handles:
        for handle, _t, _s, entry_id in data.draw(
                st.lists(st.sampled_from(handles), max_size=3, unique=True),
                label="pre_cancel"):
            handle.cancel()
            handle.cancel()  # cancellation is idempotent
            model.cancelled.add(entry_id)
            cancelled.add(entry_id)

    _check_introspection(eng, model)
    for stop in stops:
        eng.run(until=stop)
        expected += model.run(until=stop)
        assert fired == expected
        assert eng.now == stop
        _check_introspection(eng, model)
        # Cancel a handle that has not fired yet while the run is stopped.
        waiting = [h for h in handles
                   if h[1] > stop and h[3] not in cancelled
                   and h[3] not in model.cancelled]
        if waiting and data.draw(st.booleans(), label="stop_cancel"):
            handle, _t, _s, entry_id = data.draw(st.sampled_from(waiting),
                                                 label="stop_victim")
            handle.cancel()
            model.cancelled.add(entry_id)
            cancelled.add(entry_id)
            _check_introspection(eng, model)

    eng.run()
    expected += model.run()
    assert fired == expected
    _check_introspection(eng, model)


@settings(deadline=None, max_examples=60)
@given(ts=st.lists(_TIMES, min_size=2, max_size=12))
def test_equal_times_fire_in_submission_order(ts):
    """FIFO tie-break: ties must fire in exact submission order even when
    submitted through different entry points."""
    eng = Engine()
    fired = []
    expected = sorted(range(len(ts)), key=lambda i: (ts[i], i))
    for i, t in enumerate(ts):
        if i % 3 == 0:
            eng.call_at(t, fired.append, i)
        elif i % 3 == 1:
            eng.schedule_at(t, fired.append, i)
        else:
            eng.call_at_many([(t, fired.append, (i,))])
    eng.run()
    assert fired == expected


def test_bulk_submission_from_a_running_callback():
    """A batch submitted mid-run merges into the bulk run still holding
    earlier arrivals, and ties with them stay FIFO."""
    eng = Engine()
    fired = []
    eng.call_at_many([(1.0, fired.append, ("a",)),
                      (3.0, fired.append, ("c",))])

    def burst():
        fired.append("burst")
        eng.call_at_many([(3.0, fired.append, ("c2",)),
                          (2.0, fired.append, ("b",)),
                          (eng.now, fired.append, ("now",))])

    eng.call_at(1.0, burst)
    eng.run()
    assert fired == ["a", "burst", "now", "b", "c", "c2"]
