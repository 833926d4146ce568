"""Unit tests for the span recorder and its serialisation helpers."""

import json

import numpy as np
import pytest

from repro.obs import (
    Tracer,
    iter_jsonl,
    load_jsonl,
    save_jsonl,
    span_digest,
    summarize_spans,
)
from repro.obs.trace import (
    ADMIT,
    ARRIVE,
    BLOCK,
    COMPLETE,
    CONTROL,
    DISPATCH,
    RUN,
    START,
    SpanLog,
)
from repro.sim.engine import Engine


def _sample_spans():
    eng = Engine()
    tr = Tracer()
    tr.bind(eng)
    tr.record(ARRIVE, 0, -1, (1, 0.25))
    eng.schedule(1.5, tr.record, DISPATCH, 0, 3,
                 (True, False, 0.7, 1.2, None, None, None))
    eng.schedule(2.0, tr.record, COMPLETE, 0, 3, (0.25, True, False))
    eng.run()
    tr.record_meta(RUN, 2)
    return tr


class TestTracer:
    def test_records_engine_time(self):
        tr = _sample_spans()
        assert [s[0] for s in tr.spans] == [0.0, 1.5, 2.0, 2.0]
        assert [s[1] for s in tr.spans] == [ARRIVE, DISPATCH, COMPLETE, RUN]

    def test_meta_spans_have_no_request(self):
        tr = _sample_spans()
        t, kind, req_id, node_id, data = tr.spans[-1]
        assert (req_id, node_id) == (-1, -1)
        assert data == (2,)

    def test_len_and_clear(self):
        tr = _sample_spans()
        assert len(tr) == 4
        tr.clear()
        assert len(tr) == 0 and tr.spans == []


class TestSerialisation:
    def test_roundtrip_preserves_digest(self, tmp_path):
        tr = _sample_spans()
        path = tmp_path / "spans.jsonl"
        save_jsonl(tr.spans, path, meta={"case": "roundtrip"})
        loaded, header = load_jsonl(path)
        assert header["count"] == len(tr.spans)
        assert header["meta"] == {"case": "roundtrip"}
        assert span_digest(loaded) == span_digest(tr.spans)
        assert loaded[0][:4] == (0.0, ARRIVE, 0, -1)
        assert loaded[0][4] == (1, 0.25)

    def test_numpy_payloads_serialise(self, tmp_path):
        spans = [(0.0, ARRIVE, 0, -1, (np.bool_(True), np.float64(0.5),
                                       np.int64(3)))]
        path = tmp_path / "np.jsonl"
        save_jsonl(spans, path)
        loaded, _ = load_jsonl(path)
        assert loaded[0][4] == (True, 0.5, 3)
        # The digest must agree between the numpy and plain encodings.
        assert span_digest(spans) == span_digest(loaded)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"format":"something-else"}\n')
        with pytest.raises(ValueError, match="not a repro.obs/1"):
            load_jsonl(path)

    def test_digest_is_order_sensitive(self):
        tr = _sample_spans()
        reordered = list(reversed(tr.spans))
        assert span_digest(reordered) != span_digest(tr.spans)

    def test_digest_sensitive_to_payload(self):
        tr = _sample_spans()
        tampered = list(tr.spans)
        t, kind, req_id, node_id, data = tampered[0]
        tampered[0] = (t, kind, req_id, node_id, (2, 0.25))
        assert span_digest(tampered) != span_digest(tr.spans)


class TestSummary:
    def test_summary_counts(self):
        tr = _sample_spans()
        s = summarize_spans(tr.spans)
        assert s["spans"] == 4
        assert s["requests"] == 1          # req 0; meta spans excluded
        assert s["nodes"] == 1             # node 3
        assert s["t_min"] == 0.0 and s["t_max"] == 2.0
        assert s["kinds"] == {ARRIVE: 1, DISPATCH: 1, COMPLETE: 1, RUN: 1}
        assert s["digest"] == span_digest(tr.spans)

    def test_empty_stream(self):
        s = summarize_spans([])
        assert s["spans"] == 0
        assert s["t_min"] == 0.0 and s["t_max"] == 0.0


def _live_spans(requests, seed=0):
    """The master's span shapes: five a request, numpy scalars in the
    dispatch verdict, and a CONTROL span with a nested tuple."""
    rng = np.random.default_rng(seed)
    spans = [(0.0, CONTROL, -1, -1, ("roles", (0,)))]
    t = 0.5
    for i in range(requests):
        t += float(rng.exponential(0.004))
        node = int(rng.integers(3))
        demand = float(rng.exponential(0.01))
        spans += [
            (t, ARRIVE, i, -1, (1, demand)),
            (t + 1e-5, DISPATCH, i, node,
             (node != 0, node == 0, 0.5, float(rng.random()),
              np.bool_(True), np.float64(0.3), float(rng.random()))),
            (t + 2e-5, ADMIT, i, node, (False,)),
            (t + 3e-5, START, i, node, (1,)),
            (t + demand, COMPLETE, i, node, (demand, node != 0, node == 0)),
        ]
    return spans


def _log_of(spans):
    log = SpanLog()
    for span in spans:
        log.append(span)
    return log


class TestSpanLog:
    def test_reads_back_as_load_jsonl_with_the_tail_as_recorded(
            self, tmp_path):
        spans = _live_spans(100)
        log = _log_of(spans)
        sealed = len(spans) // BLOCK * BLOCK
        assert 0 < sealed < len(spans)
        save_jsonl(spans, tmp_path / "spans.jsonl")
        loaded, _ = load_jsonl(tmp_path / "spans.jsonl")
        got = list(log)
        assert got[:sealed] == loaded[:sealed]
        assert got[0][4] == ("roles", [0])          # as the file reads
        assert got[sealed:] == spans[sealed:]
        assert all(a is b for a, b in zip(got[sealed:], spans[sealed:]))

    def test_len_negative_index_and_slice_across_a_seal(self):
        spans = _live_spans(100)
        log = _log_of(spans)
        plain = list(log)
        assert len(log) == len(spans) == 501
        assert log[-1] == plain[-1] and log[-len(log)] == plain[0]
        assert log[BLOCK] == plain[BLOCK]
        for cut in (slice(BLOCK - 3, BLOCK + 3), slice(-5, None),
                    slice(None, None, 7), slice(2 * BLOCK + 9, 5, -3),
                    slice(10, 10)):
            assert log[cut] == plain[cut]
        with pytest.raises(IndexError):
            log[len(log)]

    def test_iter_jsonl_is_byte_identical_to_the_list(self):
        spans = _live_spans(100)
        meta = {"source": "test"}
        assert ("\n".join(iter_jsonl(_log_of(spans), meta))
                == "\n".join(iter_jsonl(spans, meta)))

    def test_digest_matches_the_list(self):
        spans = _live_spans(100)
        assert span_digest(_log_of(spans)) == span_digest(spans)

    def test_iteration_and_copy_keep_the_spans_of_their_start(self):
        spans = _live_spans(60)
        log = _log_of(spans[:BLOCK - 1])
        lines = iter_jsonl(log)
        header = next(lines)
        fixed = log.copy()
        for span in spans[BLOCK - 1:]:          # seals the shared tail
            log.append(span)
        assert json.loads(header)["count"] == BLOCK - 1
        assert sum(1 for _ in lines) == BLOCK - 1
        assert len(fixed) == BLOCK - 1 and list(fixed)[-1] == spans[BLOCK - 2]
        log.clear()
        assert len(log) == 0 and list(log) == [] and log.nbytes < 100

    def test_stays_under_32_bytes_a_span(self):
        spans = _live_spans(2000)
        log = _log_of(spans)
        assert len(log) == 10001
        assert log.nbytes < 32 * len(log)

    def test_tracer_records_into_a_given_log(self):
        eng = Engine()
        log = SpanLog()
        tr = Tracer(eng, log)
        tr.record(ARRIVE, 0, -1, (1, 0.25))
        assert tr.spans is log
        assert list(log) == [(0.0, ARRIVE, 0, -1, (1, 0.25))]
