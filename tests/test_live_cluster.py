"""Live-cluster tests: an in-process master and a full loopback cluster.

The integration test boots the real thing — one master in-process plus
two slave subprocesses — replays ~200 mixed requests over actual HTTP,
and then holds the emitted span stream to the same audit the simulator's
traces must pass: lifecycle, conservation, and the theta'_2 reservation
invariant.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.analysis.cli import main
from repro.live.cluster import LiveCluster, LiveClusterConfig
from repro.live.loadgen import http_get, run_loadgen
from repro.live.master import MasterServer
from repro.live.validate import make_validation_trace
from repro.obs.audit import audit_spans
from repro.obs.trace import ABORT, DROP, START
from repro.sim.metrics import MetricsCollector

from tests.conftest import make_cgi, make_static


def test_single_node_master_serves_in_process():
    """A one-node master (no slaves, reservation off) executes statics
    and CGIs locally through serve_request, and its span stream audits."""

    async def scenario():
        master = MasterServer(node_id=0, num_nodes=1, workers=2)
        await master.start()
        try:
            results = []
            for i in range(6):
                if i % 2 == 0:
                    req = make_static(req_id=i, cpu=0.001)
                else:
                    req = make_cgi(req_id=i, cpu=0.002, io=0.005)
                results.append(await master.serve_request(req))
            return master, results
        finally:
            await master.stop()

    master, results = asyncio.run(scenario())
    assert all(r["status"] == "ok" for r in results)
    assert all(r["node"] == 0 and not r["remote"] for r in results)
    ledger = master.conservation()
    assert ledger["completed"] == 6 and ledger["in_flight"] == 0
    report = audit_spans(master.tracer.spans, conservation=ledger,
                         metrics_report=master.metrics.report())
    assert report.ok, report.render()
    assert report.checked["stretch_samples"] == 6


def test_cancelled_request_is_aborted_and_unwound():
    """Cancelling serve_request mid-CGI ends the request aborted: the
    ledger balances with nothing in flight, the policy forgets the
    request's in-flight work, and the span stream still audits."""

    async def scenario():
        master = MasterServer(node_id=0, num_nodes=1, workers=2)
        await master.start()
        try:
            task = asyncio.get_running_loop().create_task(
                master.serve_request(make_cgi(req_id=1, cpu=0.0, io=0.5)))
            while not any(span[1] == START for span in master.tracer.spans):
                await asyncio.sleep(0.01)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
        finally:
            await master.stop()
        return master

    master = asyncio.run(scenario())
    assert [span[1] for span in master.tracer.spans[-2:]] == [ABORT, DROP]
    assert master.tracer.spans[-1][4] == ("cancelled",)
    ledger = master.conservation()
    assert ledger["dropped"] == 1 and ledger["in_flight"] == 0
    assert ledger["balance"] == 0
    assert master.metrics.drops == {"aborted": 1}
    assert master.policy._dispatched_w == {}
    report = audit_spans(master.tracer.spans, conservation=ledger,
                         metrics_report=master.metrics.report())
    assert report.ok, report.render()


def test_trace_audit_reconciles_the_header_ledger(tmp_path, capsys):
    """``repro trace --audit`` checks a /control/spans stream against the
    ledger in its header: the saved stream is clean with the stretch check
    run, and the same stream under a header that skews the mean stretch or
    miscounts completions fails."""

    async def scenario():
        master = MasterServer(node_id=0, num_nodes=1, workers=2)
        await master.start()
        try:
            for i in range(3):
                await master.serve_request(make_static(req_id=i, cpu=0.001))
            return await http_get(master.host, master.http_port,
                                  "/control/spans")
        finally:
            await master.stop()

    status, raw = asyncio.run(scenario())
    assert status == 200
    body = raw.decode()
    header, *spans = body.splitlines()
    meta = json.loads(header)
    assert meta["meta"]["conservation"]["completed"] == 3
    assert meta["meta"]["summary"]["count"] == 3
    clean = tmp_path / "clean.jsonl"
    clean.write_text(body)
    assert main(["trace", "--audit", str(clean)]) == 0
    # The header's ledger summary arms the stretch cross-check.
    assert "'stretch_samples': 3" in capsys.readouterr().out

    overall = meta["meta"]["summary"]["overall"]
    stretch = overall["stretch"]
    overall["stretch"] = stretch * 1.01
    skewed = tmp_path / "skewed.jsonl"
    skewed.write_text("\n".join([json.dumps(meta), *spans]) + "\n")
    assert main(["trace", "--audit", str(skewed)]) == 1
    assert "mean stretch from spans" in capsys.readouterr().err
    overall["stretch"] = stretch

    meta["meta"]["conservation"]["completed"] = 2
    meta["meta"]["conservation"]["in_flight"] = 1
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join([json.dumps(meta), *spans]) + "\n")
    assert main(["trace", "--audit", str(tampered)]) == 1
    assert "conservation" in capsys.readouterr().err


def _assert_stats_match_report(metrics: dict, report) -> None:
    for label, cls in (("overall", report.overall),
                       ("static", report.static),
                       ("dynamic", report.dynamic)):
        got = metrics[label]
        assert got["count"] == cls.count > 0
        assert got["mean_response"] == pytest.approx(cls.mean_response,
                                                     rel=1e-9, abs=0.0)
        assert got["stretch"] == pytest.approx(cls.stretch, rel=1e-9,
                                               abs=0.0)
    assert metrics["count"] == report.completed
    assert metrics["remote"] == report.remote_dispatches
    assert metrics["dynamic_on_master"] == report.master_dynamic


def test_stats_payload_matches_the_ledger(monkeypatch):
    """``stats()["metrics"]`` agrees with ``metrics.report()`` and the
    ledger's drop counts after a run with denied and aborted requests, and
    a later poll folds only the rows recorded since the previous one."""
    folds = []
    rows = MetricsCollector.rows

    def spy(self, start=0):
        folds.append(start)
        return rows(self, start)

    monkeypatch.setattr(MetricsCollector, "rows", spy)

    async def serve(master, ids):
        for i in ids:
            req = (make_cgi(req_id=i, cpu=0.0005, io=0.0) if i % 2
                   else make_static(req_id=i, cpu=0.0002))
            await master.serve_request(req)

    async def scenario():
        # Node 1 heartbeats but has no CGI connection: dynamics routed
        # there are denied.
        master = MasterServer(node_id=0, num_nodes=2, workers=2)
        await master.start()
        try:
            for seq in range(1, 6):
                master.receiver.observe(1, seq, 1.0, 1.0, 0,
                                        master.clock.now)
            await serve(master, range(40))
            task = asyncio.get_running_loop().create_task(
                master.serve_request(make_static(req_id=99, cpu=0.5)))
            while not any(span[1] == START and span[2] == 99
                          for span in master.tracer.spans):
                await asyncio.sleep(0.01)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            first = (master.stats(), master.metrics.report(),
                     dict(master.metrics.drops), len(master.metrics))
            await serve(master, range(100, 130))
            second = (master.stats(), master.metrics.report(),
                      dict(master.metrics.drops), len(master.metrics))
        finally:
            await master.stop()
        return first, second

    first, second = asyncio.run(scenario())
    for stats, report, drops, _ in (first, second):
        metrics = stats["metrics"]
        _assert_stats_match_report(metrics, report)
        assert metrics["denied"] == drops["denied"] > 0
        assert metrics["aborted"] == drops["aborted"] == 1
        assert stats["conservation"]["balance"] == 0
    assert second[0]["metrics"]["count"] > first[0]["metrics"]["count"]
    assert folds == [0, first[3]]


@pytest.mark.integration
def test_loopback_cluster_end_to_end():
    """1 master + 2 slave processes, ~200 mixed requests over real HTTP."""
    trace = make_validation_trace(rate=80.0, duration=2.5, mu_h=240.0,
                                  inv_r=12.0, seed=3)
    assert len(trace) >= 150

    async def scenario():
        cfg = LiveClusterConfig(num_slaves=2, seed=3)
        async with LiveCluster(cfg) as cluster:
            result = await run_loadgen(cluster.master.host,
                                       cluster.master.http_port, trace)
            # stop() clears the peer registry: snapshot the counters now.
            peer_stats = [(peer.submitted, peer.completed)
                          for peer in cluster.master.peers.values()]
            return cluster.master, result, peer_stats

    master, result, peer_stats = asyncio.run(scenario())

    # Every submitted request got a definite outcome, none errored.
    assert result.submitted == len(trace)
    assert result.errors == 0, result.error_messages[:5]
    assert result.ok + result.denied == result.submitted
    assert result.ok > 0.9 * result.submitted

    # The ledger drained and balances.
    ledger = master.conservation()
    assert ledger["submitted"] == len(trace)
    assert ledger["in_flight"] == 0
    assert ledger["completed"] == result.ok

    # Remote CGI really round-tripped through the slave processes.
    assert len(peer_stats) == 2
    assert sum(s for s, _ in peer_stats) > 0
    assert sum(c for _, c in peer_stats) > 0
    assert any(c[4] for c in result.completions)   # remote completions

    # The span stream passes the simulator's audit, including the
    # reservation invariant and the stretch cross-check against the
    # ledger — and those checks actually ran.
    report = audit_spans(master.tracer.spans, conservation=ledger,
                         metrics_report=master.metrics.report())
    assert report.ok, report.render()
    assert report.checked.get("reservation_decisions", 0) > 0
    assert report.checked["stretch_samples"] == result.ok

    # The adaptive cap was live on the master (gate honesty per decision
    # is asserted span-by-span by the audit's reservation check above).
    res = master.policy.reservation
    assert res is not None
    assert 0.0 < res.effective_cap <= 1.0
    assert 0.0 <= res.master_fraction <= 1.0
