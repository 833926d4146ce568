"""Live-substrate control tests: the ROLE frame round-trip on a real
socket, the asyncio reconciliation loop on an in-process master, and the
full loopback cluster with the controller attached."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.analysis.cli import main
from repro.control import ControlConfig, EstimatorConfig, LiveControlLoop
from repro.live import protocol
from repro.live.cluster import LiveCluster, LiveClusterConfig
from repro.live.kernel import BusyMeter
from repro.live.loadgen import run_loadgen
from repro.live.master import MasterServer
from repro.live.node import CGIService, WorkerPool
from repro.live.validate import make_validation_trace
from repro.obs.audit import audit_spans
from repro.obs.trace import CONTROL


def fast_control(**kwargs):
    kwargs.setdefault("period", 0.1)
    kwargs.setdefault("cooldown", 0.2)
    kwargs.setdefault("confirm_ticks", 1)
    kwargs.setdefault("estimator",
                      EstimatorConfig(min_class_samples=10, warm_windows=1))
    return ControlConfig(**kwargs)


def test_role_frame_round_trip():
    """A ROLE frame flips the node's announced role and is acked with
    role_ok carrying the same sequence number."""

    async def scenario():
        pool = WorkerPool(node_id=1, workers=1, meter=BusyMeter(1))
        service = CGIService(node_id=1, pool=pool)
        port = await service.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            protocol.send_message(writer, protocol.hello(0))
            await writer.drain()
            await protocol.expect_hello(reader)

            protocol.send_message(writer, {"op": "role", "node": 1,
                                           "role": "master", "seq": 7})
            await writer.drain()
            ack = await protocol.read_message(reader)

            # In-flight execution is role-agnostic: the node still
            # serves CGI frames after the transition.
            protocol.send_message(writer, {"op": "cgi", "id": 42,
                                           "cpu": 0.001, "io": 0.0})
            await writer.drain()
            ops = []
            while len(ops) < 3:
                msg = await protocol.read_message(reader)
                ops.append(msg["op"])
            writer.close()
            await writer.wait_closed()
            return service, ack, ops
        finally:
            await service.stop()
            pool.shutdown()

    service, ack, ops = asyncio.run(scenario())
    assert ack == {"op": "role_ok", "node": 1, "role": "master", "seq": 7}
    assert service.role == "master"
    assert service.role_changes == 1
    assert ops == ["admit", "start", "done"]


def test_live_control_loop_on_in_process_master():
    """The asyncio loop ticks a one-node master: cold-window discipline
    holds (nothing to promote), CONTROL spans land on the master's
    tracer, and the stream still audits."""
    from tests.conftest import make_cgi, make_static

    async def scenario():
        master = MasterServer(node_id=0, num_nodes=1, workers=2)
        await master.start()
        loop = LiveControlLoop(master, fast_control()).start()
        try:
            for i in range(8):
                req = (make_static(req_id=i, cpu=0.001) if i % 2
                       else make_cgi(req_id=i, cpu=0.002, io=0.002))
                await master.serve_request(req)
            await asyncio.sleep(0.35)    # a few control periods
        finally:
            await loop.stop()
            await master.stop()
        return master, loop.controller

    master, controller = asyncio.run(scenario())
    assert controller.ticks >= 2
    # One node: nothing may ever be promoted/demoted.
    assert controller.applied == []
    control = [s for s in master.tracer.spans if s[1] == CONTROL]
    tags = {s[4][0] for s in control}
    assert "attach" in tags and "roles" in tags
    report = audit_spans(master.tracer.spans,
                         conservation=master.conservation(),
                         metrics_report=master.metrics.report())
    assert report.ok, report.render()


@pytest.mark.integration
def test_loopback_cluster_with_controller():
    """1 master + 2 slave processes under load with the reconciliation
    loop armed: no request lost, and the span stream (CONTROL spans
    included) passes the auditor."""
    trace = make_validation_trace(rate=60.0, duration=2.0, mu_h=240.0,
                                  inv_r=12.0, seed=11)

    async def scenario():
        cfg = LiveClusterConfig(num_slaves=2, seed=11)
        async with LiveCluster(cfg) as cluster:
            loop = LiveControlLoop(cluster.master, fast_control()).start()
            try:
                result = await run_loadgen(cluster.master.host,
                                           cluster.master.http_port, trace)
            finally:
                await loop.stop()
            ledger = cluster.master.conservation()
            return (cluster.master, result, loop.controller, ledger,
                    cluster.master.metrics.report())

    master, result, controller, ledger, metrics = asyncio.run(scenario())
    assert result.errors == 0
    assert result.ok == len(trace)
    assert controller.ticks > 0
    assert ledger["in_flight"] == 0
    report = audit_spans(master.tracer.spans, conservation=ledger,
                         metrics_report=metrics)
    assert report.ok, report.render()


@pytest.mark.integration
def test_saved_live_control_stream_arms_the_stretch_audit(tmp_path, capsys):
    """``repro control --live --spans`` saves the master's ledger summary
    beside its conservation ledger, so ``repro trace --audit`` on the file
    recomputes stretch from the spans and checks it."""
    path = tmp_path / "control_live_spans.jsonl"
    assert main(["control", "--live", "--slaves", "1", "--rate", "30",
                 "--duration", "1", "--period", "0.3", "--cooldown", "0.6",
                 "--spans", str(path)]) == 0
    with open(path, encoding="utf-8") as fh:
        meta = json.loads(fh.readline())["meta"]
    completed = meta["conservation"]["completed"]
    assert completed > 0
    assert meta["summary"]["count"] == completed
    capsys.readouterr()
    assert main(["trace", "--audit", str(path)]) == 0
    assert f"'stretch_samples': {completed}" in capsys.readouterr().out
