"""Fast tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from common import MIN_BEYOND, Outcome, percentile, slo_frac  # noqa: E402
from layers import LAYER_MODULES, PER_LAYER, layer_of  # noqa: E402


def test_p99_withheld_below_ten_samples_beyond():
    withheld = percentile(list(range(900)), 99)
    assert withheld.value is None and withheld.beyond == 9
    tail = percentile(list(range(1000)), 99)
    assert tail.value is not None and tail.beyond >= MIN_BEYOND


def test_p99_counts_only_samples_strictly_beyond():
    # A flat tail has nothing beyond its percentile.
    assert percentile([1.0] * 5000, 99).value is None


def test_slo_frac_counts_failures_as_misses():
    assert slo_frac([0.001], [0.001], attempted=1) == 1.0
    assert slo_frac([0.001], [0.001], attempted=4) == 0.25
    out = Outcome(attempted=10)
    for _ in range(8):
        out.add(0.001, 0.001, False)
    metrics = out.latency_metrics()
    assert metrics["slo_frac"] == 0.8
    assert metrics["ok_frac"] == 0.8


def test_slo_frac_misses_slow_completions():
    assert slo_frac([0.2, 0.001], [0.01, 0.001], attempted=2) == 0.5


@pytest.mark.parametrize("module", [
    "sim/engine.py", "sim/cpu.py", "sim/node.py", "sim/process.py",
    "sim/disk.py", "sim/memory.py", "core/policies.py",
    "core/reservation.py", "core/rsrc.py", "core/sampling.py",
    "sim/cluster.py", "sim/monitor.py", "control/controller.py",
    "control/estimator.py", "control/actuator.py", "sim/metrics.py",
])
def test_layer_map_covers_listed_modules(module):
    path = HERE.parent / "src" / "repro" / module
    assert path.is_file(), path
    layer = layer_of(str(path), "f")
    assert layer != "other"
    assert f"{layer}.self_frac" in PER_LAYER


def test_every_mapped_module_exists():
    src = HERE.parent / "src" / "repro"
    for modules in LAYER_MODULES.values():
        for module in modules:
            assert (src / module).exists(), module


def test_benchmark_json_lists_every_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == list(PER_LAYER)
    from common import END_TO_END
    assert [m["name"] for m in bench["end_to_end"]] == list(END_TO_END)


async def _fake_master(connections: list):
    """A keep-alive server answering every ``/req`` with an ok reply."""

    async def handle(reader, writer):
        connections.append(writer)
        while True:
            line = await reader.readline()
            if not line:
                break
            target = line.split()[1].decode()
            while (await reader.readline()) not in (b"\r\n", b""):
                pass
            req_id = int(target.split("id=")[1].split("&")[0])
            body = json.dumps({"status": "ok", "id": req_id,
                               "response": 0.0001}).encode()
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: "
                         + str(len(body)).encode() + b"\r\n\r\n" + body)
            await writer.drain()
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_live_client_never_opens_more_than_two_connections():
    import livework

    async def scenario():
        connections = []
        server = await _fake_master(connections)
        port = server.sockets[0].getsockname()[1]
        client = livework.HttpClient("127.0.0.1", port)
        trace = livework.make_trace(seed=3, rate=200.0, duration=2.0)
        gen = livework.ClosedLoop(client, trace)
        try:
            await gen.run(seconds=0.3)
            with pytest.raises(RuntimeError):
                await client.connect()
        finally:
            await client.close()
            server.close()
            await server.wait_closed()
        return gen, client, connections

    gen, client, connections = asyncio.run(scenario())
    assert client.opened == livework.MAX_CONNECTIONS == 2
    assert len(connections) == 2
    assert len(gen.outcome.done) == len(gen.sent) > 0


def test_live_ledger_must_match_the_replies():
    import livework
    from common import RunResult

    trace = livework.make_trace(seed=3, rate=200.0, duration=0.2)
    replies = {q.req_id: {"status": "ok", "id": q.req_id} for q in trace}
    n = len(trace)
    ledger = {"submitted": n, "completed": n, "dropped": 0, "in_flight": 0}
    matching = RunResult("live_ucb_open")
    livework.check_results(matching, trace, replies, 0, ledger)
    assert matching.correct, matching.problems
    # A ledger that books an ok reply as dropped still "balances".
    shifted = RunResult("live_ucb_open")
    livework.check_results(shifted, trace, replies, 0,
                           dict(ledger, completed=n - 1, dropped=1))
    assert not shifted.correct


def test_yardstick_slowdown_uses_the_fastest_sample():
    from reference import NOMINAL_UNIT_S, Yardstick, unit

    assert unit(events=200) > 0
    stick = Yardstick()
    stick.samples = [NOMINAL_UNIT_S * 3, NOMINAL_UNIT_S * 2, NOMINAL_UNIT_S * 5]
    assert stick.slowdown == pytest.approx(2.0)
