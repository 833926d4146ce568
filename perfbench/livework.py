"""The two live-cluster workloads.

``live_ucb_open`` boots a :class:`LiveCluster` in this process and feeds
it open-loop Poisson arrivals through ``MasterServer.serve_request`` in
the master's own event loop: no client connections at all. Each request
is timed from when it was due, so a stalled loop charges the wait to
every request queued behind the stall. The offered rate is fixed, so its
throughput is the CPU cost of serving: requests completed per CPU second
of the master's event-loop thread (request demands burn on worker
threads and are not counted).

``live_ucb_http`` runs ``repro serve`` as its own process, the way users
run it, and drives it closed-loop over two keep-alive HTTP connections
that replay the trace in order.

Load comes from this one process: one event-loop thread, at most
:data:`MAX_CONNECTIONS` client connections.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.live.cluster import LiveCluster, LiveClusterConfig
from repro.live.loadgen import request_target
from repro.obs.trace import ADMIT, ARRIVE, COMPLETE, DISPATCH, START
from repro.workload.generator import generate_trace
from repro.workload.request import Request, RequestKind
from repro.workload.traces import UCB

from common import (NOT_MEASURED, Outcome, RunResult, median_ms,
                    peak_rss_mb, percentile, tail_ms, time_route)

ROOT = Path(__file__).resolve().parent.parent

MU_H = 2000.0
INV_R = 40.0
#: Offered rate of the open loop, requests per second.
OPEN_RATE = 200.0
#: Boots timed per run; the fastest is reported as ``setup_s``.
BOOT_REPS = 3
#: Client connections the HTTP workload may open, in total.
MAX_CONNECTIONS = 2
#: Longest wait for the last in-flight requests after the window closes.
SETTLE_TIMEOUT = 60.0
#: Interval of the traced run's event-loop lag probe, seconds.
LAG_PROBE_S = 0.01


def make_trace(seed: int, rate: float, duration: float) -> List[Request]:
    return generate_trace(UCB, rate=rate, duration=duration, mu_h=MU_H,
                          r=1.0 / INV_R, seed=seed)


def is_dynamic(request: Request) -> bool:
    return request.kind is RequestKind.DYNAMIC


# -- shared checks and per-layer figures -----------------------------------


def check_results(result: RunResult, sent: List[Request],
                  replies: Dict[int, dict], errors: int,
                  ledger: dict) -> None:
    """Check every attempted request ended ok, denied or in an error,
    every reply carries its request's id, and the master's ledger
    counts exactly those endings with nothing in flight."""
    ended = {"ok": 0, "denied": 0, "aborted": 0}
    for request in sent:
        reply = replies.get(request.req_id)
        if reply is None:
            continue
        result.check(reply.get("id") == request.req_id,
                     f"reply id {reply.get('id')} for request "
                     f"{request.req_id}")
        status = reply.get("status")
        result.check(status in ended, f"request {request.req_id} ended "
                                      f"with status {status!r}")
        ended[status] = ended.get(status, 0) + 1
    result.check(len(replies) + errors == len(sent),
                 f"{len(sent)} attempted but {len(replies)} replies and "
                 f"{errors} errors")
    result.check(ledger["submitted"] == len(sent),
                 f"master saw {ledger['submitted']} of {len(sent)}")
    result.check(ledger["completed"] == ended["ok"]
                 and ledger["dropped"] == ended["denied"] + ended["aborted"]
                 and ledger["in_flight"] == 0,
                 f"master ledger {ledger} does not match endings {ended}")
    result.notes.append(f"ended: {ended}, errors {errors}")


def span_layers(spans, replies: Dict[int, dict]) -> Dict[str, float]:
    """Pool waits, backlog share and peer hops from the master's spans."""
    dynamic: Dict[int, bool] = {}
    dispatched: Dict[int, float] = {}
    admitted: Dict[int, float] = {}
    started: Dict[int, float] = {}
    waits = {False: [], True: []}
    admit_hops, return_hops = [], []
    local_admits = backlogged = 0
    for t, kind, req_id, node_id, data in spans:
        if kind == ARRIVE:
            dynamic[req_id] = data[0] == int(RequestKind.DYNAMIC)
        elif kind == DISPATCH:
            dispatched[req_id] = t
        elif kind == ADMIT:
            admitted[req_id] = t
            if node_id == 0:
                local_admits += 1
                backlogged += bool(data and data[0])
            elif req_id in dispatched:
                admit_hops.append(t - dispatched[req_id])
        elif kind == START and req_id in admitted:
            started[req_id] = t
            waits[dynamic.get(req_id, False)].append(t - admitted[req_id])
        elif kind == COMPLETE and node_id != 0 and req_id in started:
            reply = replies.get(req_id, {})
            busy = float(reply.get("cpu", 0.0)) + float(reply.get("io", 0.0))
            return_hops.append(t - started[req_id] - busy)

    return {
        "pool.static_wait_p99_ms": tail_ms(waits[False]),
        "pool.dynamic_wait_p99_ms": tail_ms(waits[True]),
        "pool.backlog_admit_frac": backlogged / max(local_admits, 1),
        "peer.admit_hop_p50_ms": median_ms(admit_hops),
        "peer.return_hop_p50_ms": median_ms(return_hops),
    }


def reply_layers(sent: List[Request], replies: Dict[int, dict],
                 stats: dict) -> Dict[str, float]:
    """Dispatch, execution, heartbeat and ledger figures."""
    ok = [(q, replies[q.req_id]) for q in sent
          if replies.get(q.req_id, {}).get("status") == "ok"]
    cpu_dem = sum(q.cpu_demand for q, _ in ok)
    io_dem = sum(q.io_demand for q, _ in ok)
    cpu_used = sum(float(r.get("cpu", 0.0)) for _, r in ok)
    io_used = sum(float(r.get("io", 0.0)) for _, r in ok)
    dyn = [r for q, r in ok if is_dynamic(q)]
    ledger = stats["conservation"]
    reservation = stats.get("reservation") or {}
    return {
        "dispatch.remote_frac": sum(1 for _, r in ok if r.get("remote"))
        / max(len(ok), 1),
        "dispatch.master_dyn_frac": sum(1 for r in dyn if r.get("on_master"))
        / max(len(dyn), 1),
        "dispatch.theta_cap": reservation.get("effective_cap",
                                              NOT_MEASURED),
        "dispatch.denied": stats["metrics"]["denied"],
        "exec.cpu_overshoot_frac": (cpu_used / cpu_dem - 1.0
                                    if cpu_dem else NOT_MEASURED),
        "exec.io_overshoot_frac": (io_used / io_dem - 1.0
                                   if io_dem else NOT_MEASURED),
        "loadd.heartbeats": stats["heartbeats"],
        "loadd.rejected": stats["heartbeats_rejected"],
        "ledger.completed": ledger["completed"],
        "ledger.balance": len(sent) - ledger["completed"] - ledger["dropped"]
        - ledger["in_flight"],
    }


def outcome_metrics(outcome: Outcome, seconds: float) -> Dict[str, float]:
    """Latency figures plus completed requests per ``seconds``."""
    return {"host_req_per_s": len(outcome.done) / seconds,
            **outcome.latency_metrics()}


# -- live_ucb_open ---------------------------------------------------------


class OpenLoop:
    """One measured open-loop pass against a booted in-process cluster."""

    def __init__(self, cluster: LiveCluster, trace: List[Request]):
        self.cluster = cluster
        self.trace = trace
        self.replies: Dict[int, dict] = {}
        self.late: List[float] = []
        self.outcome = Outcome(attempted=len(trace))
        self.errors = 0
        #: CPU seconds of the event-loop thread over the pass.
        self.loop_cpu = 0.0

    async def _one(self, request: Request, due: float) -> None:
        loop = asyncio.get_running_loop()
        try:
            reply = await self.cluster.master.serve_request(request)
        except Exception as exc:  # noqa: BLE001 - counted as an error
            self.errors += 1
            print(f"  # request {request.req_id} raised {exc!r}",
                  file=sys.stderr)
            return
        self.replies[request.req_id] = reply
        if reply.get("status") == "ok":
            self.outcome.add(loop.time() - due, request.demand,
                             is_dynamic(request))

    async def run(self) -> None:
        loop = asyncio.get_running_loop()
        tasks = []
        cpu0 = time.thread_time()
        t0 = loop.time() + 0.05
        base = self.trace[0].arrival_time
        for request in self.trace:
            due = t0 + request.arrival_time - base
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            self.late.append(loop.time() - due)
            tasks.append(loop.create_task(self._one(request, due)))
        await asyncio.wait_for(asyncio.gather(*tasks), SETTLE_TIMEOUT)
        self.loop_cpu = time.thread_time() - cpu0


async def boot_open(seed: int, traced: bool
                    ) -> Tuple[LiveCluster, List[float]]:
    """Boot ``BOOT_REPS`` clusters, keep the last; returns boot times."""
    boots = []
    cluster = None
    for rep in range(BOOT_REPS):
        if cluster is not None:
            await cluster.stop()
        t0 = time.perf_counter()
        cluster = LiveCluster(LiveClusterConfig(seed=seed, traced=traced))
        await cluster.start()
        boots.append(time.perf_counter() - t0)
    return cluster, boots


async def _open_pass(seed: int, seconds: float, traced: bool,
                     probe: bool) -> Tuple[OpenLoop, List[float], dict,
                                           Dict[str, float]]:
    trace = make_trace(seed, OPEN_RATE, seconds)
    cluster, boots = await boot_open(seed, traced)
    extra: Dict[str, float] = {}
    try:
        master = cluster.master
        gen = OpenLoop(cluster, trace)
        probe_task = None
        if probe:
            route_us = time_route(master.policy)
            lags: List[float] = []
            suspect_max = [0]

            async def lag_probe():
                loop = asyncio.get_running_loop()
                while True:
                    t = loop.time()
                    await asyncio.sleep(LAG_PROBE_S)
                    lags.append(loop.time() - t - LAG_PROBE_S)
                    suspect_max[0] = max(suspect_max[0], int(
                        master.table.suspect_array(master.clock.now).sum()))

            probe_task = asyncio.get_running_loop().create_task(lag_probe())
        try:
            await gen.run()
        finally:
            if probe_task is not None:
                probe_task.cancel()
                try:
                    await probe_task
                except asyncio.CancelledError:
                    pass
        if probe:
            extra = {
                "loop.lag_p99_ms": tail_ms(lags),
                "dispatch.route_us": route_us(),
                "loadd.suspect_max": suspect_max[0],
            }
            extra.update(span_layers(master.tracer.spans, gen.replies))
        stats = master.stats()
    finally:
        await cluster.stop()
    return gen, boots, stats, extra


def run_open_untraced(seed: int, seconds: float) -> RunResult:
    result = RunResult("live_ucb_open")
    gen, boots, stats, _ = asyncio.run(_open_pass(seed, seconds,
                                                  traced=False, probe=False))
    check_results(result, gen.trace, gen.replies, gen.errors,
                  stats["conservation"])
    late = percentile(gen.late, 99)
    result.metrics = {"setup_s": min(boots),
                      "peak_rss_mb": peak_rss_mb(),
                      **outcome_metrics(gen.outcome, gen.loop_cpu)}
    result.attempted = gen.outcome.attempted
    result.failed = gen.outcome.failed
    result.notes += gen.outcome.notes()
    result.notes.append("boots " + " ".join(f"{b:.3f}" for b in boots)
                        + f"; generator late p99 {late.describe()}; "
                        f"event-loop CPU {gen.loop_cpu:.3f}s")
    return result


def run_open_traced(seed: int, seconds: float) -> RunResult:
    result = RunResult("live_ucb_open")
    plain, _, _, _ = asyncio.run(_open_pass(seed, seconds, traced=False,
                                            probe=False))
    t0 = time.perf_counter()
    make_trace(seed, OPEN_RATE, seconds)
    trace_s = time.perf_counter() - t0
    gen, boots, stats, extra = asyncio.run(_open_pass(
        seed, seconds, traced=True, probe=True))
    check_results(result, gen.trace, gen.replies, gen.errors,
                  stats["conservation"])
    base = median_ms([d[0] for d in plain.outcome.done])
    traced = median_ms([d[0] for d in gen.outcome.done])
    result.metrics = {
        "setup.trace_s": trace_s,
        "setup.boot_s": min(boots),
        "gen.late_p99_ms": tail_ms(gen.late),
        "gen.conns": 0,
        "trace.overhead_frac": traced / base - 1.0,
        **reply_layers(gen.trace, gen.replies, stats),
        **extra,
    }
    result.attempted = gen.outcome.attempted
    result.failed = gen.outcome.failed
    return result


# -- live_ucb_http ---------------------------------------------------------


class HttpClient:
    """Keep-alive HTTP/1.1 client that never opens more than
    :data:`MAX_CONNECTIONS` connections over its lifetime."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.opened = 0
        self.streams: List[Tuple[asyncio.StreamReader,
                                 asyncio.StreamWriter]] = []

    async def connect(self) -> int:
        """Open one more connection; returns its index."""
        if self.opened >= MAX_CONNECTIONS:
            raise RuntimeError(
                f"client connection budget of {MAX_CONNECTIONS} spent")
        self.opened += 1
        self.streams.append(await asyncio.open_connection(self.host,
                                                          self.port))
        return len(self.streams) - 1

    async def get(self, conn: int, target: str) -> Tuple[int, bytes]:
        reader, writer = self.streams[conn]
        writer.write(f"GET {target} HTTP/1.1\r\nHost: {self.host}\r\n\r\n"
                     .encode("latin-1"))
        await writer.drain()
        status_line = await reader.readline()
        parts = status_line.split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ConnectionError(f"malformed status line {status_line!r}")
        length = 0
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return int(parts[1]), await reader.readexactly(length)

    async def close(self) -> None:
        for _, writer in self.streams:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        self.streams.clear()


_SERVE_LINE = re.compile(rb"master node 0: http://([\d.]+):(\d+)")


class Server:
    """``repro serve --slaves 2`` in its own session (process group)."""

    def __init__(self, seed: int):
        self.seed = seed
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.host = ""
        self.port = 0

    async def start(self) -> None:
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro", "serve", "--slaves", "2",
            "--seed", str(self.seed), cwd=str(ROOT),
            stdout=asyncio.subprocess.PIPE, start_new_session=True)
        while True:
            line = await asyncio.wait_for(self.proc.stdout.readline(), 60.0)
            if not line:
                raise RuntimeError("repro serve exited before serving "
                                   f"(rc={await self.proc.wait()})")
            found = _SERVE_LINE.search(line)
            if found:
                self.host = found.group(1).decode()
                self.port = int(found.group(2))
                return

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        found = re.search(r"VmHWM:\s+(\d+) kB", status)
        return int(found.group(1)) / 1024.0 if found else NOT_MEASURED

    async def stop(self) -> None:
        proc = self.proc
        if proc is None:
            return
        if proc.returncode is None:
            proc.send_signal(signal.SIGINT)
            try:
                await asyncio.wait_for(proc.wait(), 20.0)
            except asyncio.TimeoutError:
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        await proc.wait()
        self.proc = None


class ClosedLoop:
    """Two connections replaying the trace in order until time is up."""

    def __init__(self, client: HttpClient, trace: List[Request]):
        self.client = client
        self.trace = trace
        self.next = 0
        self.sent: List[Request] = []
        self.replies: Dict[int, dict] = {}
        self.overheads: List[float] = []
        self.outcome = Outcome()
        self.errors = 0
        self.elapsed = 0.0

    async def _worker(self, conn: int, stop_at: float) -> None:
        loop = asyncio.get_running_loop()
        while loop.time() < stop_at and self.next < len(self.trace):
            request = self.trace[self.next]
            self.next += 1
            self.sent.append(request)
            t0 = loop.time()
            try:
                status, body = await self.client.get(
                    conn, request_target(request))
            except (OSError, asyncio.IncompleteReadError) as exc:
                self.errors += 1
                print(f"  # request {request.req_id}: {exc!r}",
                      file=sys.stderr)
                return
            latency = loop.time() - t0
            reply = json.loads(body)
            self.replies[request.req_id] = reply
            if status == 200 and reply.get("status") == "ok":
                self.outcome.add(latency, request.demand, is_dynamic(request))
                self.overheads.append(latency - float(reply["response"]))

    async def run(self, seconds: float) -> None:
        loop = asyncio.get_running_loop()
        conns = [await self.client.connect()
                 for _ in range(MAX_CONNECTIONS)]
        t0 = loop.time()
        await asyncio.gather(*(self._worker(c, t0 + seconds)
                               for c in conns))
        self.elapsed = loop.time() - t0
        self.outcome.attempted = len(self.sent)


async def _http_pass(seed: int, seconds: float, spans: bool):
    trace = make_trace(seed, OPEN_RATE, seconds * 4)
    boots = []
    server = None
    try:
        for rep in range(BOOT_REPS):
            if server is not None:
                await server.stop()
            server = Server(seed)
            t0 = time.perf_counter()
            await server.start()
            boots.append(time.perf_counter() - t0)
        client = HttpClient(server.host, server.port)
        try:
            gen = ClosedLoop(client, trace)
            await gen.run(seconds)
            status, body = await client.get(0, "/control/stats")
            stats = json.loads(body)
            span_list = None
            if spans:
                status, body = await client.get(0, "/control/spans")
                span_list = [json.loads(line) for line in
                             body.decode().splitlines()[1:] if line]
        finally:
            await client.close()
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            await server.stop()
    return gen, boots, stats, rss, span_list, client.opened


def _http_checks(result: RunResult, gen: ClosedLoop, stats: dict,
                 opened: int) -> None:
    check_results(result, gen.sent, gen.replies, gen.errors,
                  stats["conservation"])
    result.check(opened <= MAX_CONNECTIONS,
                 f"client opened {opened} connections")


def run_http_untraced(seed: int, seconds: float) -> RunResult:
    result = RunResult("live_ucb_http")
    gen, boots, stats, rss, _, opened = asyncio.run(
        _http_pass(seed, seconds, spans=False))
    _http_checks(result, gen, stats, opened)
    result.metrics = {"setup_s": min(boots),
                      "peak_rss_mb": rss,
                      **outcome_metrics(gen.outcome, gen.elapsed)}
    result.attempted = gen.outcome.attempted
    result.failed = gen.outcome.failed
    result.notes += gen.outcome.notes()
    result.notes.append("boots " + " ".join(f"{b:.3f}" for b in boots))
    return result


def run_http_traced(seed: int, seconds: float) -> RunResult:
    result = RunResult("live_ucb_http")
    gen, boots, stats, _, spans, opened = asyncio.run(
        _http_pass(seed, seconds, spans=True))
    _http_checks(result, gen, stats, opened)
    result.metrics = {
        "setup.boot_s": min(boots),
        "gen.conns": opened,
        "http.overhead_p50_ms": median_ms(gen.overheads),
        "http.overhead_p99_ms": tail_ms(gen.overheads),
        "loadd.suspect_max": sum(stats["suspect"]),
        **reply_layers(gen.sent, gen.replies, stats),
        **span_layers(spans, gen.replies),
    }
    result.notes.append("repro serve always traces: trace.overhead_frac "
                        "and the in-process probes are not measured here")
    result.attempted = gen.outcome.attempted
    result.failed = gen.outcome.failed
    return result


def run_untraced(name: str, seed: int, seconds: float) -> RunResult:
    if name == "live_ucb_open":
        return run_open_untraced(seed, seconds)
    return run_http_untraced(seed, seconds)


def run_traced(name: str, seed: int, seconds: float) -> RunResult:
    if name == "live_ucb_open":
        return run_open_traced(seed, seconds)
    return run_http_traced(seed, seconds)
