"""The live master: HTTP front end running the paper's scheduler for real.

A :class:`MasterServer` is one accepting node of the cluster.  It glues
together, on a single asyncio event loop:

* an HTTP/1.1 listener (``GET /req``) where clients submit requests;
* the *simulator's own* dispatch policy —
  :class:`~repro.core.policies.FrontEndMSPolicy`, reservation controller
  and demand sampler included — fed by a :class:`~repro.sim.monitor
  .LoadView` over the load table the UDP heartbeats feed;
* a local :class:`~repro.live.node.WorkerPool` executing requests the
  policy keeps on this master (static always; dynamic when the theta'_2
  gate admits and this master wins the RSRC comparison);
* one persistent framed-TCP :class:`PeerConnection` per remote node for
  low-overhead remote CGI ("a persistent connection between two nodes is
  kept alive ... to minimize the communication overhead");
* an optional :class:`~repro.obs.Tracer` bound to the master's
  :class:`~repro.live.kernel.LiveClock`, emitting the same span stream the
  simulator emits, so ``repro trace --audit`` proves the same invariants
  over live traffic.

Span discipline
---------------
Every span is recorded on the event-loop thread, reading the monotonic
clock at append time, so the stream satisfies the auditor's causality
check by construction.  Remote lifecycle spans (``admit``/``start``) are
recorded when the peer's frames arrive; TCP ordering guarantees they
precede the ``done`` that resolves the awaiting handler.  Failure paths
mirror the simulator: a request refused before admission records
``deny`` + ``drop``; one abandoned after admission (peer death, timeout)
records ``abort`` + ``drop``; both unwind the policy's in-flight
bookkeeping through :meth:`~repro.core.policies.Policy.on_abort` without
feeding the response-time estimators.  A cancelled handler (client gone,
shutdown) ends the same way before the cancellation propagates.

Outcomes land on the simulator's request ledger
(:class:`~repro.sim.metrics.MetricsCollector`): completions as rows with
the measured ``(cpu, io)`` split, drops under ``denied`` and ``aborted``.
A row's arrival and finish are the clock reads of its ``arrive`` and
``complete`` spans, so the auditor's stretch cross-check holds on live.
``/control/stats`` reads the ledger's O(1)-memory
:meth:`~repro.sim.metrics.MetricsCollector.summary`, and ``/control/spans``
carries it in its header beside the conservation ledger.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Callable, Dict, Iterable, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.core.policies import FrontEndMSPolicy, Route
from repro.core.sampling import DemandSampler
from repro.live import protocol
from repro.live.kernel import BusyMeter, LiveClock, LoadReporter, calibrate
from repro.live.loadd import HeartbeatReceiver
from repro.live.node import CGIService, WorkerPool
from repro.obs.trace import (
    ABORT,
    ADMIT,
    ARRIVE,
    COMPLETE,
    CONTROL,
    DENY,
    DISPATCH,
    DROP,
    START,
    SpanLog,
    Tracer,
    iter_jsonl,
)
from repro.sim.config import MonitorConfig
from repro.sim.metrics import MetricsCollector
from repro.sim.monitor import LoadTable, LoadView
from repro.workload.request import Request, RequestKind


class PeerError(ConnectionError):
    """A remote-CGI call failed (connection lost or peer-reported error)."""


class RemoteCall:
    """One in-flight remote-CGI request on a peer connection."""

    __slots__ = ("req_id", "future", "admitted", "started")

    def __init__(self, req_id: int) -> None:
        self.req_id = req_id
        self.future: asyncio.Future = (
            asyncio.get_running_loop().create_future())
        self.admitted = False
        self.started = False


#: What converting a hostile frame's fields raises: an unhashable ``id``
#: (``TypeError``), a non-numeric ``cpu``/``io``/``seq`` (``TypeError``,
#: ``ValueError``) or one out of range (``OverflowError``).
_MALFORMED = (TypeError, ValueError, OverflowError)


class PeerConnection:
    """Persistent framed-TCP channel from a master to one executing node.

    The reader task translates the peer's lifecycle frames into span
    records on the master's tracer and resolves the per-request futures
    the dispatching coroutines await.  A broken connection fails every
    outstanding call and marks the node dead in the load table until
    :meth:`connect` succeeds again, which restarts the node's heartbeat
    probation.
    """

    def __init__(self, master: "MasterServer", node_id: int,
                 host: str, port: int) -> None:
        self.master = master
        self.node_id = node_id
        self.host = host
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.pending: Dict[int, RemoteCall] = {}
        self._reader_task: Optional[asyncio.Task] = None
        self.submitted = 0
        self.completed = 0
        #: Frames refused for a field that does not convert: dropped, or
        #: for a ``done`` frame, failing that call alone.
        self.malformed = 0

    @property
    def connected(self) -> bool:
        return self.writer is not None

    async def connect(self) -> None:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        protocol.send_message(writer, protocol.hello(self.master.node_id))
        await writer.drain()
        await protocol.expect_hello(reader)
        self.reader, self.writer = reader, writer
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop(), name=f"peer-{self.node_id}")
        # Only a returning node restarts probation; on first contact the
        # heartbeats a new node already sent still count.
        table = self.master.table
        if not table.alive[self.node_id]:
            table.set_alive(self.node_id, True)
            table.restart_probation(self.node_id)

    def submit(self, request: Request) -> RemoteCall:
        """Ship one dynamic request; returns the call to await."""
        if self.writer is None:
            raise PeerError(f"node {self.node_id} not connected")
        call = RemoteCall(request.req_id)
        self.pending[request.req_id] = call
        protocol.send_message(self.writer, {
            "op": "cgi", "id": request.req_id,
            "cpu": request.cpu_demand, "io": request.io_demand,
        })
        self.submitted += 1
        return call

    def forget(self, req_id: int) -> None:
        """Stop tracking a call (timeout path): late frames are ignored."""
        self.pending.pop(req_id, None)

    async def _read_loop(self) -> None:
        master = self.master
        try:
            while True:
                assert self.reader is not None
                msg = await protocol.read_message(self.reader)
                if msg is None:
                    break
                op = msg.get("op")
                if op == "role_ok":
                    # Control-plane ROLE frame acknowledged by the node
                    # (not request-scoped, so handled before the
                    # per-request call lookup).
                    try:
                        seq = int(msg.get("seq", 0))
                    except _MALFORMED:
                        self.malformed += 1
                        continue
                    master._on_role_ack(self.node_id,
                                        str(msg.get("role", "")), seq)
                    continue
                try:
                    call = self.pending.get(msg.get("id", -1))
                except TypeError:           # an unhashable id
                    self.malformed += 1
                    continue
                if call is None:
                    continue
                if op == "admit":
                    call.admitted = True
                    master._record(ADMIT, call.req_id, self.node_id,
                                   (False,))
                elif op == "start":
                    call.started = True
                    master._record(START, call.req_id, self.node_id, (1,))
                elif op == "done":
                    self.pending.pop(call.req_id, None)
                    try:
                        used = (float(msg.get("cpu", 0.0)),
                                float(msg.get("io", 0.0)))
                    except _MALFORMED:
                        # Fail this call alone; the channel keeps serving.
                        self.malformed += 1
                        if not call.future.done():
                            call.future.set_exception(
                                PeerError("malformed done frame"))
                        continue
                    self.completed += 1
                    if not call.future.done():
                        call.future.set_result(used)
                elif op == "error":
                    self.pending.pop(call.req_id, None)
                    if not call.future.done():
                        call.future.set_exception(
                            PeerError(str(msg.get("reason", "peer error"))))
        except (protocol.ProtocolError, ConnectionResetError):
            pass
        finally:
            self.writer = None
            self.reader = None
            # A connection replaced by a reconnect says nothing about the
            # node: only the installed one may mark it dead.
            if master.peers.get(self.node_id) is self:
                master.table.set_alive(self.node_id, False)
            for call in list(self.pending.values()):
                if not call.future.done():
                    call.future.set_exception(
                        PeerError(f"connection to node {self.node_id} lost"))
            self.pending.clear()

    async def close(self) -> None:
        writer = self.writer
        self.writer = None
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


_HTTP_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
                 431: "Request Header Fields Too Large",
                 503: "Service Unavailable"}

#: Caps on one request's header block: past either, the reply is 431.
MAX_HEADER_LINES = 100
MAX_HEADER_BYTES = 16 * 1024


class MasterServer:
    """One live accepting node: HTTP in, scheduled execution out."""

    def __init__(self, node_id: int, num_nodes: int, num_masters: int = 1,
                 workers: int = 2,
                 monitor: Optional[MonitorConfig] = None,
                 sampler: Optional[DemandSampler] = None,
                 seed: int = 0,
                 request_timeout: float = 30.0,
                 host: str = "127.0.0.1",
                 traced: bool = True) -> None:
        if not 0 <= node_id < num_masters:
            raise ValueError("the master's node_id must be a master id")
        self.node_id = node_id
        self.num_nodes = num_nodes
        self.host = host
        self.request_timeout = request_timeout
        self.clock = LiveClock()
        self.monitor = monitor or MonitorConfig()
        self.table = LoadTable(num_nodes, self.monitor, clock=self.clock)
        self.receiver = HeartbeatReceiver(self.table)
        self.view = LoadView(self.table, self.clock,
                             self.receiver.active_requests)
        self.policy = FrontEndMSPolicy(
            num_nodes, num_masters, accept_node=node_id,
            sampler=sampler if sampler is not None else DemandSampler(),
            seed=seed)
        self.tracer: Optional[Tracer] = (
            Tracer(self.clock, SpanLog()) if traced else None)
        if self.tracer is not None:
            self.policy.trace_decisions = True
        self.meter = BusyMeter(capacity=workers, now=self.clock.now)
        self.pool = WorkerPool(node_id, workers, self.meter)
        self.cgi_service = CGIService(node_id, self.pool, host=host)
        self.peers: Dict[int, PeerConnection] = {}
        #: The request ledger (the simulator's collector, reused).
        self.metrics = MetricsCollector()
        #: ``serve_request`` calls still running.
        self._serving = 0
        #: (node_id, role) pairs for acknowledged control-plane ROLE frames.
        self.role_acks: List[Tuple[int, str]] = []
        self.http_connections = 0
        self.http_port: Optional[int] = None
        self.udp_port: Optional[int] = None
        self.cgi_port: Optional[int] = None
        self._udp_transport = None
        self._http_server: Optional[asyncio.base_events.Server] = None
        self._reporter: Optional[LoadReporter] = None

    # -- lifecycle --------------------------------------------------------

    async def start(self, peer_udp_ports: Tuple[Tuple[str, int], ...] = ()
                    ) -> None:
        """Bind every endpoint (UDP heartbeats, CGI peer port, HTTP)."""
        calibrate()
        self._udp_transport, _ = await asyncio.get_running_loop(
            ).create_datagram_endpoint(lambda: self.receiver,
                                       local_addr=(self.host, 0))
        self.udp_port = self._udp_transport.get_extra_info("sockname")[1]
        self.cgi_port = await self.cgi_service.start()
        self._http_server = await asyncio.start_server(
            self._handle_http, self.host, 0)
        self.http_port = self._http_server.sockets[0].getsockname()[1]
        # The master's own load reaches its table by direct call (and its
        # peer masters' tables over UDP, like any other node's heartbeat).
        self._reporter = LoadReporter(
            self.node_id, self.meter, self.clock,
            udp_targets=peer_udp_ports,
            local_observe=lambda payload: self.receiver.observe_datagram(
                payload, self.clock.now),
            cfg=self.monitor)
        await self._reporter.start()

    async def connect_peer(self, node_id: int, host: str, port: int) -> None:
        """Open (or re-open) the persistent CGI channel to one node."""
        peer = PeerConnection(self, node_id, host, port)
        await peer.connect()
        old = self.peers.get(node_id)
        self.peers[node_id] = peer
        if old is not None:
            await old.close()

    async def wait_healthy(self, timeout: float = 10.0) -> None:
        """Block until every node is connected, heard, and off probation."""
        deadline = self.clock.now + timeout
        while True:
            unconnected = [i for i in range(self.num_nodes)
                           if i != self.node_id and not (
                               i in self.peers and self.peers[i].connected)]
            if not unconnected and self.view.all_healthy():
                return
            if self.clock.now >= deadline:
                break
            await asyncio.sleep(0.05)
        suspect = [i for i in range(self.num_nodes)
                   if self.view.is_suspect(i)]
        dead = [i for i in range(self.num_nodes) if not self.view.is_alive(i)]
        raise TimeoutError(
            f"cluster did not become healthy within {timeout}s "
            f"(unconnected nodes: {unconnected}, suspect: {suspect}, dead: "
            f"{dead})")

    async def stop(self) -> None:
        for peer in list(self.peers.values()):
            await peer.close()
        self.peers.clear()
        if self._http_server is not None:
            self._http_server.close()
            await self._http_server.wait_closed()
            self._http_server = None
        if self._reporter is not None:
            await self._reporter.stop()
            self._reporter = None
        await self.cgi_service.stop()
        if self._udp_transport is not None:
            self._udp_transport.close()
            self._udp_transport = None
        self.pool.shutdown()

    # -- span + ledger helpers --------------------------------------------

    def _record(self, kind: str, req_id: int, node_id: int,
                data: Optional[tuple] = None,
                t: Optional[float] = None) -> None:
        """Append one span, stamped ``t`` when the caller already read the
        clock for the ledger, else now."""
        if self.tracer is not None:
            self.tracer.spans.append((self.clock.now if t is None else t,
                                      kind, req_id, node_id, data))

    def _on_role_ack(self, node_id: int, role: str, seq: int) -> None:
        """A node acknowledged a control-plane ROLE frame."""
        self.role_acks.append((node_id, role))
        self._record(CONTROL, -1, node_id, ("role_ack", node_id, role, seq))

    def conservation(self) -> Dict[str, int]:
        """The ledger's balance (for ``audit_spans``): running handlers are
        ``in_flight``, nothing is ever pending, so a request that left
        :meth:`serve_request` without a terminal span unbalances it."""
        return self.metrics.conservation(self._serving, 0)

    def stats(self) -> dict:
        res = self.policy.reservation
        drops = self.metrics.drops
        metrics = self.metrics.summary()
        metrics["denied"] = drops.get("denied", 0)
        metrics["aborted"] = drops.get("aborted", 0)
        return {
            "node": self.node_id,
            "now": self.clock.now,
            "conservation": self.conservation(),
            "metrics": metrics,
            "spans": len(self.tracer.spans) if self.tracer else 0,
            "span_bytes": self.tracer.spans.nbytes if self.tracer else 0,
            "heartbeats": self.receiver.heartbeats,
            "heartbeats_rejected": self.receiver.rejected,
            "cpu_idle": [float(x) for x in self.table.cpu_idle],
            "disk_avail": [float(x) for x in self.table.disk_avail],
            "suspect": [bool(x)
                        for x in self.table.suspect_array(self.clock.now)],
            "reservation": None if res is None else {
                "effective_cap": res.effective_cap,
                "master_fraction": res.master_fraction,
            },
            "peers": {str(nid): {"connected": peer.connected,
                                 "submitted": peer.submitted,
                                 "completed": peer.completed}
                      for nid, peer in self.peers.items()},
            "pool_completed": self.pool.completed,
        }

    # -- the request path --------------------------------------------------

    async def serve_request(self, request: Request) -> dict:
        """Accept, schedule, and execute one request; returns the result
        payload (also usable directly, without HTTP, from tests)."""
        t_arrive = self.clock.now
        self.metrics.submitted += 1
        self._serving += 1
        try:
            self._record(ARRIVE, request.req_id, -1,
                         (int(request.kind), request.demand), t_arrive)
            self.policy.last_decision = None
            try:
                route = self.policy.route(request, self.view)
            except RuntimeError as exc:
                return self._deny(request, -1, f"no-route: {exc}")
            node = route.node_id
            self._record(
                DISPATCH, request.req_id, node,
                (route.remote, self.policy.is_master(node))
                + (self.policy.last_decision or (None,) * 5))
            if node == self.node_id:
                return await self._execute_local(request, route, t_arrive)
            return await self._execute_remote(request, route, t_arrive)
        finally:
            self._serving -= 1

    def _deny(self, request: Request, node: int, reason: str) -> dict:
        """Pre-admission refusal: ``deny`` then ``drop`` (simulator idiom);
        a request already routed to ``node`` is unwound from the policy."""
        self._record(DENY, request.req_id, node, (reason,))
        self._record(DROP, request.req_id, node, (reason,))
        self.metrics.drop("denied")
        if node >= 0:
            self.policy.on_abort(request, node)
        return {"status": "denied", "id": request.req_id, "reason": reason}

    def _abort(self, request: Request, node: int, reason: str) -> dict:
        """Post-admission failure: ``abort`` + ``drop``, policy unwound."""
        self._record(ABORT, request.req_id, node, (reason,))
        self._record(DROP, request.req_id, node, (reason,))
        self.metrics.drop("aborted")
        self.policy.on_abort(request, node)
        return {"status": "aborted", "id": request.req_id, "reason": reason}

    async def _execute_local(self, request: Request, route: Route,
                             t_arrive: float) -> dict:
        node = self.node_id
        backlogged = self.pool.full
        self._record(ADMIT, request.req_id, node, (backlogged,))

        def on_start() -> None:
            self._record(START, request.req_id, node, (1,))

        try:
            cpu_used, io_used = await self.pool.run(
                request.cpu_demand, request.io_demand, on_start=on_start)
        except asyncio.CancelledError:
            self._abort(request, node, "cancelled")
            raise
        return self._complete(request, route, t_arrive, cpu_used, io_used)

    async def _execute_remote(self, request: Request, route: Route,
                              t_arrive: float) -> dict:
        node = route.node_id
        peer = self.peers.get(node)
        if peer is None or not peer.connected:
            return self._deny(request, node, "peer-unavailable")
        try:
            call = peer.submit(request)
        except PeerError:
            return self._deny(request, node, "peer-unavailable")
        try:
            cpu_used, io_used = await asyncio.wait_for(
                call.future, timeout=self.request_timeout)
        except asyncio.CancelledError:
            self._fail_remote(request, peer, call, "cancelled")
            raise
        except (PeerError, asyncio.TimeoutError) as exc:
            reason = ("timeout" if isinstance(exc, asyncio.TimeoutError)
                      else str(exc))
            return self._fail_remote(request, peer, call, reason)
        return self._complete(request, route, t_arrive, cpu_used, io_used)

    def _fail_remote(self, request: Request, peer: PeerConnection,
                     call: RemoteCall, reason: str) -> dict:
        """A remote call ended without ``done``: late frames are ignored,
        and the request is aborted if the peer admitted it, else denied."""
        peer.forget(request.req_id)
        if call.admitted or call.started:
            return self._abort(request, peer.node_id, reason)
        return self._deny(request, peer.node_id, reason)

    def _complete(self, request: Request, route: Route, t_arrive: float,
                  cpu_used: float, io_used: float) -> dict:
        node = route.node_id
        on_master = self.policy.is_master(node)
        t_finish = self.clock.now
        self._record(COMPLETE, request.req_id, node,
                     (request.demand, route.remote, on_master), t_finish)
        response = t_finish - t_arrive
        self.policy.on_complete(request, response, on_master, node)
        self.metrics.record(request, t_arrive, t_finish, node, route.remote,
                            on_master, cpu_used, io_used)
        return {
            "status": "ok", "id": request.req_id, "node": node,
            "remote": route.remote, "on_master": on_master,
            "response": response, "demand": request.demand,
            "cpu": cpu_used, "io": io_used,
        }

    # -- HTTP front end ----------------------------------------------------

    async def _handle_http(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        self.http_connections += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:      # longer than the reader's limit
                    await self._respond(writer, 400,
                                        {"error": "request line too long"},
                                        close=True)
                    break
                if not line or line in (b"\r\n", b"\n"):
                    break
                try:
                    method, target, _version = (
                        line.decode("latin-1").split(None, 2))
                except ValueError:
                    await self._respond(writer, 400,
                                        {"error": "bad request line"},
                                        close=True)
                    break
                headers = await self._read_headers(reader)
                if headers is None:
                    await self._respond(writer, 431,
                                        {"error": "header block too large"},
                                        close=True)
                    break
                close = any(h.lower().startswith(b"connection:")
                            and b"close" in h.lower() for h in headers)
                if method.upper() != "GET":
                    await self._respond(writer, 400,
                                        {"error": "GET only"}, close=True)
                    break
                status, payload, lines = await self._dispatch_http(target)
                await self._respond(writer, status, payload, lines, close)
                if close:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    async def _read_headers(reader: asyncio.StreamReader
                            ) -> Optional[List[bytes]]:
        """The request's header lines, or None once the block passes
        :data:`MAX_HEADER_LINES` or :data:`MAX_HEADER_BYTES`, or one line
        passes the reader's limit."""
        headers: List[bytes] = []
        size = 0
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                return None
            if line in (b"\r\n", b"\n", b""):
                return headers
            headers.append(line)
            size += len(line)
            if len(headers) > MAX_HEADER_LINES or size > MAX_HEADER_BYTES:
                return None

    async def _dispatch_http(self, target: str):
        """Route one HTTP target; returns (status, json_payload, lines),
        ``lines`` as :meth:`_respond` takes it."""
        try:
            parts = urlsplit(target)
        except ValueError:              # e.g. "//[": an unclosed IPv6 host
            return 400, {"error": "bad request target"}, None
        path = parts.path
        if path == "/healthz":
            return 200, {"status": "ok", "node": self.node_id}, None
        if path == "/control/stats":
            return 200, self.stats(), None
        if path == "/control/spans":
            if self.tracer is None:
                return 404, {"error": "tracing disabled"}, None
            # A fixed copy: spans recorded while the body streams stay out.
            spans = self.tracer.spans.copy()
            meta = {"source": "repro.live", "node": self.node_id,
                    "conservation": self.conservation(),
                    "summary": self.metrics.summary()}
            return 200, None, lambda: iter_jsonl(spans, meta)
        if path == "/req":
            try:
                request = self._parse_request(parse_qs(parts.query))
            except (KeyError, ValueError, TypeError) as exc:
                return 400, {"error": f"bad request params: {exc}"}, None
            result = await self.serve_request(request)
            status = 200 if result.get("status") == "ok" else 503
            return status, result, None
        return 404, {"error": f"unknown path {path!r}"}, None

    def _parse_request(self, params: Dict[str, list]) -> Request:
        def one(key: str, default: Optional[str] = None) -> str:
            vals = params.get(key)
            if not vals:
                if default is None:
                    raise KeyError(key)
                return default
            return vals[0]

        def demand(key: str) -> float:
            # inf would hold a worker forever, and NaN would turn the
            # ledger's stretch sums NaN for the rest of the run.
            value = float(one(key, "0"))
            if not math.isfinite(value):
                raise ValueError(f"{key} demand must be finite")
            return value

        kind_raw = one("kind", "static").lower()
        kind = (RequestKind.DYNAMIC if kind_raw in ("1", "dynamic", "cgi")
                else RequestKind.STATIC)
        return Request(
            req_id=int(one("id")),
            arrival_time=self.clock.now,
            kind=kind,
            cpu_demand=demand("cpu"),
            io_demand=demand("io"),
            type_key=one("type", "static" if kind is RequestKind.STATIC
                         else "cgi:balanced"),
        )

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: Optional[dict],
                       lines: Optional[Callable[[], Iterable[str]]] = None,
                       close: bool = False) -> None:
        """Write one response: ``payload`` as JSON, or else the text that
        ``lines()`` yields, a newline after each piece, one drain a piece.
        ``lines`` is called twice: once to size the body.  ``close`` says
        the connection ends after this response."""
        if lines is None:
            body = json.dumps(payload, separators=(",", ":")).encode()
            writer.write(self._head(status, "application/json", len(body),
                                    close) + body)
        else:
            # JSON text is ASCII (it escapes the rest): a character a byte.
            size = sum(len(piece) + 1 for piece in lines())
            writer.write(self._head(status, "text/plain", size, close))
            for piece in lines():
                writer.write((piece + "\n").encode())
                await writer.drain()
        await writer.drain()

    @staticmethod
    def _head(status: int, ctype: str, size: int, close: bool) -> bytes:
        return (f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, 'OK')}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {size}\r\n"
                f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n"
                ).encode("latin-1")
