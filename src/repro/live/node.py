"""The per-node execution substrate: worker pool + framed remote-CGI service.

Every node of the live cluster — slave or master — owns one
:class:`WorkerPool`: ``workers`` long-lived threads, the live analogue of
the simulator's per-node multiprogramming level.  The pool realises
request demands through the calibrated burn/sleep kernel, whose burn
releases the GIL, so a running CGI does not stall the node's event loop.
A local request crosses threads once each way: the loop hands the job to
a thread through one queue, and the thread reports back with one
``call_soon_threadsafe``.  A slot is held from that hand-off until the
thread returns, even when the caller was cancelled in between, and the
measured busy seconds go to the node's
:class:`~repro.live.kernel.BusyMeter` (which the load daemon turns into
the CPU-idle/disk-avail heartbeats the RSRC predictor consumes).

On top of the pool, :class:`CGIService` exposes the node to its peers: a
TCP server speaking the length-prefixed protocol of
:mod:`repro.live.protocol`.  For each ``cgi`` frame it immediately acks
``admit``, emits ``start`` when a worker picks the request up, and
reports ``done`` with the measured CPU/disk seconds (feedback for the
master's online demand sampler).

A slave process (:func:`run_slave`, spawned by ``repro serve`` /
``repro loadgen --spawn``) is a CGI service plus a heartbeat daemon
pointed at every master's UDP port.  On startup it prints one
machine-readable ``READY`` line so the parent can discover the
OS-assigned port; it exits when the parent disappears (orphan watchdog)
or on SIGTERM.
"""

from __future__ import annotations

import asyncio
import os
import queue
import sys
import threading
from collections import deque
from typing import Callable, Deque, Optional, Sequence, Tuple, Union

from repro.live import protocol
from repro.live.kernel import (
    BusyMeter,
    LiveClock,
    LoadReporter,
    calibrate,
    run_cgi,
)
from repro.sim.config import MonitorConfig

#: Startup handshake line printed by a slave process on stdout.
READY_PREFIX = "REPRO-SLAVE-READY"


#: What a worker thread reports: measured ``(cpu, io)`` or the error.
_Outcome = Union[Tuple[float, float], Exception]


class _Job:
    """One demand on its way through a :class:`WorkerPool`."""

    __slots__ = ("cpu", "io", "on_start", "future", "backlogged")

    def __init__(self, cpu: float, io: float,
                 on_start: Optional[Callable[[], None]],
                 future: "asyncio.Future[Tuple[float, float]]") -> None:
        self.cpu = cpu
        self.io = io
        self.on_start = on_start
        self.future = future
        self.backlogged = False


class WorkerPool:
    """Bounded execution of request demands on real worker threads.

    ``workers`` long-lived threads read one :class:`queue.SimpleQueue`;
    the rest of the pool lives on the event loop.  A job takes a slot
    (``busy``) when it is handed to a thread and waits in the FIFO
    ``backlog`` while every slot is taken.  Its thread reports the result
    with one ``call_soon_threadsafe``, and on that callback the loop frees
    the slot and hands the next backlogged job over.
    """

    def __init__(self, node_id: int, workers: int, meter: BusyMeter):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.node_id = node_id
        self.workers = workers
        self.meter = meter
        #: Jobs handed to a thread whose result has not come back.
        self.busy = 0
        #: Jobs waiting for a slot, oldest first.
        self.backlog: Deque[_Job] = deque()
        self.completed = 0
        self._closed = False
        self._jobs: "queue.SimpleQueue[Optional[_Job]]" = queue.SimpleQueue()
        self._threads = [
            threading.Thread(target=self._work, name=f"cgi-{node_id}-{i}",
                             daemon=True)
            for i in range(workers)]
        for thread in self._threads:
            thread.start()

    @property
    def full(self) -> bool:
        """Every slot is taken: a job submitted now is backlogged."""
        return self.busy >= self.workers

    async def run(self, cpu_seconds: float, io_seconds: float,
                  on_start: Optional[Callable[[], None]] = None
                  ) -> Tuple[float, float]:
        """Execute one demand; returns measured ``(cpu, io)`` seconds.

        ``on_start`` fires (synchronously, on the event loop) the moment
        the job is handed to a thread — the live "left the backlog"
        signal.  A caller cancelled while its job is backlogged withdraws
        the job, so it never runs; one cancelled while its job runs
        leaves the slot held until the thread returns.
        """
        if self._closed:
            raise RuntimeError("worker pool is shut down")
        job = _Job(cpu_seconds, io_seconds, on_start,
                   asyncio.get_running_loop().create_future())
        self.meter.begin()
        if self.full:
            job.backlogged = True
            self.backlog.append(job)
        else:
            self._hand(job)
        try:
            return await job.future
        except asyncio.CancelledError:
            if job.backlogged:
                self._withdraw(job)
            raise

    def _hand(self, job: _Job) -> None:
        self.busy += 1
        self._jobs.put(job)
        if job.on_start is not None:
            job.on_start()

    def _withdraw(self, job: _Job) -> None:
        job.backlogged = False
        self.backlog.remove(job)
        self.meter.end()

    def _work(self) -> None:
        """Worker thread: run jobs until the shutdown sentinel."""
        while True:
            job = self._jobs.get()
            if job is None:
                return
            outcome: _Outcome
            try:
                outcome = run_cgi(job.cpu, job.io)
            except Exception as exc:    # delivered to the caller
                outcome = exc
            try:
                job.future.get_loop().call_soon_threadsafe(
                    self._finish, job, outcome)
            except RuntimeError:        # the loop closed while the job ran
                pass

    def _finish(self, job: _Job, outcome: _Outcome) -> None:
        """On the loop: the job's thread returned; free its slot."""
        self.busy -= 1
        self.meter.end()
        if isinstance(outcome, Exception):
            if not job.future.done():   # not cancelled by its caller
                job.future.set_exception(outcome)
        else:
            self.meter.add(*outcome)
            self.completed += 1
            if not job.future.done():
                job.future.set_result(outcome)
        while self.backlog and not self.full:
            nxt = self.backlog.popleft()
            nxt.backlogged = False
            self._hand(nxt)

    def shutdown(self) -> None:
        """Cancel backlogged jobs; each thread exits after its current job."""
        if self._closed:
            return
        self._closed = True
        for job in list(self.backlog):
            self._withdraw(job)
            job.future.cancel()
        for _ in self._threads:
            self._jobs.put(None)


class CGIService:
    """Serve remote-CGI frames from peer masters on the node's pool."""

    def __init__(self, node_id: int, pool: WorkerPool,
                 host: str = "127.0.0.1"):
        self.node_id = node_id
        self.pool = pool
        self.host = host
        self.port: Optional[int] = None
        self.server: Optional[asyncio.base_events.Server] = None
        self.requests_served = 0
        #: Role as announced by the control plane ("slave" until a ROLE
        #: frame says otherwise); informational — execution is
        #: role-agnostic.
        self.role = "slave"
        self.role_changes = 0

    async def start(self) -> int:
        """Bind the TCP endpoint; returns the assigned port."""
        self.server = await asyncio.start_server(
            self._handle_conn, self.host, 0)
        self.port = self.server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
            self.server = None

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        lock = asyncio.Lock()          # serialises write+drain pairs
        tasks = set()
        try:
            await protocol.expect_hello(reader)
            protocol.send_message(writer, protocol.hello(self.node_id))
            await writer.drain()
            while True:
                msg = await protocol.read_message(reader)
                if msg is None:
                    break
                op = msg.get("op")
                if op == "cgi":
                    if not isinstance(msg.get("id"), int):
                        # The master numbers every call; without an id
                        # no reply could reach it.  Refuse this frame
                        # and keep serving the connection.
                        async with lock:
                            protocol.send_message(
                                writer, {"op": "error", "id": None,
                                         "reason": "cgi frame without an "
                                                   "integer id"})
                            await writer.drain()
                        continue
                    protocol.send_message(
                        writer, {"op": "admit", "id": msg["id"]})
                    task = asyncio.get_running_loop().create_task(
                        self._execute(msg, writer, lock))
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
                elif op == "ping":
                    async with lock:
                        protocol.send_message(
                            writer, {"op": "pong", "id": msg.get("id", 0)})
                        await writer.drain()
                elif op == "role":
                    # Control-plane role transition (repro.control).
                    # Execution is role-agnostic — in-flight CGI work
                    # carries on (graceful role drain) — the node just
                    # records its new role and acknowledges so the
                    # master's trace shows the transition was observed.
                    self.role = str(msg.get("role", self.role))
                    self.role_changes += 1
                    async with lock:
                        protocol.send_message(
                            writer, {"op": "role_ok",
                                     "node": self.node_id,
                                     "role": self.role,
                                     "seq": msg.get("seq", 0)})
                        await writer.drain()
                # Unknown ops are ignored: forward compatibility.
        except (protocol.ProtocolError, ConnectionResetError,
                asyncio.IncompleteReadError):
            pass
        finally:
            for task in tasks:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _execute(self, msg: dict, writer: asyncio.StreamWriter,
                       lock: asyncio.Lock) -> None:
        req_id = msg["id"]
        try:
            def on_start() -> None:
                # A bare write is safe: a frame is appended to the
                # transport buffer atomically (no await inside).
                protocol.send_message(writer, {"op": "start", "id": req_id})

            cpu_used, io_used = await self.pool.run(
                float(msg.get("cpu", 0.0)), float(msg.get("io", 0.0)),
                on_start=on_start)
            self.requests_served += 1
            async with lock:
                protocol.send_message(
                    writer, {"op": "done", "id": req_id,
                             "cpu": cpu_used, "io": io_used})
                await writer.drain()
        except asyncio.CancelledError:
            raise
        except (ConnectionResetError, BrokenPipeError):
            pass
        except Exception as exc:   # report, don't kill the connection task
            try:
                async with lock:
                    protocol.send_message(
                        writer, {"op": "error", "id": req_id,
                                 "reason": repr(exc)})
                    await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass


def parse_udp_targets(spec: str) -> list:
    """Parse ``host:port,host:port`` into address tuples.

    >>> parse_udp_targets("127.0.0.1:9001,localhost:9002")
    [('127.0.0.1', 9001), ('localhost', 9002)]
    """
    targets = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        host, _, port = part.rpartition(":")
        targets.append((host or "127.0.0.1", int(port)))
    return targets


async def _orphan_watchdog(period: float = 1.0) -> None:
    """Exit when the spawning process dies (reparented away from it)."""
    parent = os.getppid()
    while True:
        await asyncio.sleep(period)
        if os.getppid() != parent:
            raise SystemExit(0)


async def run_slave(node_id: int, workers: int,
                    masters_udp: Sequence[Tuple[str, int]],
                    monitor: Optional[MonitorConfig] = None,
                    host: str = "127.0.0.1",
                    ready_stream=None) -> None:
    """Slave process main loop: CGI service + heartbeats, until killed."""
    monitor = monitor or MonitorConfig()
    clock = LiveClock()
    calibrate()                       # pay the burn calibration up front
    meter = BusyMeter(capacity=workers, now=clock.now)
    pool = WorkerPool(node_id, workers, meter)
    service = CGIService(node_id, pool, host=host)
    port = await service.start()
    reporter = LoadReporter(node_id, meter, clock, udp_targets=masters_udp,
                            cfg=monitor)
    await reporter.start()
    stream = ready_stream if ready_stream is not None else sys.stdout
    print(f"{READY_PREFIX} node={node_id} port={port}", file=stream,
          flush=True)
    try:
        await _orphan_watchdog()
    finally:
        await reporter.stop()
        await service.stop()
        pool.shutdown()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.live.node``: run one slave process."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.live.node",
        description="repro.live slave: CGI executor + load heartbeat daemon")
    parser.add_argument("--node", type=int, required=True,
                        help="this node's cluster-wide id")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker threads (multiprogramming level)")
    parser.add_argument("--masters-udp", required=True,
                        help="comma-separated host:port heartbeat targets")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--period", type=float, default=None,
                        help="heartbeat period override, seconds")
    args = parser.parse_args(argv)
    monitor = MonitorConfig()
    if args.period is not None:
        monitor.period = args.period
    try:
        asyncio.run(run_slave(args.node, args.workers,
                              parse_udp_targets(args.masters_udp),
                              monitor=monitor, host=args.host))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":   # pragma: no cover - subprocess entry
    raise SystemExit(main())
