"""The per-node execution substrate: worker pool + framed remote-CGI service.

Every node of the live cluster — slave or master — owns one
:class:`WorkerPool`: a ``ThreadPoolExecutor`` gated by an
:class:`asyncio.Semaphore` of the same width, the live analogue of the
simulator's per-node multiprogramming level.  The pool realises request
demands through the calibrated burn/sleep kernel and accounts the measured
busy seconds to the node's :class:`~repro.live.kernel.BusyMeter` (which
the load daemon turns into the CPU-idle/disk-avail heartbeats the RSRC
predictor consumes).

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
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Sequence, Tuple

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


class WorkerPool:
    """Bounded execution of request demands on real worker threads."""

    def __init__(self, node_id: int, workers: int, meter: BusyMeter):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.node_id = node_id
        self.workers = workers
        self.meter = meter
        self.semaphore = asyncio.Semaphore(workers)
        self.executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix=f"cgi-{node_id}")
        self.completed = 0

    async def run(self, cpu_seconds: float, io_seconds: float,
                  on_start: Optional[Callable[[], None]] = None
                  ) -> Tuple[float, float]:
        """Execute one demand; returns measured ``(cpu, io)`` seconds.

        ``on_start`` fires (synchronously, on the event loop) the moment a
        worker slot is acquired — the live "left the backlog" signal.
        """
        self.meter.begin()
        try:
            async with self.semaphore:
                if on_start is not None:
                    on_start()
                loop = asyncio.get_running_loop()
                cpu_used, io_used = await loop.run_in_executor(
                    self.executor, run_cgi, cpu_seconds, io_seconds)
            self.meter.add(cpu_used, io_used)
            self.completed += 1
            return cpu_used, io_used
        finally:
            self.meter.end()

    def shutdown(self) -> None:
        self.executor.shutdown(wait=False, cancel_futures=True)


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
