"""Boot a whole live cluster on localhost: one in-process master plus
slave subprocesses.

The master runs inside the caller's event loop (so tests and the load
generator can reach its tracer, policy, and metrics directly); each slave
is a real separate Python process spawned with ``python -m
repro.live.slave``, discovered through the one-line ``READY`` handshake it
prints on stdout (the OS assigns its CGI port, so there is no port race).
Slaves heartbeat the master over UDP; the master opens one persistent
framed-TCP connection per slave for remote CGI.

Slaves are spawned concurrently: each one's start-up is mostly its own
interpreter importing :mod:`repro.live.slave`, a path kept free of numpy
and the simulator.  Startup is complete when :meth:`LiveCluster.start`
returns: every slave is connected, heard from, and past heartbeat
probation — dispatch decisions from the first request onward run against
fresh telemetry.
"""

from __future__ import annotations

import asyncio
import sys
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.sampling import DemandSampler
from repro.live.master import MasterServer
from repro.live.node import READY_PREFIX
from repro.sim.config import MonitorConfig

#: Generous per-slave startup allowance (imports + burn calibration).
_READY_TIMEOUT = 30.0


@dataclass
class LiveClusterConfig:
    """Shape and knobs of one loopback cluster."""

    num_slaves: int = 2
    master_workers: int = 2
    slave_workers: int = 2
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    seed: int = 0
    request_timeout: float = 30.0
    host: str = "127.0.0.1"
    traced: bool = True

    @property
    def num_nodes(self) -> int:
        return 1 + self.num_slaves

    def validate(self) -> "LiveClusterConfig":
        if self.num_slaves < 0:
            raise ValueError("num_slaves must be >= 0")
        if self.master_workers < 1 or self.slave_workers < 1:
            raise ValueError("worker counts must be >= 1")
        return self


class LiveCluster:
    """One master (in-process) + ``num_slaves`` slave subprocesses."""

    def __init__(self, cfg: Optional[LiveClusterConfig] = None,
                 sampler: Optional[DemandSampler] = None):
        self.cfg = (cfg or LiveClusterConfig()).validate()
        self.master = MasterServer(
            node_id=0, num_nodes=self.cfg.num_nodes, num_masters=1,
            workers=self.cfg.master_workers, monitor=self.cfg.monitor,
            sampler=sampler, seed=self.cfg.seed,
            request_timeout=self.cfg.request_timeout, host=self.cfg.host,
            traced=self.cfg.traced)
        self.procs: List[asyncio.subprocess.Process] = []
        self.slave_ports: List[int] = []

    async def start(self, healthy_timeout: float = 15.0) -> None:
        """Bind the master, spawn every slave at once, connect them in
        node-id order, wait healthy.

        If any slave fails to come up, the spawns still in flight are
        cancelled and every child process already created is terminated
        and reaped before the error propagates.
        """
        await self.master.start()
        try:
            self.slave_ports = await self._spawn_all()
            for slave_id, port in enumerate(self.slave_ports, start=1):
                await self.master.connect_peer(slave_id, self.cfg.host, port)
            await self.master.wait_healthy(timeout=healthy_timeout)
        except BaseException:
            await self.stop()
            raise

    async def _spawn_all(self) -> List[int]:
        """Spawn every slave concurrently; their ports in node-id order."""
        loop = asyncio.get_running_loop()
        tasks = [loop.create_task(self._spawn_slave(slave_id))
                 for slave_id in range(1, self.cfg.num_nodes)]
        try:
            return list(await asyncio.gather(*tasks))
        finally:
            # gather leaves the siblings of a failed spawn running.
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

    async def _spawn_slave(self, slave_id: int) -> int:
        assert self.master.udp_port is not None
        proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro.live.slave",
            "--node", str(slave_id),
            "--workers", str(self.cfg.slave_workers),
            "--masters-udp", f"{self.cfg.host}:{self.master.udp_port}",
            "--host", self.cfg.host,
            "--period", str(self.cfg.monitor.period),
            stdout=asyncio.subprocess.PIPE)
        self.procs.append(proc)
        assert proc.stdout is not None
        while True:
            try:
                line = await asyncio.wait_for(proc.stdout.readline(),
                                              timeout=_READY_TIMEOUT)
            except asyncio.TimeoutError:
                raise RuntimeError(
                    f"slave {slave_id} did not print a ready line within "
                    f"{_READY_TIMEOUT}s") from None
            if not line:
                raise RuntimeError(
                    f"slave {slave_id} exited before becoming ready "
                    f"(rc={proc.returncode})")
            text = line.decode("utf-8", "replace").strip()
            if text.startswith(READY_PREFIX):
                fields = dict(part.split("=", 1)
                              for part in text.split()[1:])
                return int(fields["port"])
            # Anything else on stdout is slave chatter; keep scanning.

    async def stop(self) -> None:
        await self.master.stop()
        for proc in self.procs:
            if proc.returncode is None:
                proc.terminate()
        for proc in self.procs:
            try:
                await asyncio.wait_for(proc.wait(), timeout=5.0)
            except asyncio.TimeoutError:
                proc.kill()
                await proc.wait()
        self.procs.clear()

    async def __aenter__(self) -> "LiveCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()
