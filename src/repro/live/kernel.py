"""Calibrated CGI execution kernel: real CPU burn plus a sleeping "disk".

The paper replaces logged CGI bodies with synthetic scripts whose cost is
controlled (WebSTONE busy-spin, WebGlimpse search, ADL catalog lookups).
The live cluster does the same: a dynamic request arrives carrying its
demand split ``(cpu_seconds, io_seconds)`` drawn from
:mod:`repro.workload.cgi_profiles`, and the kernel *realises* that demand —
CPU demand as an actual burn on the worker thread, disk demand as a
blocking sleep (the request holds its worker but burns no cycles, like a
thread parked in ``read(2)``).

The burn releases the GIL
-------------------------
In the paper each CGI is a forked process, so its CPU time never delays
the server that dispatched it.  Here the CGI runs on a worker thread of
the node's own process, so the burn must not hold the interpreter lock:
a pure-Python loop would stall the node's event loop (dispatch, the
``admit``/``start``/``done`` frames, heartbeats) for up to one switch
interval (5 ms) at a time.  The burn therefore hashes a preallocated
zero buffer with :func:`hashlib.sha256`, which drops the GIL for the
whole of any input of 2 KiB or more; the worker holds the lock only for
the few bytecodes between chunks.

Calibration
-----------
``burn_cpu`` cannot trust a fixed bytes-per-second constant: hosts
differ and CI machines throttle.  :func:`calibrate` times the hash once
per process and caches the rate; :func:`burn_cpu` then hashes in chunks
sized from that rate, re-checking ``perf_counter`` between chunks so it
lands within a chunk of the target regardless of drift.

:class:`BusyMeter` is the live counterpart of the simulator's per-device
busy-time counters: the worker pool reports completed CPU/disk seconds,
and the load daemon differentiates the totals into windowed utilisations
exactly like :class:`repro.sim.monitor.LoadMonitor` does for ``rstat()``,
and :class:`LoadReporter` sends each window to the masters as one
heartbeat.  A master decodes it into a sample of the same
:class:`repro.sim.monitor.LoadTable` the simulator's monitor feeds.  Every node runs this module, slaves included, so nothing it
imports loads numpy: a slave process starts in a fraction of the time an
import of the whole package would take.
"""

from __future__ import annotations

import asyncio
import hashlib
import threading
import time
from typing import Callable, Optional, Sequence, Tuple

from repro.live.protocol import encode_heartbeat
from repro.sim.config import MonitorConfig


class LiveClock:
    """Monotonic seconds since one process-local epoch.

    Exposes the same ``.now`` property the simulator's engine has, so the
    :class:`repro.obs.Tracer` and the dispatch policies can be bound to a
    live timebase unchanged.  Span timestamps, load-table receipt times,
    and metrics all read this one clock.
    """

    __slots__ = ("epoch",)

    def __init__(self, epoch: Optional[float] = None) -> None:
        self.epoch = time.monotonic() if epoch is None else epoch

    @property
    def now(self) -> float:
        return time.monotonic() - self.epoch


#: Target wall time of one uninterrupted burn chunk, seconds.  Small
#: enough that burn overshoot stays ~1% of a 5 ms demand, large enough
#: that the clock check is not the dominant cost.
_CHUNK_SECONDS = 50e-6

#: The zero buffer the burn hashes.  A chunk never exceeds it, and it is
#: kept small so the burn adds nothing measurable to a node's memory.
_BUFFER = memoryview(bytes(64 * 1024))

#: Smallest chunk: OpenSSL's hash releases the GIL from 2 KiB of input.
_MIN_CHUNK = 2048

#: Full-buffer hashes timed by one calibration pass (2 MiB).
_CALIBRATE_CHUNKS = 32

_spin_rate_lock = threading.Lock()
_spin_rate: Optional[float] = None


def _spin(nbytes: int) -> None:
    """The burn body: hash ``nbytes`` (at most one buffer) of zeros."""
    hashlib.sha256(_BUFFER[:nbytes])


def calibrate(force: bool = False) -> float:
    """Measure (and cache) the burn rate in bytes/second."""
    global _spin_rate
    with _spin_rate_lock:
        if _spin_rate is not None and not force:
            return _spin_rate
        size = len(_BUFFER)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(_CALIBRATE_CHUNKS):
                _spin(size)
            best = min(best, time.perf_counter() - t0)
        _spin_rate = _CALIBRATE_CHUNKS * size / max(best, 1e-9)
        return _spin_rate


def burn_cpu(seconds: float) -> float:
    """Burn approximately ``seconds`` of CPU; return the measured elapsed.

    Hashes in calibrated chunks with the GIL released, re-checking the
    clock between chunks, so the overshoot is bounded by one chunk
    (~50 microseconds) plus scheduler noise.
    """
    if seconds <= 0:
        return 0.0
    rate = calibrate()
    chunk = min(len(_BUFFER), max(_MIN_CHUNK, int(rate * _CHUNK_SECONDS)))
    t0 = time.perf_counter()
    deadline = t0 + seconds
    now = t0
    while now < deadline:
        _spin(min(chunk, max(_MIN_CHUNK, int(rate * (deadline - now)))))
        now = time.perf_counter()
    return now - t0


def run_cgi(cpu_seconds: float, io_seconds: float) -> Tuple[float, float]:
    """Execute one request's demand on the calling (worker) thread.

    Returns the measured ``(cpu, io)`` seconds — what a real profiler
    would report, and what the master's online demand sampler consumes.
    """
    cpu_used = burn_cpu(cpu_seconds)
    io_used = 0.0
    if io_seconds > 0:
        t0 = time.perf_counter()
        time.sleep(io_seconds)
        io_used = time.perf_counter() - t0
    return cpu_used, io_used


class BusyMeter:
    """Thread-safe cumulative CPU/disk busy-seconds for one node.

    The worker pool calls :meth:`add` when a job leaves a worker thread,
    whether or not its caller is still waiting; the load daemon calls
    :meth:`sample` once per heartbeat period to turn the running totals
    into utilisations over the elapsed window, normalised by the pool
    ``capacity`` (a node with ``k`` workers can accumulate ``k``
    busy-seconds per wall second).
    """

    __slots__ = ("capacity", "_lock", "_cpu_total", "_io_total",
                 "_last_cpu", "_last_io", "_last_time", "active")

    def __init__(self, capacity: int, now: float = 0.0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._cpu_total = 0.0
        self._io_total = 0.0
        self._last_cpu = 0.0
        self._last_io = 0.0
        self._last_time = now
        #: Jobs in the node's pool, from submit until they leave it
        #: (backlogged or running); informational.
        self.active = 0

    def add(self, cpu_seconds: float, io_seconds: float) -> None:
        with self._lock:
            self._cpu_total += cpu_seconds
            self._io_total += io_seconds

    def begin(self) -> None:
        with self._lock:
            self.active += 1

    def end(self) -> None:
        with self._lock:
            self.active = max(0, self.active - 1)

    def sample(self, now: float) -> Tuple[float, float]:
        """``(cpu_idle_ratio, disk_avail_ratio)`` over the last window."""
        with self._lock:
            window = now - self._last_time
            if window <= 0:
                return 1.0, 1.0
            cpu_busy = self._cpu_total - self._last_cpu
            io_busy = self._io_total - self._last_io
            self._last_cpu = self._cpu_total
            self._last_io = self._io_total
            self._last_time = now
        denom = window * self.capacity
        cpu_idle = 1.0 - min(1.0, max(0.0, cpu_busy / denom))
        disk_avail = 1.0 - min(1.0, max(0.0, io_busy / denom))
        return cpu_idle, disk_avail


class LoadReporter:
    """One node's heartbeat daemon.

    Samples the node's :class:`BusyMeter` once when started and then
    every ``cfg.period`` seconds, and delivers the heartbeat to every
    destination: remote masters over UDP, and — for a master reporting
    about itself — a direct function call into its own table (no loopback
    round-trip for self-knowledge).
    """

    def __init__(self, node_id: int, meter: BusyMeter, clock,
                 udp_targets: Sequence[Tuple[str, int]] = (),
                 local_observe: Optional[Callable[[bytes], None]] = None,
                 cfg: Optional[MonitorConfig] = None):
        self.node_id = node_id
        self.meter = meter
        self.clock = clock
        self.udp_targets = list(udp_targets)
        self.local_observe = local_observe
        self.cfg = cfg or MonitorConfig()
        self.seq = 0
        self.sent = 0
        self._task: Optional[asyncio.Task] = None
        self._transport: Optional[asyncio.DatagramTransport] = None

    async def start(self) -> None:
        """Send the first heartbeat now, then one per period.

        Beating at start, not one period later, lets a new node work off
        its heartbeat probation a period sooner.
        """
        loop = asyncio.get_running_loop()
        if self.udp_targets:
            self._transport, _ = await loop.create_datagram_endpoint(
                asyncio.DatagramProtocol, local_addr=("127.0.0.1", 0))
        self.beat_once(self.clock.now)
        self._task = loop.create_task(self._run(), name=f"loadd-{self.node_id}")

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    def beat_once(self, now: float) -> bytes:
        """Build and deliver one heartbeat (exposed for tests)."""
        cpu_idle, disk_avail = self.meter.sample(now)
        self.seq += 1
        payload = encode_heartbeat(self.node_id, self.seq, cpu_idle,
                                   disk_avail, self.meter.active)
        if self.local_observe is not None:
            self.local_observe(payload)
        if self._transport is not None:
            for addr in self.udp_targets:
                self._transport.sendto(payload, addr)
        self.sent += 1
        return payload

    async def _run(self) -> None:
        while True:
            await asyncio.sleep(self.cfg.period)
            self.beat_once(self.clock.now)
