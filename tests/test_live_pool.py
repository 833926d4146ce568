"""The live worker pool and the CGI burn it runs.

A slot follows its thread: it is taken when a job is handed to a worker
thread and freed only when that thread returns, even if the caller was
cancelled in between.  The burn runs with the GIL released, so a worker
burning a demand does not hold up the node's event loop.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time

import pytest

from repro.live import node
from repro.live.cluster import LiveCluster, LiveClusterConfig
from repro.live.kernel import BusyMeter, burn_cpu, calibrate
from repro.live.node import WorkerPool
from repro.sim.config import MonitorConfig

from tests.conftest import make_static


@pytest.fixture
def cgi_calls(monkeypatch):
    """Record every ``(cpu, io)`` demand that reaches a worker thread."""
    calls = []
    real = node.run_cgi

    def recording(cpu, io):
        calls.append((cpu, io))
        return real(cpu, io)

    monkeypatch.setattr(node, "run_cgi", recording)
    return calls


def busy_seconds(meter: BusyMeter) -> float:
    return meter._cpu_total + meter._io_total


async def until_started(pool: WorkerPool, n: int) -> None:
    """Wait until ``n`` jobs have been handed to threads."""
    while pool.busy < n:
        await asyncio.sleep(0.005)


def test_cancelled_running_job_keeps_its_slot(cgi_calls):
    """Cancelling the caller of a running io=0.5 job frees nothing early:
    the next job starts only when the cancelled job's thread returns, and
    the cancelled job's busy seconds still reach the meter."""

    async def scenario():
        loop = asyncio.get_running_loop()
        meter = BusyMeter(1)
        pool = WorkerPool(node_id=1, workers=1, meter=meter)
        t0 = loop.time()
        try:
            first = loop.create_task(pool.run(0.0, 0.5))
            await asyncio.sleep(0.05)
            first.cancel()
            with pytest.raises(asyncio.CancelledError):
                await first
            started = []
            await pool.run(0.001, 0.0,
                           on_start=lambda: started.append(loop.time() - t0))
            return started, busy_seconds(meter), meter.active
        finally:
            pool.shutdown()

    started, busy, active = asyncio.run(scenario())
    assert len(started) == 1 and started[0] >= 0.45
    assert busy >= 0.45
    assert active == 0
    assert cgi_calls == [(0.0, 0.5), (0.001, 0.0)]


def test_cancelled_backlogged_job_never_runs(cgi_calls):
    """A caller cancelled while its job waits in the backlog withdraws
    the job: it never reaches a thread and never fires ``on_start``."""

    async def scenario():
        loop = asyncio.get_running_loop()
        meter = BusyMeter(1)
        pool = WorkerPool(node_id=1, workers=1, meter=meter)
        started = []
        try:
            first = loop.create_task(
                pool.run(0.0, 0.1, on_start=lambda: started.append(1)))
            while not started:
                await asyncio.sleep(0.005)
            waiting = loop.create_task(
                pool.run(0.0, 0.2, on_start=lambda: started.append(2)))
            await asyncio.sleep(0.01)
            backlog_before = len(pool.backlog)
            waiting.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiting
            after_cancel = (len(pool.backlog), meter.active)
            await first
            await pool.run(0.0, 0.0, on_start=lambda: started.append(3))
            return backlog_before, after_cancel, started
        finally:
            pool.shutdown()

    backlog_before, after_cancel, started = asyncio.run(scenario())
    assert backlog_before == 1
    assert after_cancel == (0, 1)
    assert started == [1, 3]
    assert cgi_calls == [(0.0, 0.1), (0.0, 0.0)]


def test_backlog_is_fifo_and_full_tracks_busy():
    """Jobs leave the backlog in submission order, and ``full`` is true
    exactly when every worker holds a job."""

    async def scenario():
        loop = asyncio.get_running_loop()
        pool = WorkerPool(node_id=1, workers=2, meter=BusyMeter(2))
        order, states = [], []

        def state():
            states.append((pool.busy, len(pool.backlog), pool.full))

        try:
            state()
            tasks = []
            for i in range(6):
                tasks.append(loop.create_task(pool.run(
                    0.0, 0.02, on_start=lambda i=i: order.append(i))))
                await asyncio.sleep(0)
                state()
            await asyncio.gather(*tasks)
            state()
            return order, states
        finally:
            pool.shutdown()

    order, states = asyncio.run(scenario())
    assert order == list(range(6))
    assert states[:4] == [(0, 0, False), (1, 0, False), (2, 0, True),
                          (2, 1, True)]
    assert states[-1] == (0, 0, False)
    assert all(full == (busy == 2) for busy, _, full in states)


def test_run_cgi_error_reaches_the_caller_and_frees_the_slot(monkeypatch):
    real = node.run_cgi

    def failing(cpu, io):
        if io < 0:
            raise ValueError("bad demand")
        return real(cpu, io)

    monkeypatch.setattr(node, "run_cgi", failing)

    async def scenario():
        meter = BusyMeter(1)
        pool = WorkerPool(node_id=1, workers=1, meter=meter)
        try:
            with pytest.raises(ValueError, match="bad demand"):
                await pool.run(0.0, -1.0)
            after_error = (pool.busy, pool.full, meter.active)
            result = await pool.run(0.001, 0.0)
            return after_error, result, pool.completed
        finally:
            pool.shutdown()

    after_error, result, completed = asyncio.run(scenario())
    assert after_error == (0, False, 0)
    assert result[0] > 0 and completed == 1


def test_pool_stress_accounts_every_job():
    """More workers than cores under a short switch interval: every job
    completes, returns its own result, and leaves the pool and the meter
    balanced."""
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)

    async def scenario():
        meter = BusyMeter(4)
        pool = WorkerPool(node_id=1, workers=4, meter=meter)
        try:
            demands = [(0.0002 * (i % 3), 0.0001 * (i % 2))
                       for i in range(200)]
            results = await asyncio.wait_for(asyncio.gather(
                *(pool.run(cpu, io) for cpu, io in demands)), timeout=30.0)
            return demands, results, pool, meter
        finally:
            pool.shutdown()

    try:
        demands, results, pool, meter = asyncio.run(scenario())
    finally:
        sys.setswitchinterval(saved)
    assert all((cpu > 0) == (used[0] > 0) and (io > 0) == (used[1] > 0)
               for (cpu, io), used in zip(demands, results))
    assert (pool.completed, pool.busy, len(pool.backlog)) == (200, 0, 0)
    assert meter.active == 0
    assert busy_seconds(meter) == pytest.approx(
        sum(cpu + io for cpu, io in results))


def test_no_worker_thread_outlives_cluster_stop():
    """After ``LiveCluster.stop()`` every ``cgi-*`` thread exits once its
    last job returns, including one still running a cancelled job."""
    cfg = LiveClusterConfig(num_slaves=0,
                            monitor=MonitorConfig(period=0.05))

    async def scenario():
        cluster = LiveCluster(cfg)
        await cluster.start()
        master = cluster.master
        try:
            await master.serve_request(make_static(req_id=1, cpu=0.001))
            running = asyncio.get_running_loop().create_task(
                master.pool.run(0.0, 0.2))
            await until_started(master.pool, 1)
            threads = list(master.pool._threads)
        finally:
            await cluster.stop()
        running.cancel()
        await asyncio.gather(running, return_exceptions=True)
        return threads

    threads = asyncio.run(scenario())
    assert [t.name for t in threads] == ["cgi-0-0", "cgi-0-1"]
    for thread in threads:
        thread.join(timeout=5.0)
    assert not any(t.is_alive() for t in threads)
    assert not any(t.name.startswith("cgi-0-") and t.is_alive()
                   for t in threading.enumerate())


def test_burn_releases_the_gil():
    """With a 0.5 s switch interval, a burn holding the GIL would keep
    the main thread from running Python until it ended (~0.3 s).  The
    GIL-releasing burn lets it back in within 50 ms, mid-burn."""
    calibrate()
    saved = sys.getswitchinterval()
    sys.setswitchinterval(0.5)
    try:
        ready = threading.Event()

        def burner():
            ready.set()
            burn_cpu(0.3)

        thread = threading.Thread(target=burner, name="burner")
        thread.start()
        ready.wait(timeout=5.0)
        time.sleep(0.01)            # let the burn get going
        t0 = time.perf_counter()
        time.sleep(0.005)
        lag = time.perf_counter() - t0 - 0.005
        mid_burn = thread.is_alive()
        thread.join(timeout=5.0)
    finally:
        sys.setswitchinterval(saved)
    assert not thread.is_alive()
    assert mid_burn
    assert lag < 0.05
