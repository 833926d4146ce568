"""Memory budget of a long-running live master.

A master serving request after request keeps, per request, one packed
ledger row and its compressed spans, and nothing else: tracemalloc
measures the bytes it retains across ~5,000 sequential requests.  A
``/control/stats`` poll reads the ledger's running summary, so one call
allocates a few KiB however many rows the ledger holds.
"""

from __future__ import annotations

import asyncio
import gc
import tracemalloc

import pytest

from repro.live.cluster import LiveCluster, LiveClusterConfig

from tests.conftest import make_cgi, make_static

WARMUP = 500
REQUESTS = 5000
#: Retained bytes a request may cost: a ~47 B ledger row plus ~90 B of
#: compressed spans, with slack for allocator rounding.
MAX_BYTES_PER_REQUEST = 180
#: Peak allocation of one stats() call.
MAX_STATS_PEAK = 64 * 1024


def _request(i: int):
    if i % 4 == 3:
        return make_cgi(req_id=i, cpu=0.00002, io=0.0)
    return make_static(req_id=i, cpu=0.00002)


@pytest.fixture(scope="module")
def soak():
    """(retained bytes per request, peak bytes of one stats() call, that
    call's payload) of one run."""

    async def scenario():
        cluster = LiveCluster(LiveClusterConfig(num_slaves=0, traced=True))
        async with cluster:
            master = cluster.master
            for i in range(WARMUP):
                await master.serve_request(_request(i))
            master.stats()
            requests = [_request(WARMUP + i) for i in range(REQUESTS)]
            gc.collect()
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                for request in requests:
                    await master.serve_request(request)
                gc.collect()
                after, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                base, _ = tracemalloc.get_traced_memory()
                stats = master.stats()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return (after - before) / REQUESTS, peak - base, stats

    return asyncio.run(scenario())


def test_a_served_request_retains_a_bounded_row(soak):
    per_request, _, stats = soak
    assert stats["metrics"]["count"] == WARMUP + REQUESTS
    assert stats["conservation"]["balance"] == 0
    assert per_request <= MAX_BYTES_PER_REQUEST, (
        f"{per_request:.0f} B retained per request")


def test_one_stats_call_allocates_o1(soak):
    _, stats_peak, _ = soak
    assert stats_peak < MAX_STATS_PEAK, (
        f"one stats() call peaked at {stats_peak} B")
