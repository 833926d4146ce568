"""Synthetic trace generation matching the published Table-1 statistics.

The proprietary logs cannot be redistributed, so experiments regenerate
traces whose *statistics* match the paper's Table 1 — which is all the
scheduler ever sees, because the paper itself replaces every request body
(static fetches become SPECweb96 files, CGI becomes synthetic scripts whose
demand is controlled by the experiment's ``r``).

Calibration
-----------
A node serves the SPECweb96 mix at ``mu_h`` requests/second, so the *mean*
static service demand is pinned to exactly ``1/mu_h`` (demand is
proportional to the served file size, then rescaled).  Dynamic requests get
mean demand ``1/(mu_h * r)``; their CPU/IO split and variability come from
the trace's CGI profile(s).
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice, repeat
from typing import List, Optional, Sequence

import numpy as np

from repro._gc import gc_paused
from repro.workload.arrival import ArrivalKind, make_arrivals
from repro.workload.cgi_profiles import get_profile
from repro.workload.request import Request, RequestKind
from repro.workload.specweb import MEAN_FILE_SIZE, closest_files
from repro.workload.traces import TraceSpec

#: Lognormal sigma used to spread logged response sizes around the trace
#: mean before snapping them to the SPECweb96 file set.
_SIZE_SIGMA = 1.0

#: Working-set pages charged to a static request (request parsing buffers
#: plus the file block being streamed).
_STATIC_MEM_PAGES = 2

#: Share of a static request's demand that is fixed per-request overhead
#: (connection handling, parsing, headers); the rest scales with file size.
_STATIC_OVERHEAD_FRACTION = 0.5


def _lognormal_with_mean(mean: float, sigma: float, n: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Lognormal samples with an exact-mean parameterisation."""
    mu = np.log(mean) - sigma ** 2 / 2.0
    return rng.lognormal(mu, sigma, size=n)


@gc_paused()
def generate_trace(
    spec: TraceSpec,
    *,
    rate: float,
    n: Optional[int] = None,
    duration: Optional[float] = None,
    mu_h: float = 1200.0,
    r: float = 1.0 / 40.0,
    seed: int = 0,
    arrival: ArrivalKind = "poisson",
    start: float = 0.0,
    cacheable_fraction: float = 0.0,
    distinct_queries: int = 1000,
    zipf_s: float = 1.1,
) -> List[Request]:
    """Generate a synthetic trace in the image of ``spec``.

    Parameters
    ----------
    spec:
        Published trace characteristics (class mix, sizes).
    rate:
        Target aggregate arrival rate in requests/second — the paper's
        interval scaling ("requests in each log are issued to the cluster
        at various fast rates").
    n / duration:
        Trace length, by count or by virtual-time span (exactly one).
    mu_h:
        Static service rate of one node; pins the demand calibration.
    r:
        Ratio of dynamic to static service *rates* (CGI demand is ``1/r``
        times larger on average).
    seed, arrival, start:
        Randomness, arrival-process kind, and first-arrival offset.
    cacheable_fraction / distinct_queries / zipf_s:
        CGI result caching knobs: the fraction of dynamic requests whose
        output is cacheable, drawn from a bounded-Zipf popularity over
        ``distinct_queries`` distinct query strings (0.0 = no cache keys,
        the paper's base setting — "our work in this paper does not
        consider CGI caching").
    """
    if (n is None) == (duration is None):
        raise ValueError("specify exactly one of n or duration")
    if duration is not None:
        n = max(1, int(round(rate * duration)))
    assert n is not None
    if n < 1:
        raise ValueError("trace must contain at least one request")
    if mu_h <= 0 or r <= 0:
        raise ValueError("mu_h and r must be positive")
    if not 0.0 <= cacheable_fraction <= 1.0:
        raise ValueError("cacheable_fraction must be in [0, 1]")
    if distinct_queries < 1:
        raise ValueError("distinct_queries must be >= 1")

    rng = np.random.default_rng(seed)
    arrivals = make_arrivals(arrival, rate, n, rng, start=start)
    is_cgi = rng.random(n) < spec.cgi_fraction

    requests: List[Request] = [None] * n  # type: ignore[list-item]
    _fill_static(requests, spec, arrivals, ~is_cgi, mu_h, rng)
    _fill_dynamic(requests, spec, arrivals, is_cgi, mu_h, r, rng)
    if cacheable_fraction > 0.0:
        _assign_cache_keys(requests, is_cgi, cacheable_fraction,
                           distinct_queries, zipf_s, rng)
    return requests


#: Rows turned into Python objects per step of :func:`_place`: bounds the
#: temporary lists a trace is built from to a few hundred KB.
_CHUNK = 4096


def _place(out: List[Request], ids: np.ndarray, arrivals: np.ndarray,
           *fields) -> None:
    """Build the requests ``ids`` into ``out`` at those positions.

    ``ids`` are also the requests' ``req_id`` and index the trace's
    ``arrivals``.  Each further field, in :class:`Request` order, is one
    of:

    * a numpy column aligned with ``ids``, converted with ``tolist``, so
      requests hold plain ``int``/``float`` values, never numpy scalars;
    * an iterator of already-built Python values, one per id in order,
      which lets requests share objects (see :func:`_fill_static`);
    * one value shared by all of them.

    Each request is built positionally in one pass.
    """
    for lo in range(0, ids.size, _CHUNK):
        rows = slice(lo, lo + _CHUNK)
        req_ids = ids[rows].tolist()
        columns = [f[rows].tolist() if isinstance(f, np.ndarray)
                   else islice(f, len(req_ids)) if isinstance(f, Iterator)
                   else repeat(f) for f in fields]
        built = map(Request, req_ids, arrivals[ids[rows]].tolist(), *columns)
        for i, req in zip(req_ids, built):
            out[i] = req


def _assign_cache_keys(requests: List[Request], is_cgi: np.ndarray,
                       fraction: float, distinct: int, zipf_s: float,
                       rng: np.random.Generator) -> None:
    """Give cacheable dynamic requests bounded-Zipf content identities."""
    idx = np.flatnonzero(is_cgi)
    if idx.size == 0:
        return
    weights = 1.0 / np.arange(1, distinct + 1, dtype=float) ** zipf_s
    weights /= weights.sum()
    cacheable = rng.random(idx.size) < fraction
    queries = rng.choice(distinct, size=idx.size, p=weights)
    for i, query in zip(idx[cacheable].tolist(),
                        queries[cacheable].tolist()):
        req = requests[i]
        req.cache_key = f"{req.type_key}?q={query}"


def _fill_static(out: List[Request], spec: TraceSpec, arrivals: np.ndarray,
                 mask: np.ndarray, mu_h: float,
                 rng: np.random.Generator) -> None:
    """Build the static requests: SPECweb96 file fetches.

    A static request's size and demand depend on its served file alone,
    and a trace serves at most 36 distinct files.  Each file's size and
    demand are built once, as Python objects, and every request of that
    file holds references to the same two objects: the values are those
    the per-request columns hold, since equal sizes go through the same
    elementwise arithmetic.
    """
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return
    # Logged sizes around the trace mean, snapped to the SPECweb96 set.
    logged = _lognormal_with_mean(spec.html_size, _SIZE_SIGMA, idx.size, rng)
    served = closest_files(logged.astype(np.int64))
    # Per-request demand = fixed overhead (parse, syscalls, headers) plus a
    # size-proportional transfer part; server benchmarks are dominated by
    # the fixed part for small files.  Calibrated so the mean is 1/mu_h.
    proportional = served / MEAN_FILE_SIZE
    proportional /= proportional.mean()
    demands = (_STATIC_OVERHEAD_FRACTION
               + (1.0 - _STATIC_OVERHEAD_FRACTION) * proportional) / mu_h
    # One table entry per served file; ``codes`` maps each request to its
    # file's entry, and a C-level map looks the shared objects up.  The
    # scatter writes each entry once per request of that file, always
    # with the same value.
    sizes, inverse = np.unique(served, return_inverse=True)
    file_demands = np.empty(sizes.size)
    file_demands[inverse] = demands
    codes = inverse.tolist()
    del inverse         # the list stands in for it while requests are built
    size_of = sizes.tolist()
    demand_of = file_demands.tolist()
    # Static service is pure CPU (parse, cache lookup, send): the file set
    # is cache-resident on an unloaded node.  Cache-miss disk reads are a
    # load effect and are added by the node at execution time.
    _place(out, idx, arrivals, RequestKind.STATIC,
           map(demand_of.__getitem__, codes), 0.0, _STATIC_MEM_PAGES,
           map(size_of.__getitem__, codes), "static")


def _fill_dynamic(out: List[Request], spec: TraceSpec, arrivals: np.ndarray,
                  mask: np.ndarray, mu_h: float, r: float,
                  rng: np.random.Generator) -> None:
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return
    profiles = [get_profile(name) for name, _ in spec.cgi_mix]
    weights = np.array([wt for _, wt in spec.cgi_mix])
    choice = rng.choice(len(profiles), size=idx.size, p=weights)
    mean_demand = 1.0 / (mu_h * r)
    sizes = _lognormal_with_mean(spec.cgi_size, _SIZE_SIGMA, idx.size, rng)

    for k, profile in enumerate(profiles):
        sel = np.flatnonzero(choice == k)
        if sel.size == 0:
            continue
        demands = profile.sample_demand(mean_demand, sel.size, rng)
        ws = profile.sample_w(sel.size, rng)
        pages = profile.sample_mem_pages(sel.size, rng)
        _place(out, idx[sel], arrivals, RequestKind.DYNAMIC, demands * ws,
               demands * (1.0 - ws), pages, sizes[sel].astype(np.int64),
               profile.type_key)


def trace_statistics(requests: Sequence[Request]) -> dict:
    """Summary statistics in the shape of a Table-1 row.

    Returns a dict with ``n``, ``pct_cgi``, ``mean_interval``,
    ``html_size`` and ``cgi_size`` keys, plus demand means per class.
    """
    if not requests:
        raise ValueError("empty trace")
    arrivals = np.array([q.arrival_time for q in requests])
    order = np.argsort(arrivals)
    arrivals = arrivals[order]
    kinds = np.array([int(requests[i].kind) for i in order])
    sizes = np.array([requests[i].size_bytes for i in order])
    demands = np.array([requests[i].demand for i in order])
    dyn = kinds == int(RequestKind.DYNAMIC)

    intervals = np.diff(arrivals)
    return {
        "n": len(requests),
        "pct_cgi": 100.0 * float(dyn.mean()),
        "mean_interval": float(intervals.mean()) if intervals.size else 0.0,
        "html_size": float(sizes[~dyn].mean()) if (~dyn).any() else 0.0,
        "cgi_size": float(sizes[dyn].mean()) if dyn.any() else 0.0,
        "static_demand": float(demands[~dyn].mean()) if (~dyn).any() else 0.0,
        "cgi_demand": float(demands[dyn].mean()) if dyn.any() else 0.0,
    }
