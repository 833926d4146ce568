"""Statistics and result plumbing shared by every workload.

Latencies are kept as plain lists of seconds; the helpers here turn them
into the reported figures. A tail percentile is reported only when at
least :data:`MIN_BEYOND` samples lie beyond it, so a p99 never rests on a
handful of outliers.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

#: Samples that must lie strictly beyond a percentile for it to be reported.
MIN_BEYOND = 10

#: A response within this multiple of its demand meets the latency limit.
SLO_STRETCH = 10.0

#: Value written for a metric the workload does not measure (its layer is
#: not crossed, or a percentile is withheld for lack of tail samples).
NOT_MEASURED = -1.0

#: End-to-end metrics: name -> unit, in print order.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "host_req_per_s": "1/s",
    "stretch": "ratio",
    "slo_frac": "ratio",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "static_latency_p50_ms": "ms",
    "dynamic_latency_p50_ms": "ms",
    "ok_frac": "ratio",
}


@dataclass
class Tail:
    """A percentile with the sample counts it rests on."""

    value: Optional[float]
    samples: int
    beyond: int

    def describe(self, scale: float = 1e3) -> str:
        shown = "withheld" if self.value is None else f"{self.value * scale:.4g}"
        return f"{shown} (n={self.samples}, {self.beyond} beyond)"


def percentile(values: Sequence[float], q: float) -> Tail:
    """The ``q``-th percentile of ``values``, withheld (``value=None``)
    when fewer than :data:`MIN_BEYOND` samples lie strictly beyond it.

    >>> percentile(list(range(1000)), 99).value
    989.01
    >>> percentile(list(range(500)), 99).value is None
    True
    """
    n = len(values)
    if n == 0:
        return Tail(None, 0, 0)
    ordered = sorted(values)
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    beyond = sum(1 for v in ordered[hi:] if v > value)
    if beyond < MIN_BEYOND:
        return Tail(None, n, beyond)
    return Tail(value, n, beyond)


def parse_seeds(text: str) -> List[int]:
    """An inclusive seed range such as ``1-10`` (or one seed).

    >>> parse_seeds("3-5")
    [3, 4, 5]
    """
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else NOT_MEASURED


def median_ms(values: Sequence[float]) -> float:
    """Median of seconds, in milliseconds."""
    return statistics.median(values) * 1e3 if values else NOT_MEASURED


def tail_ms(values: Sequence[float], q: float = 99) -> float:
    """Percentile of seconds in milliseconds, or ``NOT_MEASURED`` when
    withheld."""
    value = percentile(values, q).value
    return NOT_MEASURED if value is None else value * 1e3


def stretch(responses: Sequence[float], demands: Sequence[float]) -> float:
    """The paper's stretch factor: mean of response / demand."""
    return sum(t / d for t, d in zip(responses, demands)) / len(responses)


def slo_frac(responses: Sequence[float], demands: Sequence[float],
             attempted: int) -> float:
    """Share of *attempted* requests completed within ``SLO_STRETCH`` x
    their demand; a request that failed or was refused is a miss.

    >>> slo_frac([1.0, 1.0], [1.0, 0.01], attempted=4)
    0.25
    """
    if attempted <= 0:
        raise ValueError("attempted must be positive")
    met = sum(1 for t, d in zip(responses, demands) if t <= SLO_STRETCH * d)
    return met / attempted


def time_route(policy) -> Callable[[], float]:
    """Wrap ``policy.route`` in place to time every call; returns a
    function giving the mean host microseconds per call so far."""
    inner = policy.route
    spent = [0.0, 0]

    def timed_route(request, view):
        t = time.perf_counter()
        try:
            return inner(request, view)
        finally:
            spent[0] += time.perf_counter() - t
            spent[1] += 1

    policy.route = timed_route
    return lambda: spent[0] / max(spent[1], 1) * 1e6


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """Completed requests of one measured run, in client/simulated time."""

    attempted: int = 0
    #: (latency seconds, demand seconds, is_dynamic) per completed request.
    done: List[tuple] = field(default_factory=list)

    def add(self, latency: float, demand: float, dynamic: bool) -> None:
        self.done.append((latency, demand, dynamic))

    @property
    def failed(self) -> int:
        return self.attempted - len(self.done)

    def latency_metrics(self) -> Dict[str, float]:
        """stretch, slo_frac, ok_frac and the latency figures (ms)."""
        lat = [d[0] for d in self.done]
        dem = [d[1] for d in self.done]
        static = [d[0] for d in self.done if not d[2]]
        dynamic = [d[0] for d in self.done if d[2]]
        return {
            "stretch": stretch(lat, dem) if lat else NOT_MEASURED,
            "slo_frac": slo_frac(lat, dem, self.attempted),
            "latency_p50_ms": median_ms(lat),
            "latency_p99_ms": tail_ms(lat),
            "static_latency_p50_ms": median_ms(static),
            "dynamic_latency_p50_ms": median_ms(dynamic),
            "ok_frac": len(self.done) / self.attempted,
        }

    def notes(self) -> List[str]:
        lat = [d[0] for d in self.done]
        return [f"latency_p99_ms {percentile(lat, 99).describe()}",
                f"fail_frac {self.failed / self.attempted:.6g} "
                f"({self.failed} of {self.attempted})"]


@dataclass
class RunResult:
    """What one invocation prints: metrics, checks and notes."""

    workload: str
    attempted: int = 0
    failed: int = 0
    #: name -> value; units come from the metric tables
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Failed output checks, one line each (empty means correct).
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)
