"""Offline demand sampling (paper Section 4).

"``w`` is obtained by off-line sampling, approximating the I/O and CPU
demand of the request on an unloaded system at a Web site.  If a value for
``w`` cannot be obtained, we assume ``w = 0.5``."

:class:`DemandSampler` keeps a running per-request-family estimate of the
CPU weight.  Training happens either *offline* — run a sample of requests
through :meth:`observe` before the experiment (optionally with measurement
noise, since a real profiler never sees perfectly clean numbers) — or
*online* from completed-request accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

import numpy as np

from repro.core.rsrc import DEFAULT_W
from repro.workload.request import Request


@dataclass(slots=True)
class _FamilyStats:
    count: int = 0
    cpu_sum: float = 0.0
    io_sum: float = 0.0

    @property
    def w(self) -> float:
        total = self.cpu_sum + self.io_sum
        return self.cpu_sum / total if total > 0 else DEFAULT_W


class DemandSampler:
    """Per-request-family CPU-weight (``w``) estimates.

    The fallback for a family never sampled is not stored here: the
    caller passes its own to :meth:`w` (the policy's ``default_w``).

    Parameters
    ----------
    max_samples_per_family:
        Offline sampling budget; further observations of a family are
        ignored (profiling every request would defeat the point).
    """

    def __init__(self, max_samples_per_family: int = 1000):
        if max_samples_per_family < 1:
            raise ValueError("max_samples_per_family must be >= 1")
        self.max_samples_per_family = max_samples_per_family
        self._families: Dict[str, _FamilyStats] = {}

    # -- training ----------------------------------------------------------------

    def observe(self, type_key: str, cpu_time: float, io_time: float) -> None:
        """Record one measured (cpu, io) split for a request family."""
        if cpu_time < 0 or io_time < 0:
            raise ValueError("sampled times must be >= 0")
        if cpu_time == 0 and io_time == 0:
            return
        stats = self._families.setdefault(type_key, _FamilyStats())
        if stats.count >= self.max_samples_per_family:
            return
        stats.count += 1
        stats.cpu_sum += cpu_time
        stats.io_sum += io_time

    def train_offline(self, requests: Iterable[Request],
                      noise: float = 0.0,
                      rng: Optional[np.random.Generator] = None) -> int:
        """Profile a request sample on an (imaginary) unloaded node.

        ``noise`` perturbs each measured time by a multiplicative lognormal
        factor of that sigma, modelling profiler error.  Returns the number
        of samples actually recorded.
        """
        if noise < 0:
            raise ValueError("noise must be >= 0")
        if noise > 0 and rng is None:
            rng = np.random.default_rng(0)
        n = 0
        for req in requests:
            cpu, io = req.cpu_demand, req.io_demand
            if noise > 0:
                cpu *= float(rng.lognormal(0.0, noise))
                io *= float(rng.lognormal(0.0, noise))
            before = self._families.get(req.type_key)
            before_count = before.count if before else 0
            self.observe(req.type_key, cpu, io)
            after = self._families[req.type_key]
            if after.count > before_count:
                n += 1
        return n

    # -- queries -------------------------------------------------------------------

    def w(self, type_key: str, default: float = DEFAULT_W) -> float:
        """Estimated CPU weight for a family (``default`` if unseen)."""
        stats = self._families.get(type_key)
        return stats.w if stats is not None and stats.count > 0 else default

    def sample_count(self, type_key: str) -> int:
        stats = self._families.get(type_key)
        return stats.count if stats is not None else 0

    @property
    def families(self) -> tuple[str, ...]:
        return tuple(self._families)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{k}: w={v.w:.2f} (n={v.count})"
                          for k, v in self._families.items())
        return f"<DemandSampler {parts or 'untrained'}>"
