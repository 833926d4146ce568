"""Demand-paged virtual-memory manager (one per node).

"The memory management maintains a set of free pages and allocates a number
of pages to a new process.  For each request, a memory size requirement is
provided and the system generates working-set oriented access patterns to
stress the demand-based paging scheme."

Model
-----
* Each node owns ``total_pages`` physical pages; ``reserved_pages`` belong
  to the kernel and the file cache.
* When a process is admitted it is granted its working set.  A configurable
  ``coldstart_fraction`` of those pages must be faulted in from disk (the
  rest are zero-fill / shared text), which the node splices into the
  process's execution plan as I/O bursts.
* If the free pool cannot cover the working set, pages are **stolen** from
  the resident processes with the largest footprints (a global-LRU stand-in).
  A victim will re-fault a ``refault_fraction`` of its stolen pages the next
  time it runs, modelling thrash under memory pressure.

This reproduces the paper's qualitative effect: resource-intensive CGI
requests consume memory, which shrinks the effective file cache and adds
disk traffic, further degrading co-located static request service.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.config import MemoryConfig
from repro.sim.process import SimProcess


class MemoryManager:
    """Tracks physical pages of one node and generates fault I/O."""

    __slots__ = ("cfg", "free_pages", "resident", "faults", "steals",
                 "refaults", "peak_resident", "_allocatable",
                 "_miss_base", "_miss_span")

    def __init__(self, cfg: MemoryConfig):
        self.cfg = cfg
        self.free_pages = cfg.total_pages - cfg.reserved_pages
        self.resident: Dict[SimProcess, int] = {}
        self.faults = 0      # pages faulted in from disk
        self.steals = 0      # pages stolen from victims
        self.refaults = 0    # pages re-faulted by victims
        self.peak_resident = 0
        # Read by static_miss_probability, once per static request.
        self._allocatable = cfg.total_pages - cfg.reserved_pages
        self._miss_base = cfg.static_miss_base
        self._miss_span = cfg.static_miss_max - cfg.static_miss_base

    # -- admission / release --------------------------------------------------

    def admit(self, proc: SimProcess) -> int:
        """Grant the process its working set.

        Returns the number of pages that must be faulted in from disk right
        now (cold-start faults).  May steal pages from other residents.
        """
        need = proc.request.mem_pages
        if need <= 0 or not self.cfg.enable_paging:
            return 0
        if need > self.free_pages:
            self._steal(need - self.free_pages)
        granted = min(need, self.free_pages)
        self.free_pages -= granted
        proc.resident_pages = granted
        self.resident[proc] = granted
        total_resident = self._allocatable - self.free_pages
        if total_resident > self.peak_resident:
            self.peak_resident = total_resident
        fraction = self.cfg.coldstart_fraction
        if not fraction:
            return 0
        cold = int(round(granted * fraction))
        self.faults += cold
        return cold

    def release(self, proc: SimProcess) -> None:
        """Return the process's pages to the free pool.  Idempotent."""
        pages = self.resident.pop(proc, 0)
        self.free_pages += pages
        proc.resident_pages = 0

    # -- pressure ---------------------------------------------------------------

    def _steal(self, shortfall: int) -> None:
        """Reclaim ``shortfall`` pages from the largest residents."""
        if not self.resident:
            return
        # Victimise the biggest footprints first: an approximation of global
        # page replacement, which preferentially evicts large CGI processes.
        victims = sorted(self.resident.items(), key=lambda kv: -kv[1])
        remaining = shortfall
        for proc, pages in victims:
            if remaining <= 0:
                break
            take = min(pages, remaining)
            if take <= 0:
                continue
            self.resident[proc] = pages - take
            proc.resident_pages = pages - take
            self.free_pages += take
            self.steals += take
            refault = int(round(take * self.cfg.refault_fraction))
            proc.pending_fault_pages += refault
            self.refaults += refault
            remaining -= take

    def collect_refaults(self, proc: SimProcess) -> int:
        """Pop and return pages the process must re-fault before running."""
        pages = proc.pending_fault_pages
        proc.pending_fault_pages = 0
        self.faults += pages
        return pages

    # -- file cache -----------------------------------------------------------------

    def static_miss_probability(self) -> float:
        """Probability a static request misses the file cache.

        Grows linearly with memory pressure: every page a CGI working set
        claims is a page the file cache loses, which is the paper's
        Section-2 argument for separating static from dynamic processing.
        """
        return self._miss_base + self._miss_span * self.pressure

    # -- introspection ------------------------------------------------------------

    @property
    def used_pages(self) -> int:
        return self._allocatable - self.free_pages

    @property
    def pressure(self) -> float:
        """Fraction of allocatable memory currently in use, in [0, 1]."""
        allocatable = self._allocatable
        return ((allocatable - self.free_pages) / allocatable
                if allocatable else 1.0)
