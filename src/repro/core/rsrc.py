"""RSRC — relative server-site response cost (paper Section 4, Equation 5).

Without knowing a dynamic request's exact demand, the scheduler estimates
the *relative* cost of running it on each node from the request family's
average CPU weight ``w`` and the node's current idle ratios:

    ``RSRC = w / CPUIdleRatio + (1 - w) / DiskAvailRatio``

and picks the node with the minimum cost.  ``w`` comes from offline sampling
(:mod:`repro.core.sampling`); when unavailable the paper assumes ``w = 0.5``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

#: Idle ratios are floored at this value so a saturated resource yields a
#: large-but-finite cost instead of a division by zero.
IDLE_FLOOR = 1e-3

#: Default CPU weight when no sampled value exists (paper: "we assume
#: w = 0.5, which means that I/O and CPU resources are considered to be
#: equally important").
DEFAULT_W = 0.5

#: Candidates whose cost is within this of the minimum count as tied.
TIE_TOLERANCE = 1e-9


def rsrc_cost(w: float, cpu_idle, disk_avail, floor: float = IDLE_FLOOR):
    """Evaluate Equation 5.  Accepts scalars or aligned numpy arrays.

    >>> rsrc_cost(0.5, 1.0, 1.0)
    1.0
    >>> rsrc_cost(1.0, 0.5, 0.01)   # pure-CPU request ignores the disk
    2.0
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"w must be in [0, 1]; got {w}")
    cpu = np.maximum(np.asarray(cpu_idle, dtype=float), floor)
    disk = np.maximum(np.asarray(disk_avail, dtype=float), floor)
    out = w / cpu + (1.0 - w) / disk
    return float(out) if out.ndim == 0 else out


def select_min_rsrc(
    w: float,
    cpu_idle: np.ndarray,
    disk_avail: np.ndarray,
    candidates: Sequence[int],
    rng: Optional[np.random.Generator] = None,
) -> int:
    """Pick the candidate node with the minimum RSRC.

    Near-ties are broken uniformly at random (when ``rng`` is given) so that
    a fleet of equally idle nodes does not herd onto the lowest index
    between two load-monitor updates.  Work dispatched since the last
    update is folded in by the caller, which discounts the idle ratios it
    passes (see :data:`repro.core.policies.HERDING_DISCOUNT`).
    """
    cand = np.asarray(candidates, dtype=np.intp)
    if cand.ndim != 1:
        cand = cand.reshape(-1)
    if cand.size == 0:
        raise ValueError("candidate set is empty")
    # Cost every node, then pick the candidates out: one gather instead
    # of two, and the same per-element arithmetic.
    costs = rsrc_cost(w, cpu_idle, disk_avail)[cand]
    # Array methods rather than their np.* wrappers: this runs once per
    # dynamic request.
    first = int(costs.argmin())
    if rng is None:
        return int(cand[first])
    ties = (costs <= costs[first] + TIE_TOLERANCE).nonzero()[0]
    pick = ties[int(rng.integers(len(ties)))] if len(ties) > 1 else ties[0]
    return int(cand[pick])
