"""RSRC — relative server-site response cost (paper Section 4, Equation 5).

Without knowing a dynamic request's exact demand, the scheduler estimates
the *relative* cost of running it on each node from the request family's
average CPU weight ``w`` and the node's current idle ratios:

    ``RSRC = w / CPUIdleRatio + (1 - w) / DiskAvailRatio``

and picks the node with the minimum cost.  ``w`` comes from offline sampling
(:mod:`repro.core.sampling`); when unavailable the paper assumes ``w = 0.5``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.core.draws import BlockStream

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
    cpu_idle: Sequence[float],
    disk_avail: Sequence[float],
    candidates: Sequence[int],
    rng: Optional[Union[np.random.Generator, BlockStream]] = None,
) -> int:
    """Pick the candidate node with the minimum RSRC.

    ``cpu_idle``/``disk_avail`` are per-node ratios indexed by node id
    (lists or arrays).  Near-ties are broken uniformly at random (when
    ``rng`` is given) so that a fleet of equally idle nodes does not herd
    onto the lowest index between two load-monitor updates.  Work
    dispatched since the last update is folded in by the caller, which
    discounts the idle ratios it passes (see
    :data:`repro.core.policies.HERDING_DISCOUNT`).

    Costs are Equation 5 on plain floats — the same operations, in the
    same order, as :func:`rsrc_cost` — and the first minimum wins
    without ``rng``, as ``argmin`` would pick it.
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"w must be in [0, 1]; got {w}")
    if len(candidates) == 0:
        raise ValueError("candidate set is empty")
    floor = IDLE_FLOOR
    w_disk = 1.0 - w
    costs = []
    for i in candidates:
        cpu = cpu_idle[i]
        disk = disk_avail[i]
        costs.append(w / (floor if cpu < floor else cpu)
                     + w_disk / (floor if disk < floor else disk))
    best = min(costs)
    if rng is not None:
        limit = best + TIE_TOLERANCE
        ties = [j for j, cost in enumerate(costs) if cost <= limit]
        if len(ties) > 1:
            return int(candidates[ties[int(rng.integers(len(ties)))]])
    return int(candidates[costs.index(best)])
