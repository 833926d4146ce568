"""Theorem 1: when does master/slave beat the flat architecture?

The paper reduces the inequality ``SM <= SF`` to a quadratic
``A*theta^2 + B*theta + C <= 0`` whose roots ``theta_1 <= theta_2`` bound the
master-side dynamic fraction for which M/S wins.  The printed coefficient
expressions are unwieldy; we construct the same quadratic directly from the
utilisation expressions (both station loads are linear in ``theta``), which
is algebraically identical and testable.

Closed form for the upper root (derived; verified against the numeric
quadratic in the test suite): at ``theta_2`` both the master and slave
utilisations equal the flat per-node utilisation, giving

    ``theta_2 = m/p + (r/a) * (m/p - 1)``.

This is the quantity the scheduler uses as its **reservation ratio**: capping
the dynamic fraction sent to masters at ``theta_2`` guarantees masters are
never more loaded than a flat node would be, so static requests are always
served at least as fast as in the flat architecture.

Theorem 1 also prescribes ``theta_m = max((theta_1 + theta_2)/2, 0)`` and a
numeric sweep over ``m`` for the best master count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

from repro.core.queuing import MSStretch, Workload, flat_stretch, ms_stretch

ThetaMethod = Literal["midpoint", "numeric"]


def reservation_ratio(a: float, r: float, m: int, p: int) -> float:
    """Upper bound ``theta_2`` on the master-side dynamic fraction, clamped
    to [0, 1].  This is what the online reservation controller recomputes
    from monitored ``a`` and approximated ``r``.

    >>> round(reservation_ratio(a=0.5, r=1/40, m=8, p=32), 6)
    0.2125
    """
    if a <= 0:
        # No dynamic traffic: the cap is irrelevant; admit freely.
        return 1.0
    if not 1 <= m <= p:
        raise ValueError(f"m must be in [1, p]; got m={m}, p={p}")
    frac = m / p
    theta2 = frac + (r / a) * (frac - 1.0)
    return min(1.0, max(0.0, theta2))


def min_masters(w: Workload) -> int:
    """Smallest ``m`` for which ``theta_2 >= 0`` (Theorem 1's condition
    ``m >= p*r / (a + r)``)."""
    a, r, p = w.a, w.r, w.p
    if a <= 0:
        return 1
    return max(1, math.ceil(p * r / (a + r) - 1e-12))


def _validate_ms_workload(w: Workload, where: str) -> None:
    """Reject degenerate workloads with a diagnosis instead of letting a
    ZeroDivisionError (or a cryptic root count) surface downstream.

    Degenerate means: no dynamic traffic at all (``a = 0`` — the master/
    slave split is meaningless, use the flat design; an all-dynamic
    stream, the other extreme, is unrepresentable because ``Workload``
    requires ``lam_h > 0``), or non-finite parameters from zero/NaN
    demand estimates.
    """
    if w.a <= 0.0:
        raise ValueError(
            f"{where}: workload has no dynamic traffic (a = {w.a}); the "
            "Theorem-1 quadratic is degenerate — every theta is "
            "equivalent, use the flat design (m = p)")
    if not all(math.isfinite(v) and v > 0.0 for v in (w.r, w.rho, w.a)):
        raise ValueError(
            f"{where}: non-finite or non-positive workload parameters "
            f"(a={w.a}, r={w.r}, rho={w.rho}) — check for zero service "
            "demands in the estimates")


def theta_bounds(w: Workload, m: int) -> tuple[float, float]:
    """Roots ``(theta_1, theta_2)`` of the Theorem-1 quadratic for a given
    master count.

    For ``theta`` strictly inside the interval, ``SM(theta) < SF``; outside,
    M/S loses to flat.  Raises ``ValueError`` if the workload is
    infeasible (then no architecture is stable), degenerate (no dynamic
    traffic, zero demands), or ``m`` leaves no slaves.
    """
    if not 1 <= m <= w.p - 1:
        raise ValueError(f"need 1 <= m <= p-1 for the M/S split; got m={m}")
    _validate_ms_workload(w, "theta_bounds")
    if not w.feasible:
        raise ValueError(
            "offered load exceeds cluster capacity; every configuration is "
            "unstable"
        )
    sf = flat_stretch(w)
    rho, a, r, p = w.rho, w.a, w.r, w.p

    # Station utilisations as degree-1 polynomials in theta.
    u_master = (rho / m, rho * a / (r * m))
    u_slave = (rho * a / (r * (p - m)), -rho * a / (r * (p - m)))
    pm0, pm1 = 1.0 - u_master[0], -u_master[1]      # 1 - U_M(theta)
    ps0, ps1 = 1.0 - u_slave[0], -u_slave[1]        # 1 - U_S(theta)

    # N(theta) = (1+a*theta)*PS + a*(1-theta)*PM - (1+a)*SF*PM*PS  <=  0,
    # coefficient by coefficient, lowest degree first.  The grouping is
    # that of a polynomial product then sum/difference; regrouping moves
    # the roots' last bits, which tests/test_theorem.py pins.
    k = (1.0 + a) * sf
    n = np.array((
        (ps0 + a * pm0) - k * (pm0 * ps0),
        ((ps1 + a * ps0) + (a * pm1 + -a * pm0))
        - k * (pm0 * ps1 + pm1 * ps0),
        (a * ps1 + -a * pm1) - k * (pm1 * ps1),
    ))

    roots = npoly.polyroots(n)
    real = sorted(float(z.real) for z in roots if abs(z.imag) < 1e-9)
    if len(real) != 2:
        raise ArithmeticError(
            f"Theorem-1 quadratic did not yield two real roots: {roots}"
        )
    return real[0], real[1]


def theta2_closed_form(w: Workload, m: int) -> float:
    """Unclamped closed-form upper root (see module docstring)."""
    _validate_ms_workload(w, "theta2_closed_form")
    frac = m / w.p
    return frac + (w.r / w.a) * (frac - 1.0)


def theta_feasible_interval(w: Workload, m: int) -> tuple[float, float]:
    """Open interval of ``theta`` keeping both station classes stable.

    Both ends are clamped into ``[0, 1]`` (theta is a fraction); an
    *empty* interval — no theta stabilises this ``m``, e.g. masters
    overloaded even at ``theta = 0`` — comes back as ``lo >= hi``.
    """
    rho, a, r, p = w.rho, w.a, w.r, w.p
    # U_M < 1:  theta < (m/rho - 1) * r / a
    hi = (m / rho - 1.0) * r / a if a > 0 else 1.0
    # U_S < 1:  theta > 1 - r*(p-m) / (a*rho)
    lo = 1.0 - r * (p - m) / (a * rho) if a > 0 else 0.0
    return min(1.0, max(0.0, lo)), min(1.0, max(0.0, hi))


@dataclass(frozen=True, slots=True)
class MSDesign:
    """A concrete M/S operating point chosen by Theorem 1."""

    m: int
    theta: float
    stretch: MSStretch
    theta_bounds: tuple[float, float]

    @property
    def sm(self) -> float:
        return self.stretch.total


def _midpoint(bounds: tuple[float, float]) -> float:
    """The paper's ``theta_m = max((theta_1 + theta_2)/2, 0)``, clamped
    to a fraction."""
    t1, t2 = bounds
    return min(max((t1 + t2) / 2.0, 0.0), 1.0)


def theta_opt(w: Workload, m: int, method: ThetaMethod = "midpoint") -> float:
    """Best master-side dynamic fraction for a fixed master count.

    ``"midpoint"`` is the paper's rule ``theta_m = max((t1+t2)/2, 0)``;
    ``"numeric"`` minimises SM directly over the stable interval (an
    ablation: the true optimum of the rational SM is not exactly the
    midpoint of the winning interval).
    """
    bounds = theta_bounds(w, m)
    if method == "midpoint":
        return _midpoint(bounds)
    if method == "numeric":
        from scipy.optimize import minimize_scalar

        lo, hi = theta_feasible_interval(w, m)
        eps = 1e-9 * max(1.0, hi - lo)
        lo, hi = lo + eps, hi - eps
        if hi <= lo:
            return max(lo, 0.0)
        objective = lambda th: ms_stretch(  # noqa: E731
            w, m, float(np.clip(th, 0.0, 1.0))).total
        res = minimize_scalar(objective, bounds=(lo, hi), method="bounded")
        # The bounded search can stall a hair inside the interval; also try
        # the boundaries so a boundary minimum is returned exactly.
        candidates = [float(np.clip(res.x, 0.0, 1.0)),
                      max(lo, 0.0), min(hi, 1.0)]
        return min(candidates, key=objective)
    raise ValueError(f"unknown method {method!r}")


def design_for_m(w: Workload, m: int,
                 method: ThetaMethod = "midpoint") -> Optional[MSDesign]:
    """Evaluate one master count; ``None`` if it cannot be stable."""
    if m >= w.p:
        # Degenerate: all masters, no slaves — equivalent to flat + remote CGI.
        stretch = ms_stretch(w, w.p, 1.0)
        if not stretch.stable:
            return None
        return MSDesign(m=w.p, theta=1.0, stretch=stretch,
                        theta_bounds=(1.0, 1.0))
    if w.rho >= m:
        return None  # masters cannot even absorb the static load
    try:
        bounds = theta_bounds(w, m)
    except (ValueError, ArithmeticError):
        return None
    theta = (_midpoint(bounds) if method == "midpoint"
             else theta_opt(w, m, method))
    stretch = ms_stretch(w, m, theta)
    if not stretch.stable:
        return None
    return MSDesign(m=m, theta=theta, stretch=stretch, theta_bounds=bounds)


def optimal_masters(w: Workload, method: ThetaMethod = "midpoint") -> MSDesign:
    """Theorem 1's numeric minimisation over ``m`` (and ``theta``).

    Sweeps every integer master count, picking the pair ``(m, theta_m)``
    with the smallest combined stretch.
    """
    _validate_ms_workload(w, "optimal_masters")
    if not w.feasible:
        raise ValueError("offered load exceeds cluster capacity")
    best: Optional[MSDesign] = None
    for m in range(1, w.p + 1):
        cand = design_for_m(w, m, method)
        if cand is None:
            continue
        if best is None or cand.sm < best.sm:
            best = cand
    if best is None:
        raise ArithmeticError("no stable M/S configuration found")
    return best
