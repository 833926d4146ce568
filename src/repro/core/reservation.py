"""Adaptive reservation of master resources for static requests (Section 4).

The scheduler caps the fraction of dynamic requests admitted to master
nodes at ``theta'_2`` — the Theorem-1 upper bound recomputed online:

* the arrival-rate ratio ``a`` is monitored directly from the request
  stream;
* the service-rate ratio ``r`` is hard to measure online, so it is
  approximated by the ratio of current mean response times of static and
  dynamic requests ("we use current relative response times of static and
  dynamic content requests to approximate r").

The paper argues the update is **self-stabilising**, and the feedback loop
works through ``r_est = resp_static / resp_dynamic``: if the cap is too
low, masters run few CGIs, slave-side dynamic responses inflate, so
``r_est`` falls — which *raises* the cap (``theta_2`` grows as ``r``
shrinks because the ``(r/a)(m/p - 1)`` penalty term shrinks), admitting
more CGIs to masters.  If the cap is too high, master-side static
responses inflate, ``r_est`` rises, and the cap comes back down.  The
test suite checks convergence from both extreme initial caps.

:class:`ReservationGate` holds the cap and gates on it;
:class:`ReservationController` is the loop that writes it.  A policy
without the loop (an attached control plane detached it, or a fixed-cap
ablation) keeps whatever cap its gate was given.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.theorem import reservation_ratio
from repro.workload.request import RequestKind


@dataclass(slots=True)
class ReservationConfig:
    """Tunables of the gate and of the adaptive controller."""

    #: Seconds between cap recomputations.
    update_period: float = 1.0
    #: EWMA factor for the response-time and admission-fraction estimates.
    smoothing: float = 0.1
    #: Initial cap before any measurements exist.
    theta_init: float = 0.25
    #: Floor on the measured-arrivals window before trusting ``a``.
    min_arrivals: int = 20

    def validate(self) -> None:
        if self.update_period <= 0:
            raise ValueError("update_period must be positive")
        if not 0.0 < self.smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        if not 0.0 <= self.theta_init <= 1.0:
            raise ValueError("theta_init must be in [0, 1]")
        if self.min_arrivals < 1:
            raise ValueError("min_arrivals must be >= 1")


class ReservationGate:
    """The cap ``theta'_2`` plus the running master-admission fraction
    it gates on.

    Usage (the M/S policy drives this):

    * :meth:`admit_to_master` when routing a dynamic request — ``True``
      means masters may be considered;
    * :meth:`record_decision` with the actual placement.

    ``theta_cap`` has one writer at a time: the paper's loop
    (:class:`ReservationController`, the policy's ``tuner``) or, once it
    detaches that loop, an attached control plane (``repro.control``).
    """

    __slots__ = ("smoothing", "theta_cap", "cap_scale", "master_fraction")

    def __init__(self, cfg: ReservationConfig | None = None):
        cfg = cfg or ReservationConfig()
        cfg.validate()
        #: EWMA factor of :attr:`master_fraction`.
        self.smoothing = cfg.smoothing
        self.theta_cap = cfg.theta_init
        #: External pressure multiplier on the cap (overload shedding
        #: tightens it toward 0 so masters keep serving static traffic).
        self.cap_scale = 1.0
        #: EWMA of the fraction of dynamic requests sent to masters.
        self.master_fraction = 0.0

    def set_pressure(self, scale: float) -> None:
        """Scale the effective cap by ``scale`` in [0, 1].

        Called by the overload controller: ``0.0`` closes masters to new
        dynamic work entirely; ``1.0`` restores the cap.  ``theta_cap``
        itself keeps following its writer throughout, so releasing
        pressure resumes from an up-to-date cap.
        """
        self.cap_scale = min(1.0, max(0.0, scale))

    @property
    def effective_cap(self) -> float:
        """The cap actually gated on: ``theta_cap * cap_scale``."""
        return self.theta_cap * self.cap_scale

    def admit_to_master(self) -> bool:
        """May the next dynamic request consider master nodes?"""
        return self.master_fraction < self.effective_cap

    def record_decision(self, to_master: bool) -> None:
        """Update the running master-admission fraction the gate uses."""
        s = self.smoothing
        self.master_fraction = (
            s * (1.0 if to_master else 0.0) + (1 - s) * self.master_fraction
        )


class ReservationController:
    """The paper's self-stabilising loop: tracks ``a``, approximates
    ``r``, and writes the Theorem-1 cap into ``gate.theta_cap``.

    The M/S policy feeds it :meth:`observe_arrival` on every routed
    request and :meth:`observe_response` on every completion.
    """

    __slots__ = ("gate", "cfg", "m", "p", "_resp_static", "_resp_dynamic",
                 "_arr_static", "_arr_dynamic", "_a_est", "_next_update",
                 "updates")

    def __init__(self, gate: ReservationGate, m: int, p: int,
                 cfg: ReservationConfig | None = None):
        if not 1 <= m <= p:
            raise ValueError(f"need 1 <= m <= p; got m={m}, p={p}")
        self.cfg = cfg or ReservationConfig()
        self.cfg.validate()
        self.gate = gate
        self.m = m
        self.p = p
        self._resp_static: float | None = None
        self._resp_dynamic: float | None = None
        self._arr_static = 0
        self._arr_dynamic = 0
        self._a_est: float | None = None
        self._next_update = self.cfg.update_period
        self.updates = 0

    # -- measurements ---------------------------------------------------------------

    def observe_arrival(self, kind: RequestKind, now: float) -> None:
        """Count an arrival (drives the ``a`` estimate and cap updates)."""
        if kind is RequestKind.DYNAMIC:
            self._arr_dynamic += 1
        else:
            self._arr_static += 1
        if now >= self._next_update:
            self._update(now)

    def observe_response(self, kind: RequestKind, response_time: float) -> None:
        """Feed a completion into the per-class response-time EWMAs."""
        if response_time <= 0:
            return
        s = self.cfg.smoothing
        if kind is RequestKind.DYNAMIC:
            prev = self._resp_dynamic
            self._resp_dynamic = (
                response_time if prev is None
                else s * response_time + (1 - s) * prev
            )
        else:
            prev = self._resp_static
            self._resp_static = (
                response_time if prev is None
                else s * response_time + (1 - s) * prev
            )

    # -- estimates --------------------------------------------------------------------

    @property
    def a_estimate(self) -> float | None:
        """Monitored arrival-rate ratio, ``None`` until enough arrivals."""
        return self._a_est

    @property
    def r_estimate(self) -> float | None:
        """Response-time approximation of the service-rate ratio."""
        if not self._resp_static or not self._resp_dynamic:
            return None
        if self._resp_dynamic <= 0:
            return None
        return min(1.0, self._resp_static / self._resp_dynamic)

    def _update(self, now: float) -> None:
        total = self._arr_static + self._arr_dynamic
        if total >= self.cfg.min_arrivals and self._arr_static > 0:
            a_new = self._arr_dynamic / self._arr_static
            s = self.cfg.smoothing
            self._a_est = (
                a_new if self._a_est is None
                else s * a_new + (1 - s) * self._a_est
            )
            self._arr_static = 0
            self._arr_dynamic = 0
        r_est = self.r_estimate
        if self._a_est is not None and self._a_est > 0 and r_est is not None:
            self.gate.theta_cap = reservation_ratio(self._a_est, r_est,
                                                    self.m, self.p)
            self.updates += 1
        while self._next_update <= now:
            self._next_update += self.cfg.update_period
