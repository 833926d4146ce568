"""Online estimation of the Theorem-1 ``Workload`` parameters.

The paper's Section-4 heuristic is explicitly online: theta'_2 is
"recomputed online from the monitored arrival ratio ``a``" and the RSRC
CPU weight ``w`` comes from sampling.  This module closes that loop for
the whole Theorem-1 parameter vector — from a stream of *completed
requests* it maintains EWMA estimates of

* ``a``        — dynamic/static arrival ratio (``lam_c / lam_h``),
* ``1/mu_h``   — mean static service demand,
* ``1/mu_c``   — mean dynamic service demand (so ``r = mu_c/mu_h``),
* ``w``        — CPU share of dynamic demand (the RSRC weight), and
* ``lam``      — aggregate arrival rate,

which is exactly enough to rebuild a :class:`~repro.core.queuing.Workload`
and re-solve ``theta_bounds`` / ``optimal_masters`` mid-run.

Observations are folded into the EWMAs once per controller tick (the
"window"): per-tick sample means are the window statistic, and the EWMA
smooths across windows, mirroring the response-ratio feedback loop in
:class:`repro.core.reservation.ReservationController` — but driven by
measured *demands* instead of the response-time proxy, which is what a
control plane with visibility into completions can afford.

Confidence guards keep a cold or thin window from ever actuating: the
estimator reports :attr:`ready` only after both request classes have
delivered a minimum number of samples and a minimum number of non-empty
windows has been folded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.queuing import Workload

__all__ = ["EstimatorConfig", "WorkloadEstimate", "WorkloadEstimator"]


@dataclass(frozen=True)
class EstimatorConfig:
    """Window/confidence knobs for :class:`WorkloadEstimator`.

    smoothing:
        EWMA weight of the newest window (1.0 = no memory).  The default
        favours responsiveness: a workload shift is ~90% absorbed after
        five non-empty windows.
    min_class_samples:
        Lifetime samples required *per request class* before the
        estimator declares itself ready.  Static-only or dynamic-only
        streams therefore never actuate — ``a`` would be degenerate.
    warm_windows:
        Non-empty windows that must fold before :attr:`ready`.
    """

    smoothing: float = 0.35
    min_class_samples: int = 25
    warm_windows: int = 2

    def validate(self) -> None:
        if not 0.0 < self.smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        if self.min_class_samples < 1:
            raise ValueError("min_class_samples must be >= 1")
        if self.warm_windows < 1:
            raise ValueError("warm_windows must be >= 1")


@dataclass(frozen=True)
class WorkloadEstimate:
    """One folded snapshot of the estimator state (Nones while cold)."""

    a: Optional[float]
    r: Optional[float]
    w: Optional[float]
    rate: Optional[float]
    samples: int
    ready: bool


class WorkloadEstimator:
    """EWMA estimator of the Theorem-1 workload from completed requests.

    Feed completions with :meth:`observe` (both substrates' adapters poll
    their one request ledger, ``MetricsCollector``, for each row's kind and
    ``(cpu, io)`` split), then :meth:`fold` once per control tick.

    >>> est = WorkloadEstimator(EstimatorConfig(min_class_samples=2,
    ...                                         warm_windows=1))
    >>> for i in range(4):
    ...     est.observe(kind=0, cpu=1 / 1200, io=0.0)       # static
    ...     est.observe(kind=1, cpu=0.6 / 30, io=0.4 / 30)  # dynamic
    >>> snap = est.fold(elapsed=1.0)
    >>> snap.ready, round(snap.a, 3), round(snap.w, 3)
    (True, 1.0, 0.6)
    >>> round(1.0 / snap.r)    # r = mu_c / mu_h = 1/40
    40
    """

    __slots__ = ("cfg", "_n_static", "_n_dynamic", "_d_static", "_d_dynamic",
                 "_cpu_dynamic", "_a_est", "_ds_est", "_dd_est", "_w_est",
                 "_rate_est", "_windows", "_total_static", "_total_dynamic")

    def __init__(self, cfg: Optional[EstimatorConfig] = None) -> None:
        self.cfg = cfg or EstimatorConfig()
        self.cfg.validate()
        # Current (unfolded) window accumulators.
        self._n_static = 0
        self._n_dynamic = 0
        self._d_static = 0.0
        self._d_dynamic = 0.0
        self._cpu_dynamic = 0.0
        # EWMA state across folded windows.
        self._a_est: Optional[float] = None
        self._ds_est: Optional[float] = None
        self._dd_est: Optional[float] = None
        self._w_est: Optional[float] = None
        self._rate_est: Optional[float] = None
        self._windows = 0
        self._total_static = 0
        self._total_dynamic = 0

    # -- feeding ---------------------------------------------------------------

    def observe(self, kind: int, cpu: float, io: float) -> None:
        """Record one completed request (``kind`` 0=static, 1=dynamic)."""
        demand = cpu + io
        if kind:
            self._n_dynamic += 1
            self._d_dynamic += demand
            self._cpu_dynamic += cpu
        else:
            self._n_static += 1
            self._d_static += demand

    # -- folding ---------------------------------------------------------------

    def _ewma(self, old: Optional[float], new: float) -> float:
        if old is None:
            return new
        g = self.cfg.smoothing
        return (1.0 - g) * old + g * new

    def fold(self, elapsed: float) -> WorkloadEstimate:
        """Fold the current window (``elapsed`` seconds) into the EWMAs."""
        n_s, n_d = self._n_static, self._n_dynamic
        if n_s or n_d:
            self._windows += 1
            self._total_static += n_s
            self._total_dynamic += n_d
            if n_s:
                self._ds_est = self._ewma(self._ds_est, self._d_static / n_s)
                # a is only measurable against a non-empty static window;
                # an all-dynamic window still drags the EWMA via the next
                # mixed window's ratio.
                self._a_est = self._ewma(self._a_est, n_d / n_s)
            if n_d:
                self._dd_est = self._ewma(self._dd_est, self._d_dynamic / n_d)
                if self._d_dynamic > 0.0:
                    self._w_est = self._ewma(
                        self._w_est, self._cpu_dynamic / self._d_dynamic)
            if elapsed > 0.0:
                self._rate_est = self._ewma(self._rate_est,
                                            (n_s + n_d) / elapsed)
        self._n_static = self._n_dynamic = 0
        self._d_static = self._d_dynamic = self._cpu_dynamic = 0.0
        return self.snapshot()

    # -- reading ---------------------------------------------------------------

    @property
    def samples(self) -> int:
        """Lifetime folded completions (both classes)."""
        return self._total_static + self._total_dynamic

    @property
    def ready(self) -> bool:
        """True once the confidence guards allow actuation."""
        return (self._windows >= self.cfg.warm_windows
                and self._total_static >= self.cfg.min_class_samples
                and self._total_dynamic >= self.cfg.min_class_samples
                and self._a_est is not None and self._a_est > 0.0
                and self._ds_est is not None and self._ds_est > 0.0
                and self._dd_est is not None and self._dd_est > 0.0
                and self._rate_est is not None and self._rate_est > 0.0)

    @property
    def a(self) -> Optional[float]:
        return self._a_est

    @property
    def r(self) -> Optional[float]:
        """``r = mu_c / mu_h`` = mean static demand / mean dynamic demand."""
        if (self._ds_est is None or self._dd_est is None
                or self._dd_est <= 0.0):
            return None
        return self._ds_est / self._dd_est

    @property
    def w(self) -> Optional[float]:
        return self._w_est

    @property
    def rate(self) -> Optional[float]:
        return self._rate_est

    def snapshot(self) -> WorkloadEstimate:
        return WorkloadEstimate(a=self._a_est, r=self.r, w=self._w_est,
                                rate=self._rate_est, samples=self.samples,
                                ready=self.ready)

    def workload(self, p: int) -> Optional[Workload]:
        """The estimated Theorem-1 workload, or None while not ready."""
        if not self.ready:
            return None
        assert self._ds_est is not None and self._rate_est is not None
        r = self.r
        assert self._a_est is not None and r is not None
        return Workload.from_ratios(lam=self._rate_est, a=self._a_est,
                                    mu_h=1.0 / self._ds_est, r=r, p=p)
