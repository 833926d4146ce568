"""Unit tests for Theorem 1: theta bounds, master sizing, optimality."""

import json
import math
from pathlib import Path

import pytest

from repro.analysis.experiments import iso_load_rate
from repro.core.queuing import Workload, flat_stretch, ms_stretch
from repro.core.theorem import (
    design_for_m,
    min_masters,
    optimal_masters,
    reservation_ratio,
    theta2_closed_form,
    theta_bounds,
    theta_feasible_interval,
    theta_opt,
)
from repro.workload.traces import ADL, KSU, UCB


@pytest.fixture
def w():
    return Workload.from_ratios(lam=1000, a=3 / 7, mu_h=1200, r=1 / 40,
                                p=32)


class TestThetaBounds:
    def test_upper_root_matches_closed_form(self, w):
        """The numerically solved theta_2 equals the derived closed form
        m/p + (r/a)(m/p - 1)."""
        for m in (4, 8, 12, 16):
            _, t2 = theta_bounds(w, m)
            assert t2 == pytest.approx(theta2_closed_form(w, m), rel=1e-6)

    def test_roots_ordered(self, w):
        for m in (4, 8, 16, 24):
            t1, t2 = theta_bounds(w, m)
            assert t1 <= t2

    def test_sm_below_sf_strictly_inside(self, w):
        sf = flat_stretch(w)
        for m in (6, 8, 12):
            t1, t2 = theta_bounds(w, m)
            lo = max(t1, 0.0)
            for frac in (0.25, 0.5, 0.75):
                theta = lo + (t2 - lo) * frac
                if not 0.0 <= theta < t2:
                    continue
                sm = ms_stretch(w, m, theta)
                assert sm.total < sf + 1e-9

    def test_sm_above_sf_outside(self, w):
        sf = flat_stretch(w)
        m = 8
        _, t2 = theta_bounds(w, m)
        theta = min(1.0, t2 + 0.1)
        sm = ms_stretch(w, m, theta)
        if sm.stable:
            assert sm.total > sf - 1e-9

    def test_theta2_at_most_one(self, w):
        for m in range(max(2, min_masters(w)), w.p):
            _, t2 = theta_bounds(w, m)
            assert t2 <= 1.0 + 1e-9

    def test_rejects_degenerate_m(self, w):
        with pytest.raises(ValueError):
            theta_bounds(w, 0)
        with pytest.raises(ValueError):
            theta_bounds(w, w.p)

    def test_rejects_infeasible_workload(self):
        bad = Workload.from_ratios(lam=100000, a=1.0, mu_h=1200, r=1 / 40,
                                   p=8)
        with pytest.raises(ValueError):
            theta_bounds(bad, 2)


class TestReservationRatio:
    def test_matches_clamped_closed_form(self, w):
        for m in (4, 8, 16):
            expected = min(1.0, max(0.0, theta2_closed_form(w, m)))
            assert reservation_ratio(w.a, w.r, m, w.p) == pytest.approx(
                expected)

    def test_zero_dynamic_traffic(self):
        assert reservation_ratio(0.0, 0.05, 4, 32) == 1.0

    def test_monotone_in_m(self, w):
        caps = [reservation_ratio(w.a, w.r, m, w.p) for m in range(1, w.p)]
        assert caps == sorted(caps)

    def test_small_m_clamps_to_zero(self):
        # With few masters and expensive CGI, nothing should be admitted.
        assert reservation_ratio(a=0.1, r=1 / 20, m=1, p=64) == 0.0

    def test_all_masters_cap_is_one(self):
        assert reservation_ratio(a=0.5, r=1 / 40, m=32, p=32) == \
            pytest.approx(1.0)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            reservation_ratio(0.5, 0.05, 0, 32)


class TestMinMasters:
    def test_condition(self, w):
        m0 = min_masters(w)
        # At m0, theta_2 >= 0; below it, theta_2 < 0.
        assert theta2_closed_form(w, m0) >= -1e-9
        if m0 > 1:
            assert theta2_closed_form(w, m0 - 1) < 1e-9

    def test_formula(self, w):
        expected = max(1, math.ceil(w.p * w.r / (w.a + w.r) - 1e-12))
        assert min_masters(w) == expected


class TestOptimalMasters:
    def test_beats_flat(self, w):
        design = optimal_masters(w)
        assert design.sm < flat_stretch(w)

    def test_beats_every_other_m_at_midpoint_rule(self, w):
        best = optimal_masters(w)
        for m in range(1, w.p + 1):
            cand = design_for_m(w, m)
            if cand is not None:
                assert best.sm <= cand.sm + 1e-9

    def test_numeric_theta_at_least_as_good(self, w):
        mid = optimal_masters(w, method="midpoint")
        num = optimal_masters(w, method="numeric")
        assert num.sm <= mid.sm + 1e-6

    def test_infeasible_raises(self):
        bad = Workload.from_ratios(lam=100000, a=1.0, mu_h=1200, r=1 / 40,
                                   p=8)
        with pytest.raises(ValueError):
            optimal_masters(bad)

    def test_theta_in_unit_interval(self, w):
        design = optimal_masters(w)
        assert 0.0 <= design.theta <= 1.0

    def test_fig3_reference_point(self):
        """The paper's headline analytic case: a=4/6, 1/r=80 gives ~60%+
        improvement over flat (Figure 3a's top-right)."""
        w = Workload.from_ratios(lam=1000, a=4 / 6, mu_h=1200, r=1 / 80,
                                 p=32)
        design = optimal_masters(w)
        sf = flat_stretch(w)
        improvement = (sf / design.sm - 1) * 100
        assert improvement > 50.0

    def test_more_expensive_cgi_fewer_masters(self):
        """As CGI gets more expensive, more nodes must be slaves."""
        ms = []
        for inv_r in (10, 20, 40, 80):
            w = Workload.from_ratios(lam=1000, a=3 / 7, mu_h=1200,
                                     r=1.0 / inv_r, p=32)
            ms.append(optimal_masters(w).m)
        assert ms == sorted(ms, reverse=True)


class TestThetaOpt:
    def test_midpoint_rule(self, w):
        m = 8
        t1, t2 = theta_bounds(w, m)
        expected = min(1.0, max((t1 + t2) / 2, 0.0))
        assert theta_opt(w, m, "midpoint") == pytest.approx(expected)

    def test_numeric_within_feasible_interval(self, w):
        m = 8
        lo, hi = theta_feasible_interval(w, m)
        theta = theta_opt(w, m, "numeric")
        assert lo - 1e-9 <= theta <= hi + 1e-9

    def test_unknown_method(self, w):
        with pytest.raises(ValueError):
            theta_opt(w, 8, "magic")


class TestDegenerateWorkloads:
    """Validation satellite: estimator edge cases (a = 0, zero demands)
    must produce diagnoses, not ZeroDivisionErrors."""

    @pytest.fixture
    def static_only(self):
        # a = 0: all-static stream, the master/slave split is meaningless.
        return Workload.from_ratios(lam=500, a=0.0, mu_h=1200, r=1 / 40,
                                    p=16)

    def test_theta_bounds_diagnoses_no_dynamic_traffic(self, static_only):
        with pytest.raises(ValueError, match="no dynamic traffic"):
            theta_bounds(static_only, 4)

    def test_closed_form_diagnoses_no_dynamic_traffic(self, static_only):
        with pytest.raises(ValueError, match="flat design"):
            theta2_closed_form(static_only, 4)

    def test_optimal_masters_diagnoses_no_dynamic_traffic(self, static_only):
        with pytest.raises(ValueError, match="no dynamic traffic"):
            optimal_masters(static_only)

    def test_nonfinite_parameters_diagnosed(self):
        # Zero/NaN demand estimates show up as infinite mu (1/0 demand).
        bad = Workload(lam_h=100, lam_c=50, mu_h=math.inf,
                       mu_c=math.inf, p=16)
        with pytest.raises(ValueError, match="non-finite or non-positive"):
            theta_bounds(bad, 4)

    def test_message_names_call_site(self, static_only):
        with pytest.raises(ValueError, match="theta_bounds:"):
            theta_bounds(static_only, 4)
        with pytest.raises(ValueError, match="theta2_closed_form:"):
            theta2_closed_form(static_only, 4)


#: ``repr(theta_bounds(w, m))`` for every m, and ``optimal_masters(w)``'s
#: ``m``/``theta``, on an ADL/UCB/KSU x p x utilisation grid, recorded
#: when ``theta_bounds`` still built its quadratic with
#: ``numpy.polynomial`` arithmetic.
PIN_PATH = Path(__file__).with_name("data") / "theorem_pin.json"
PIN_TRACES = {"ADL": ADL, "UCB": UCB, "KSU": KSU}


def _pinned_cases():
    return sorted(json.loads(PIN_PATH.read_text()).items())


@pytest.mark.parametrize("key,expected", _pinned_cases(),
                         ids=[k for k, _ in _pinned_cases()])
def test_theorem_solve_is_bit_identical(key, expected):
    name, p, util = key.split("/")
    spec, p = PIN_TRACES[name], int(p)
    lam = iso_load_rate(spec, 1200.0, 1 / 40, p, float(util))
    w = Workload.from_ratios(lam=lam, a=spec.arrival_ratio_a, mu_h=1200.0,
                             r=1 / 40, p=p)
    got = {str(m): repr(theta_bounds(w, m)) for m in range(1, p)}
    assert got == expected["bounds"]
    design = optimal_masters(w)
    assert (design.m, repr(design.theta)) == (expected["m"],
                                              expected["theta"])
    assert design.theta_bounds == theta_bounds(w, design.m)
