"""Unit tests for the analysis layer (reporting, sweep machinery, and the
cheap experiment harnesses)."""

import pytest

from repro.analysis.experiments import (
    FIG3_A_VALUES,
    fixed_master_count,
    iso_load_rate,
    run_fig3,
    run_table1,
    run_table2,
)
from repro.analysis.reporting import format_series, format_table, percent
from repro.analysis.sweep import (
    BAKEOFF_POLICIES,
    choose_masters,
    feasible_rate,
    resource_utilization,
    run_bakeoff,
)
from repro.core.policies import FlatPolicy, MSPolicy, make_policy
from repro.core.queuing import Workload
from repro.workload.traces import ADL, KSU, UCB


class TestReporting:
    def test_format_table_alignment(self):
        txt = format_table(["name", "value"], [["a", 1.5], ["bb", 22.25]])
        lines = txt.splitlines()
        assert lines[0].startswith("name")
        assert "22.25" in lines[3]

    def test_format_table_title(self):
        txt = format_table(["x"], [[1]], title="T")
        assert txt.splitlines()[0] == "T"

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_series(self):
        txt = format_series("ms", [10, 20], [1.5, 2.5])
        assert "10:1.5" in txt and "20:2.5" in txt

    def test_series_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series("x", [1], [1.0, 2.0])

    def test_percent(self):
        assert percent(42.4) == "+42%"
        assert percent(-3.0) == "-3%"


class TestSweepHelpers:
    def test_resource_utilization_scales_with_rate(self):
        cpu1, disk1 = resource_utilization(ADL, 100, 1200, 1 / 40, 16)
        cpu2, disk2 = resource_utilization(ADL, 200, 1200, 1 / 40, 16)
        assert cpu2 == pytest.approx(2 * cpu1)
        assert disk2 == pytest.approx(2 * disk1)

    def test_adl_is_disk_bound(self):
        cpu, disk = resource_utilization(ADL, 400, 1200, 1 / 40, 16)
        assert disk > cpu

    def test_ucb_is_cpu_bound(self):
        cpu, disk = resource_utilization(UCB, 1000, 1200, 1 / 40, 16)
        assert cpu > disk

    def test_feasible_rate_boundary(self):
        assert feasible_rate(UCB, 100, 1200, 1 / 40, 32)
        assert not feasible_rate(UCB, 1_000_000, 1200, 1 / 40, 32)

    def test_choose_masters_in_range(self):
        for spec in (UCB, KSU, ADL):
            m = choose_masters(spec, 500, 1200, 1 / 40, 32)
            assert 1 <= m <= 31

    def test_choose_masters_single_node(self):
        assert choose_masters(UCB, 10, 1200, 1 / 40, 1) == 1

    def test_choose_masters_infeasible_fallback(self):
        # Way past single-server capacity: the two-resource fallback kicks
        # in and still returns a sane split.
        m = choose_masters(UCB, 3000, 1200, 1 / 80, 16)
        assert 1 <= m <= 15

    def test_make_bakeoff_policy_names(self):
        masters = {"MS": 2, "MS-ns": 2, "MS-nr": 2, "MS-1": 8}
        for name in BAKEOFF_POLICIES:
            policy = make_policy(name, 8, 2, None, 0)
            assert policy.num_nodes == 8
            if name == "Flat":
                assert isinstance(policy, FlatPolicy)
            else:
                assert isinstance(policy, MSPolicy)
                assert policy.num_masters == masters[name]

    def test_iso_load_rate_hits_target(self):
        lam = iso_load_rate(ADL, 1200, 1 / 40, 32, 0.8)
        w = Workload.from_ratios(lam=lam, a=ADL.arrival_ratio_a,
                                 mu_h=1200, r=1 / 40, p=32)
        assert w.total_offered == pytest.approx(0.8 * 32)

    def test_iso_load_rate_validation(self):
        with pytest.raises(ValueError):
            iso_load_rate(ADL, 1200, 1 / 40, 32, 1.5)


class TestBakeoff:
    def test_bakeoff_runs_requested_policies(self):
        res = run_bakeoff(KSU, lam=150, r=1 / 40, p=4, duration=2.0,
                          seed=1, policies=("MS", "Flat"))
        assert set(res.reports) == {"MS", "Flat"}
        assert res.stretch("MS") >= 1.0
        assert isinstance(res.improvement("Flat"), float)

    def test_bakeoff_fixed_m(self):
        res = run_bakeoff(KSU, lam=150, r=1 / 40, p=4, duration=2.0,
                          seed=1, policies=("MS",), m=2)
        assert res.m == 2

    def test_bakeoff_leaves_passed_config_alone(self):
        from repro.sim.config import paper_sim_config

        cfg = paper_sim_config(num_nodes=4, seed=1)
        before = cfg.static_rate
        res = run_bakeoff(KSU, lam=40, r=1 / 40, p=4, duration=1.0,
                          mu_h=110.0, seed=1, policies=("MS",), m=2,
                          cfg=cfg)
        assert cfg.static_rate == before != 110.0
        assert res.stretch("MS") >= 1.0


class TestCheapHarnesses:
    def test_fig3_shape(self):
        fig3 = run_fig3()
        assert len(fig3.rows) == 12
        # Improvement grows with CGI cost for every a-curve.
        for a in FIG3_A_VALUES:
            series = fig3.series(a, "flat")
            values = [v for _, v in series]
            assert values == sorted(values)
        # Headline: up to ~60% over flat.
        assert 40.0 <= fig3.max_improvement("flat") <= 90.0
        assert "Figure 3" in fig3.render()

    def test_table1_matches_spec_within_tolerance(self):
        t1 = run_table1(n=4000)
        for row in t1.rows:
            assert row.got_pct_cgi == pytest.approx(row.spec_pct_cgi,
                                                    abs=2.5)
            assert row.got_interval == pytest.approx(row.spec_interval,
                                                     rel=0.1)
            assert row.got_html == pytest.approx(row.spec_html, rel=0.25)
            assert row.got_cgi_size == pytest.approx(row.spec_cgi_size,
                                                     rel=0.25)
        assert "Table 1" in t1.render()

    def test_table2_grid(self):
        t2 = run_table2(p_values=(32,), inv_r_values=(20, 40),
                        utilizations=(0.6,))
        assert len(t2.rows) == 3
        assert "Table 2" in t2.render()

    def test_fixed_master_count_reference(self):
        # Paper reports m=6 for p=32 and m=25 for p=128 at the reference
        # parameters; our model should land near those.
        m32 = fixed_master_count(32)
        m128 = fixed_master_count(128)
        assert 4 <= m32 <= 8
        assert 18 <= m128 <= 32
