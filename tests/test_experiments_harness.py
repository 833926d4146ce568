"""Tiny-scale integration tests of the experiment harnesses.

The benchmarks run these at real scale; here they run at toy scale so the
code paths (grid construction, aggregation, chart rendering) stay covered
by the fast suite.
"""

import pytest

from repro.analysis.experiments import (
    FIG5_CONFIGS,
    run_fig3,
    run_fig4,
    run_fig5,
    run_table1,
    run_table2,
    run_table3,
)
from repro.workload.noise import NoiseConfig

pytestmark = pytest.mark.integration


class TestFig3Harness:
    def test_render_includes_table_and_plot(self):
        out = run_fig3().render()
        assert "Figure 3" in out
        assert "legend:" in out
        assert "MS>flat %" in out

    def test_series_accessor(self):
        result = run_fig3(a_values=(0.25,), inv_r_values=(10, 20))
        series = result.series(0.25, "flat")
        assert [x for x, _ in series] == [10, 20]
        with pytest.raises(KeyError):
            result.series(0.25, "bogus")


class TestFig4Harness:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig4(p_values=(4,), inv_r_values=(40,),
                        utilizations=(0.6,), base_duration=24.0, seed=3)

    def test_grid_size(self, result):
        assert len(result.results) == 3  # three traces

    def test_improvements_accessors(self, result):
        assert len(result.improvements("Flat")) == 3
        assert isinstance(result.max_improvement("MS-nr"), float)

    def test_render_has_table_and_bars(self, result):
        out = result.render()
        assert "Figure 4" in out
        assert "vs MS-nr" in out  # grouped bar chart section

    def test_utilizations_recorded(self, result):
        assert all(u == 0.6 for u in result.utilizations.values())


class TestFig5Harness:
    def test_runs_and_renders(self):
        configs = {4: (("UCB", 0.6, 40), ("ADL", 0.6, 40))}
        result = run_fig5(p_values=(4,), duration=16.0, configs=configs,
                          seed=5)
        assert len(result.rows) == 2
        out = result.render()
        assert "Figure 5" in out
        assert "fixed vs adaptive" in out
        assert result.m_fixed[4] >= 1


class TestTableHarnesses:
    def test_table1_rows(self):
        result = run_table1(n=1500)
        assert {r.name for r in result.rows} == {"DEC", "UCB", "KSU",
                                                 "ADL"}

    def test_table2_respects_grid(self):
        result = run_table2(p_values=(4,), inv_r_values=(40,),
                            utilizations=(0.6,))
        assert len(result.rows) == 3
        assert all(p == 4 for _, p, _, _, _ in result.rows)

    def test_table3_tiny(self):
        noise = NoiseConfig(bg_rate=0.5, seed=1)
        result = run_table3(rates=(30.0,), duration=8.0,
                            comparisons=("MS-1",), noise=noise)
        assert len(result.rows) == 3  # one per trace
        assert "Table 3" in result.render()
        for row in result.rows:
            assert row.gap == pytest.approx(row.simulated - row.actual)
