"""Small-scale runs of every experiment, asserting the paper's shapes.

These are the CI-fast versions of the benchmark harness: same code paths,
small scale, loose-but-meaningful tolerances.  The benchmarks in
``benchmarks/`` run the same experiments at MEDIUM scale with tighter
bands and timing.
"""

import pytest

from repro.experiments.config import SMALL, get_scale
from repro.experiments.fig2 import generate_trace, run_fig2


@pytest.fixture(scope="module")
def small_trace():
    return generate_trace(SMALL)


class TestScales:
    def test_lookup(self):
        assert get_scale("small") is SMALL
        with pytest.raises(KeyError):
            get_scale("galactic")

    def test_ratios_preserved(self):
        for name in ("small", "medium", "large"):
            scale = get_scale(name)
            assert scale.attack_multiplier == 20.0
            assert scale.expiry_timer == 20.0
            assert scale.num_vectors == 4
            assert scale.num_hashes == 3

    def test_bitmap_config_override(self):
        cfg = SMALL.filter_config(order=10)
        assert cfg.order == 10
        assert cfg.num_vectors == 4


class TestFig2(object):
    def test_lifetime_shape(self, small_trace):
        result = run_fig2(SMALL, small_trace)
        assert result.lifetime_percentiles[90] < 150
        assert result.lifetime_percentiles[95] < 360
        assert result.lifetime_frac_over_515 < 0.02

    def test_delay_shape(self, small_trace):
        result = run_fig2(SMALL, small_trace)
        assert result.delay_frac_under_0_8 > 0.92
        assert result.delay_frac_under_2_8 > 0.97

    def test_delay_comb_exists(self, small_trace):
        """Fig 2b: peaks beyond 10s exist (server keep-alive comb)."""
        from repro.experiments.fig2 import delay_comb_offsets

        result = run_fig2(SMALL, small_trace)
        offsets = delay_comb_offsets(result)
        assert offsets, "no delay-comb peaks found"

    def test_report_renders(self, small_trace):
        text = run_fig2(SMALL, small_trace).report()
        assert "paper" in text and "measured" in text


class TestFig4:
    def test_drop_rates_similar_and_small(self, small_trace):
        from repro.experiments.fig4 import run_fig4

        result = run_fig4(SMALL, small_trace)
        assert 0.005 < result.bitmap_drop_rate < 0.035
        assert 0.005 < result.spi_drop_rate < 0.035
        # The filters agree: Fig 4's slope-1 scatter.
        assert result.bitmap_drop_rate == pytest.approx(result.spi_drop_rate,
                                                        rel=0.4)
        assert result.correlation > 0.5
        assert 0.5 < result.fitted_slope < 1.5


class TestFig5:
    def test_filter_rate_shape(self, small_trace):
        from repro.experiments.fig5 import run_fig5

        result = run_fig5(SMALL, small_trace)
        assert result.attack_filter_rate > 0.995
        assert result.penetration_rate < 5e-3
        # Eq.(1) consistency within an order of magnitude.
        assert result.penetration_rate < result.predicted_penetration * 10 + 1e-4

    def test_utilization_in_paper_band(self, small_trace):
        """The scaled run stays in the paper's utilization regime (~4%)."""
        from repro.experiments.fig5 import run_fig5

        result = run_fig5(SMALL, small_trace)
        assert 0.005 < result.steady_state_utilization < 0.15


class TestSec41:
    def test_capacity_numbers(self):
        from repro.experiments.sec41 import run_sec41

        result = run_sec41(measure_trials=50_000)
        caps = {row["target_penetration"]: row["max_connections"]
                for row in result.capacity_rows}
        assert caps[0.10] == pytest.approx(167_000, rel=0.02)
        assert caps[0.05] == pytest.approx(125_000, rel=0.05)
        assert caps[0.01] == pytest.approx(83_000, rel=0.02)
        assert result.memory_bytes == 512 * 1024
        assert result.recommended_m == 3

    def test_empirical_check_close_to_eq2(self):
        from repro.core.parameters import penetration_probability_for_load
        from repro.experiments.sec41 import run_sec41

        result = run_sec41(measure_trials=100_000)
        predicted = penetration_probability_for_load(
            result.measured_connections, 3, result.measured_order
        )
        # Poisson statistics at tiny p: generous band.
        assert result.measured_penetration < predicted * 4 + 1e-4


class TestSec52:
    def test_insider_raises_utilization_as_predicted(self):
        from repro.experiments.sec52 import run_sec52

        result = run_sec52(SMALL)
        baseline = result.scenarios[0]
        assert baseline.measured_increase > 0
        assert baseline.measured_increase == pytest.approx(
            baseline.predicted_increase, rel=0.6
        )

    def test_mitigations_reduce_impact(self):
        from repro.experiments.sec52 import run_sec52

        result = run_sec52(SMALL)
        baseline, larger_n, shorter_te = result.scenarios
        assert larger_n.attacked_utilization < baseline.attacked_utilization
        assert shorter_te.attacked_utilization < baseline.attacked_utilization
        assert larger_n.attacked_penetration < baseline.attacked_penetration


class TestSweep:
    def test_predictions_track_measurements(self):
        from repro.experiments.sweep import run_sweep

        result = run_sweep(trials=10_000)
        for point in result.points:
            assert point.measured <= point.predicted * 2.5 + 5e-3
            assert point.measured >= point.predicted_exact * 0.3 - 5e-3

    def test_u_curve_minimum_not_at_extremes(self):
        from repro.experiments.sweep import run_sweep

        result = run_sweep(trials=10_000)
        measured = [p.measured for p in result.optimum_curve]
        assert measured[0] > min(measured)


class TestWorm:
    def test_outbreak_and_filtering(self):
        from repro.experiments.worm import run_worm

        result = run_worm(SMALL)
        assert result.time_to_half > 0
        assert result.final_infected > 0
        assert result.inbound_scan_count > 0
        assert result.scan_filter_rate > 0.95
