"""Figure 4 regeneration: SPI vs bitmap drop rates on the clean trace.

Paper: SPI average 1.56%, bitmap 1.51%, scatter hugging slope 1.0.  Shape
criteria: both averages in the same ~1-2.5% band, SPI >= bitmap (the SPI
drops post-close packets "precisely"), and strongly correlated per-window
rates with slope near 1.
"""

import pytest

from repro.core.bitmap_filter import BitmapFilter
from repro.experiments.fig4 import run_fig4
from repro.sim.pipeline import run_filter_on_trace
from repro.spi.avltree import AvlTreeFilter
from repro.spi.hashlist import HashListFilter


class TestFig4Regeneration:
    @pytest.fixture(scope="class")
    def result(self, scale, medium_trace):
        return run_fig4(scale, medium_trace)

    def test_report_and_benchmark(self, benchmark, scale, medium_trace):
        result = benchmark.pedantic(
            lambda: run_fig4(scale, medium_trace), rounds=1, iterations=1
        )
        print("\n" + result.report())

    def test_drop_rates_in_paper_band(self, result):
        assert 0.008 < result.bitmap_drop_rate < 0.026
        assert 0.008 < result.spi_drop_rate < 0.026

    def test_spi_slightly_above_bitmap(self, result):
        """Paper ordering: 1.56% (SPI) vs 1.51% (bitmap)."""
        assert result.spi_drop_rate >= result.bitmap_drop_rate * 0.97

    def test_rates_nearly_identical(self, result):
        """Fig. 4's main message: the filters behave alike on clean traffic."""
        assert result.bitmap_drop_rate == pytest.approx(result.spi_drop_rate,
                                                        rel=0.25)

    def test_scatter_slope_near_one(self, result):
        assert 0.7 < result.fitted_slope < 1.3
        assert result.correlation > 0.7


class TestSpiVariantsAgree:
    def test_avl_matches_hashlist(self, scale, medium_trace):
        """Both SPI data structures implement identical semantics."""
        hashlist = run_filter_on_trace(
            HashListFilter(medium_trace.protected,
                           idle_timeout=scale.spi_idle_timeout),
            medium_trace,
        )
        avl = run_filter_on_trace(
            AvlTreeFilter(medium_trace.protected,
                          idle_timeout=scale.spi_idle_timeout),
            medium_trace,
        )
        assert bool((hashlist.verdicts == avl.verdicts).all())


class TestFilterThroughput:
    """Packets/second of each filter path on the clean trace."""

    def test_bitmap_batch(self, benchmark, scale, medium_trace):
        def run():
            filt = BitmapFilter(scale.bitmap_config(), medium_trace.protected)
            return filt.process_batch(medium_trace.packets)

        verdicts = benchmark.pedantic(run, rounds=1, iterations=1)
        assert len(verdicts) == len(medium_trace)

    def test_spi_hashlist_batch(self, benchmark, scale, medium_trace):
        def run():
            filt = HashListFilter(medium_trace.protected,
                                  idle_timeout=scale.spi_idle_timeout)
            return filt.process_batch(medium_trace.packets)

        verdicts = benchmark.pedantic(run, rounds=1, iterations=1)
        assert len(verdicts) == len(medium_trace)
