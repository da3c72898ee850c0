"""Tests for repro.sim.pipeline — the experiment harness."""

import numpy as np
import pytest

from repro.core.bitmap_filter import BitmapFilter
from repro.sim.pipeline import run_filter_on_trace, windowed_drop_rates
from repro.spi.hashlist import HashListFilter
from repro.spi.naive import NaiveExactFilter


class TestRunFilterOnTrace:
    def test_bitmap_run(self, tiny_trace, small_config):
        filt = BitmapFilter(small_config, tiny_trace.protected)
        result = run_filter_on_trace(filt, tiny_trace)
        assert len(result.verdicts) == len(tiny_trace)
        assert result.incoming_mask.sum() > 0
        assert 0.0 <= result.incoming_drop_rate < 0.2
        assert result.filter_stats["incoming"] == int(result.incoming_mask.sum())
        assert result.wall_time > 0

    def test_spi_run(self, tiny_trace):
        filt = HashListFilter(tiny_trace.protected, idle_timeout=240.0)
        result = run_filter_on_trace(filt, tiny_trace)
        assert len(result.verdicts) == len(tiny_trace)
        assert result.filter_stats["flows_kept"] == filt.num_flows

    def test_background_dropped_by_both(self, tiny_trace, small_config):
        bitmap = run_filter_on_trace(
            BitmapFilter(small_config, tiny_trace.protected), tiny_trace
        )
        spi = run_filter_on_trace(
            NaiveExactFilter(tiny_trace.protected), tiny_trace
        )
        # The random background radiation cannot match any real flow.
        assert bitmap.confusion.background_dropped > 0
        assert bitmap.confusion.background_passed <= 2  # false negatives possible
        assert spi.confusion.background_passed == 0

    def test_false_positive_rate_small_on_clean_trace(self, tiny_trace, small_config):
        result = run_filter_on_trace(
            BitmapFilter(small_config, tiny_trace.protected), tiny_trace
        )
        assert result.confusion.false_positive_rate < 0.05

    def test_unsupported_filter_type(self, tiny_trace):
        with pytest.raises(TypeError):
            run_filter_on_trace(object(), tiny_trace)


class TestWindowedDropRates:
    def test_shape_and_range(self, tiny_trace, small_config):
        result = run_filter_on_trace(
            BitmapFilter(small_config, tiny_trace.protected), tiny_trace
        )
        xs, rates = windowed_drop_rates(result, window=10.0)
        assert len(xs) == len(rates)
        assert bool(np.all((rates >= 0) & (rates <= 1)))
        assert len(xs) == int(np.ceil(len(result.series.seconds) / 10.0))
