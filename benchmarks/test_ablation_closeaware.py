"""Close-aware bitmap ablation: buying back SPI's post-close precision.

Section 4.3 grants SPI one advantage — precise post-close drops.  The
close-aware extension (``repro.core.close_aware``) approximates it with a
maturation-delayed tombstone bitmap.  This bench compares all three filters
on the same clean trace: post-close drop counts, total drop rates, false
positives, and memory.
"""

import pytest

from repro.core.bitmap_filter import BitmapFilter
from repro.core.close_aware import CloseAwareBitmapFilter, CloseAwareConfig
from repro.experiments.config import SMALL
from repro.experiments.fig2 import generate_trace
from repro.sim.metrics import score_run
from repro.spi.hashlist import HashListFilter


@pytest.fixture(scope="module")
def comparison():
    trace = generate_trace(SMALL)
    packets = trace.packets
    incoming = packets.directions(trace.protected) == 1
    results = {}

    plain = BitmapFilter(SMALL.filter_config(), trace.protected)
    verdicts = plain.process_batch(packets)
    confusion, _ = score_run(packets, verdicts, incoming, trace.duration)
    results["bitmap"] = (confusion, plain.config.memory_bytes, 0)

    aware = CloseAwareBitmapFilter(SMALL.filter_config(), trace.protected,
                                   CloseAwareConfig(grace=2.5, lifetime=20.0))
    verdicts = aware.process_batch(packets)
    confusion, _ = score_run(packets, verdicts, incoming, trace.duration)
    results["close-aware"] = (confusion, aware.memory_bytes,
                              aware.dropped_after_close)

    spi = HashListFilter(trace.protected, idle_timeout=SMALL.spi_idle_timeout)
    verdicts = spi.process_batch(packets)
    confusion, _ = score_run(packets, verdicts, incoming, trace.duration)
    results["spi"] = (confusion, spi.peak_storage_bytes,
                      spi.stats.dropped_after_close)
    return results


class TestCloseAwareAblation:
    def test_report_and_benchmark(self, benchmark, comparison):
        def summarize():
            lines = ["Close-aware bitmap ablation:",
                     f"{'filter':<14}{'drops':>8}{'post-close':>12}{'FP':>9}{'memory':>12}"]
            for name, (confusion, memory, post_close) in comparison.items():
                total = confusion.normal_dropped + confusion.background_dropped
                lines.append(
                    f"{name:<14}{total:>8}{post_close:>12}"
                    f"{confusion.false_positive_rate * 100:>8.2f}%"
                    f"{memory // 1024:>10}KiB")
            return "\n".join(lines)

        print("\n" + benchmark.pedantic(summarize, rounds=1, iterations=1))

    def test_close_aware_recovers_post_close_drops(self, comparison):
        """The extension drops a meaningful share of what SPI drops
        post-close and the plain bitmap misses entirely."""
        _, _, aware_post = comparison["close-aware"]
        _, _, spi_post = comparison["spi"]
        assert aware_post > 0
        assert aware_post >= 0.5 * spi_post

    def test_ordering_bitmap_below_close_aware(self, comparison):
        bitmap_conf, _, _ = comparison["bitmap"]
        aware_conf, _, _ = comparison["close-aware"]
        bitmap_drops = bitmap_conf.normal_dropped + bitmap_conf.background_dropped
        aware_drops = aware_conf.normal_dropped + aware_conf.background_dropped
        assert aware_drops > bitmap_drops

    def test_collateral_fp_increase_is_modest(self, comparison):
        """Tombstone collisions barely move the FP rate (only closes mark)."""
        bitmap_conf, _, _ = comparison["bitmap"]
        aware_conf, _, _ = comparison["close-aware"]
        # Post-close straggler drops ARE false positives by our ground-truth
        # labels (session traffic) — compare against SPI's FP rate, which
        # drops the same packets: close-aware must not exceed SPI + slack.
        spi_conf, _, _ = comparison["spi"]
        assert aware_conf.false_positive_rate <= (
            spi_conf.false_positive_rate + bitmap_conf.false_positive_rate + 0.003
        )

    def test_memory_stays_bitmap_class(self, comparison):
        """Close-aware memory is a small multiple of the plain bitmap —
        still constant, still far below per-flow state at ISP scale."""
        _, bitmap_mem, _ = comparison["bitmap"]
        _, aware_mem, _ = comparison["close-aware"]
        assert aware_mem <= 4 * bitmap_mem
