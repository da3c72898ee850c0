"""The executable abstract: every headline claim, asserted end-to-end.

Each test quotes a sentence of the paper's abstract/conclusions and checks
it against this reproduction at CI scale.  These intentionally overlap with
the benchmark suite — they are the one-file summary a reviewer reads first.
"""

import pytest

from repro.experiments.config import SMALL


@pytest.fixture(scope="module")
def fig5_result():
    from repro.experiments.fig5 import run_fig5

    return run_fig5(SMALL)


@pytest.fixture(scope="module")
def fig4_result():
    from repro.experiments.fig4 import run_fig4

    return run_fig4(SMALL)


class TestAbstractClaims:
    def test_small_memory_filters_most_attack_traffic(self, fig5_result):
        """'with a small amount of memory (less than 1 megabyte), more than
        95% of attack traffic can be filtered out'"""
        memory = SMALL.bitmap_config().memory_bytes
        assert memory < 1024 * 1024
        assert fig5_result.attack_filter_rate > 0.95

    def test_bitmap_matches_spi_effectiveness(self, fig4_result):
        """'The effectiveness of the bitmap filter is similar to that of an
        SPI filter' (Fig. 4: 1.51% vs 1.56% drop rates)."""
        assert fig4_result.bitmap_drop_rate == pytest.approx(
            fig4_result.spi_drop_rate, rel=0.3
        )

    def test_but_with_much_less_storage(self):
        """'...but it requires much less storage space' (Table 1: 8 MB vs
        76.8 MB at 2.56M concurrent connections)."""
        from repro.experiments.table1 import paper_storage_rows

        rows = {row["structure"]: row["storage_bytes"]
                for row in paper_storage_rows()}
        bitmap = next(v for k, v in rows.items() if "bitmap" in k)
        spi = rows["hash+link-list (Linux)"]
        assert bitmap * 9 < spi

    def test_and_less_computation(self):
        """'...and computational resources' — constant-time ops vs
        population-dependent ones (deterministic op counts)."""
        from repro.core.costmodel import profile_structures

        profiles = profile_structures(populations=(1_000, 8_000), probes=300)
        bitmap = profiles["bitmap filter"]
        assert bitmap[0].lookup.total == bitmap[-1].lookup.total
        avl = profiles["AVL-tree"]
        assert avl[-1].lookup.total > avl[0].lookup.total

    def test_conclusion_90_to_99_percent(self, fig5_result):
        """'an ISP can efficiently filter out 90% to 99% of attack traffic
        for client networks' — we land above the band's top."""
        assert fig5_result.attack_filter_rate > 0.99

    def test_normal_traffic_survives(self, fig5_result):
        """The implicit other half: defense without collateral damage."""
        assert fig5_result.run.confusion.false_positive_rate < 0.03


class TestMechanismClaims:
    def test_based_on_traffic_symmetry(self, fig5_result):
        """'Based on the symmetry of network traffic in both temporal and
        spatial domains' — penetration is exactly the Eq. (1) bloom
        collision probability, nothing protocol-specific."""
        assert fig5_result.penetration_rate == pytest.approx(
            fig5_result.predicted_penetration, rel=2.0, abs=5e-4
        )

    def test_client_initiated_protocols_compatible(self):
        """'completely compatible with all client initiated Internet
        protocols' — every default application's traffic flows."""
        from repro.analysis.composition import composition
        from repro.core.bitmap_filter import BitmapFilter
        from repro.experiments.fig2 import generate_trace

        trace = generate_trace(SMALL)
        filt = BitmapFilter(SMALL.bitmap_config(), trace.protected)
        verdicts = filt.process_batch(trace.packets)
        survivors = trace.packets[verdicts]
        before = composition(trace.packets, trace.protected)
        after = composition(survivors, trace.protected)
        for app in ("http", "https", "smtp", "dns", "ssh"):
            assert after.fraction_of(app) == pytest.approx(
                before.fraction_of(app), rel=0.15
            ), app
