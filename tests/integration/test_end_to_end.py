"""End-to-end integration: workload + attack + filters + scoring."""

import numpy as np
import pytest

from repro.attacks.scanner import RandomScanAttack, ScanConfig
from repro.core.bitmap_filter import BitmapFilter, BitmapFilterConfig
from repro.sim.pipeline import run_filter_on_trace
from repro.spi.avltree import AvlTreeFilter
from repro.spi.hashlist import HashListFilter
from repro.spi.naive import NaiveExactFilter
from repro.traffic.trace import Trace


@pytest.fixture(scope="module")
def attacked_trace(tiny_trace):
    attack = RandomScanAttack(
        ScanConfig(rate_pps=2000.0, start=20.0, duration=30.0, seed=5),
        tiny_trace.protected,
    ).generate()
    return tiny_trace.merged_with(
        Trace(attack, tiny_trace.protected, {"duration": tiny_trace.duration})
    )


@pytest.fixture(scope="module")
def small_cfg():
    return BitmapFilterConfig(order=13, num_vectors=4, num_hashes=3,
                              rotation_interval=5.0)


class TestAttackDefense:
    def test_bitmap_filters_most_attack_traffic(self, attacked_trace, small_cfg):
        filt = BitmapFilter(small_cfg, attacked_trace.protected)
        result = run_filter_on_trace(filt, attacked_trace)
        assert result.confusion.attack_filter_rate > 0.95

    def test_normal_traffic_mostly_unharmed(self, attacked_trace, small_cfg):
        filt = BitmapFilter(small_cfg, attacked_trace.protected)
        result = run_filter_on_trace(filt, attacked_trace)
        assert result.confusion.false_positive_rate < 0.05

    def test_all_spi_filters_also_defend(self, attacked_trace):
        for cls in (NaiveExactFilter, HashListFilter, AvlTreeFilter):
            filt = cls(attacked_trace.protected, idle_timeout=240.0)
            result = run_filter_on_trace(filt, attacked_trace)
            assert result.confusion.attack_filter_rate > 0.99, cls.__name__

    def test_spi_and_bitmap_agree_on_attack(self, attacked_trace, small_cfg):
        bitmap = run_filter_on_trace(
            BitmapFilter(small_cfg, attacked_trace.protected), attacked_trace
        )
        spi = run_filter_on_trace(
            HashListFilter(attacked_trace.protected), attacked_trace
        )
        assert bitmap.confusion.attack_filter_rate == pytest.approx(
            spi.confusion.attack_filter_rate, abs=0.02
        )

    def test_penetration_bounded_by_utilization_model(self, attacked_trace, small_cfg):
        """Measured penetration is consistent with Eq. (1) at the measured U."""
        from repro.core.parameters import penetration_probability

        filt = BitmapFilter(small_cfg, attacked_trace.protected)
        packets = attacked_trace.packets
        mid = int(np.searchsorted(packets.ts, 35.0))
        v1 = filt.process_batch(packets[:mid])
        utilization = filt.utilization()
        v2 = filt.process_batch(packets[mid:])
        predicted = penetration_probability(utilization, small_cfg.num_hashes)

        from repro.sim.metrics import score_run

        verdicts = np.concatenate([v1, v2])
        incoming = packets.directions(attacked_trace.protected) == 1
        confusion, _ = score_run(packets, verdicts, incoming)
        assert confusion.penetration_rate < predicted * 5 + 1e-3


class TestFilterRace:
    def test_bitmap_uses_far_less_memory_than_spi(self, attacked_trace, small_cfg):
        """The headline resource claim at matched defense quality."""
        bitmap = BitmapFilter(small_cfg, attacked_trace.protected)
        run_filter_on_trace(bitmap, attacked_trace)
        spi = HashListFilter(attacked_trace.protected)
        run_filter_on_trace(spi, attacked_trace)
        assert bitmap.config.memory_bytes < 10 * 1024 * 1024
        # The SPI's state grew with the attack (one state per outgoing flow
        # only, but GC lag means thousands); the bitmap is fixed-size.
        assert bitmap.config.memory_bytes == small_cfg.memory_bytes

    def test_spi_state_is_bounded_by_real_flows(self, attacked_trace):
        """Incoming scans must NOT create SPI state (no state exhaustion)."""
        spi = NaiveExactFilter(attacked_trace.protected)
        run_filter_on_trace(spi, attacked_trace)
        attack_packets = int((attacked_trace.packets.label == 1).sum())
        assert spi.num_flows < attack_packets / 10


class TestRotationUnderLoad:
    def test_rotations_happen_throughout(self, attacked_trace, small_cfg):
        filt = BitmapFilter(small_cfg, attacked_trace.protected)
        run_filter_on_trace(filt, attacked_trace)
        duration = attacked_trace.packets.ts.max()
        expected = int(duration / small_cfg.rotation_interval)
        assert abs(filt.stats.rotations - expected) <= 1
