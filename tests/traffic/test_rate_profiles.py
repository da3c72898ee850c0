"""Tests for non-homogeneous session arrivals (diurnal/burst profiles)."""

import numpy as np
import pytest

from repro.traffic.generator import (
    ClientNetworkWorkload,
    WorkloadConfig,
    burst_profile,
    diurnal_profile,
)


def _packet_rate(trace, start, end):
    ts = trace.packets.ts
    count = int(((ts >= start) & (ts < end)).sum())
    return count / (end - start)


class TestBurstProfile:
    def test_multiplier_values(self):
        profile = burst_profile([(10.0, 20.0, 5.0)], base=1.0)
        assert profile(5.0) == 1.0
        assert profile(10.0) == 5.0
        assert profile(19.999) == 5.0
        assert profile(20.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            burst_profile([(10.0, 5.0, 2.0)])
        with pytest.raises(ValueError):
            burst_profile([(0.0, 1.0, 0.0)])

    def test_flash_crowd_in_generated_trace(self):
        config = WorkloadConfig(duration=60.0, session_rate=15.0, seed=9)
        workload = ClientNetworkWorkload(
            config, rate_profile=burst_profile([(20.0, 40.0, 4.0)]))
        trace = workload.generate()
        quiet = _packet_rate(trace, 0.0, 20.0)
        burst = _packet_rate(trace, 20.0, 40.0)
        assert burst > 2.5 * quiet

    def test_flash_crowd_is_not_dropped_by_the_filter(self):
        """Section 2's point: a volume surge of *legitimate* traffic must
        not hurt a symmetry-based filter (unlike a volume trigger)."""
        from repro.core.bitmap_filter import BitmapFilter, BitmapFilterConfig

        config = WorkloadConfig(duration=60.0, session_rate=15.0, seed=9,
                                background_noise_fraction=0.0)
        workload = ClientNetworkWorkload(
            config, rate_profile=burst_profile([(20.0, 40.0, 4.0)]))
        trace = workload.generate()
        filt = BitmapFilter(
            BitmapFilterConfig(order=14, num_vectors=4, num_hashes=3,
                               rotation_interval=5.0),
            trace.protected,
        )
        verdicts = filt.process_batch(trace.packets)
        incoming = trace.packets.directions(trace.protected) == 1
        in_burst = incoming & (trace.packets.ts >= 20) & (trace.packets.ts < 40)
        drop_rate = float((~verdicts[in_burst]).mean())
        assert drop_rate < 0.05


class TestDiurnalProfile:
    def test_range_and_peak_location(self):
        profile = diurnal_profile(peak_factor=3.0, period=100.0, peak_at=0.5)
        values = [profile(t) for t in np.linspace(0, 100, 201)]
        assert min(values) == pytest.approx(1.0, abs=1e-6)
        assert max(values) == pytest.approx(3.0, abs=1e-6)
        assert profile(50.0) == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            diurnal_profile(peak_factor=0.5)
        with pytest.raises(ValueError):
            diurnal_profile(period=0)

    def test_generated_trace_follows_the_cycle(self):
        config = WorkloadConfig(duration=120.0, session_rate=15.0, seed=3)
        workload = ClientNetworkWorkload(
            config,
            rate_profile=diurnal_profile(peak_factor=3.0, period=120.0,
                                         peak_at=0.5),
        )
        trace = workload.generate()
        trough = _packet_rate(trace, 0.0, 20.0)
        peak = _packet_rate(trace, 50.0, 70.0)
        assert peak > 1.5 * trough


class TestDeterminism:
    def test_profiled_generation_is_seeded(self):
        config = WorkloadConfig(duration=30.0, session_rate=10.0, seed=4)
        profile = burst_profile([(10.0, 20.0, 2.0)])
        a = ClientNetworkWorkload(config, rate_profile=profile).generate()
        b = ClientNetworkWorkload(config, rate_profile=profile).generate()
        assert len(a) == len(b)
        assert bool(np.array_equal(a.packets.data, b.packets.data))

    def test_no_profile_path_unchanged(self, tiny_trace):
        """Adding the feature must not disturb existing seeded traces."""
        from repro.traffic.generator import ClientNetworkWorkload, WorkloadConfig

        config = WorkloadConfig(duration=60.0, target_pps=300.0, seed=99,
                                hosts_per_network=20)
        regenerated = ClientNetworkWorkload(config).generate()
        assert len(regenerated) == len(tiny_trace)
        assert bool(np.array_equal(regenerated.packets.data,
                                   tiny_trace.packets.data))
