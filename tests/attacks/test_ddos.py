"""Tests for repro.attacks.ddos — floods and scans."""

import numpy as np

from repro.attacks.ddos import fin_scan, syn_flood, udp_flood
from repro.net.packet import PacketLabel, TcpFlags
from repro.net.protocols import IPPROTO_TCP, IPPROTO_UDP

VICTIM = 0xAC100A14  # 172.16.10.20


class TestSynFlood:
    def test_shape(self):
        flood = syn_flood(VICTIM, 80, rate_pps=500.0, start=10.0, duration=4.0)
        assert len(flood) == 2000
        assert bool(np.all(flood.dst == VICTIM))
        assert bool(np.all(flood.dport == 80))
        assert bool(np.all(flood.proto == IPPROTO_TCP))
        assert bool(np.all(flood.flags == int(TcpFlags.SYN)))
        assert bool(np.all(flood.label == int(PacketLabel.ATTACK)))

    def test_spoofed_sources(self):
        flood = syn_flood(VICTIM, 80, rate_pps=1000.0, start=0.0, duration=2.0)
        assert len(np.unique(flood.src)) > 1900

    def test_time_window(self):
        flood = syn_flood(VICTIM, 80, rate_pps=100.0, start=5.0, duration=3.0)
        assert flood.ts.min() >= 5.0
        assert flood.ts.max() <= 8.0 + 1e-6


class TestFinScan:
    def test_shape(self):
        scan = fin_scan(VICTIM, rate_pps=200.0, start=0.0, duration=5.0)
        assert len(scan) == 1000
        assert bool(np.all(scan.flags == int(TcpFlags.FIN)))
        assert bool(np.all(scan.dst == VICTIM))

    def test_sweeps_ports(self):
        scan = fin_scan(VICTIM, rate_pps=1000.0, start=0.0, duration=5.0)
        assert len(np.unique(scan.dport)) > 3000


class TestUdpFlood:
    def test_shape(self):
        flood = udp_flood(VICTIM, rate_pps=300.0, start=0.0, duration=2.0)
        assert len(flood) == 600
        assert bool(np.all(flood.proto == IPPROTO_UDP))
        assert bool(np.all(flood.size == 1400))

    def test_bandwidth_scales_with_size(self):
        small = udp_flood(VICTIM, rate_pps=100.0, start=0.0, duration=1.0,
                          packet_size=100)
        assert bool(np.all(small.size == 100))

    def test_deterministic(self):
        a = udp_flood(VICTIM, rate_pps=100.0, start=0.0, duration=1.0, seed=3)
        b = udp_flood(VICTIM, rate_pps=100.0, start=0.0, duration=1.0, seed=3)
        assert bool(np.array_equal(a.data, b.data))


class TestBitmapDefends:
    def test_bitmap_drops_entire_syn_flood(self, small_config, protected):
        """Floods aimed at a client host that never spoke are fully dropped."""
        from repro.core.bitmap_filter import BitmapFilter

        victim = protected.networks[0].host(20)
        flood = syn_flood(victim, 80, rate_pps=500.0, start=0.0, duration=4.0)
        filt = BitmapFilter(small_config, protected)
        verdicts = filt.process_batch(flood)
        assert not verdicts.any()
