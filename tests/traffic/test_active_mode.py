"""Tests for active-mode (server-initiated) sessions in the workload."""

import random

import numpy as np
import pytest

from repro.core.bitmap_filter import BitmapFilter, BitmapFilterConfig
from repro.net.packet import TcpFlags
from repro.traffic.applications import (
    active_ftp_profile,
    default_application_mix,
    p2p_profile,
)
from repro.traffic.generator import ClientNetworkWorkload, WorkloadConfig
from repro.traffic.workload import SessionFactory, SessionSpec

CLIENT = 0xAC100A0A
SERVER = 0x08080808

_SYN = int(TcpFlags.SYN)


def _build(profile, seed=0):
    factory = SessionFactory(random.Random(seed))
    spec = SessionSpec(profile=profile, client_addr=CLIENT, client_port=30000,
                       server_addr=SERVER, server_port=profile.server_ports[0],
                       start_ts=10.0)
    return factory.build(spec)


class TestInboundChannelGeneration:
    def test_active_ftp_has_inbound_syn(self):
        pkts = _build(active_ftp_profile())
        inbound_syns = [p for p in pkts
                        if p[2] == SERVER and p[6] == _SYN]
        assert len(inbound_syns) == 1

    def test_p2p_has_one_to_three_channels(self):
        counts = set()
        for seed in range(12):
            pkts = _build(p2p_profile(), seed=seed)
            inbound_syns = [p for p in pkts if p[2] == SERVER and p[6] == _SYN]
            counts.add(len(inbound_syns))
        assert counts <= {1, 2, 3}
        assert len(counts) > 1

    def test_punch_precedes_inbound_syn(self):
        """With punch probability 1, an outgoing packet from the announced
        local port appears just before each inbound SYN."""
        pkts = _build(active_ftp_profile(hole_punch_probability=1.0), seed=3)
        for i, p in enumerate(pkts):
            if p[2] == SERVER and p[6] == _SYN:
                local_port = p[5]
                earlier_out = [q for q in pkts[:i]
                               if q[2] == CLIENT and q[3] == local_port]
                assert earlier_out, "no punch packet before the inbound SYN"

    def test_no_punch_when_disabled(self):
        pkts = _build(active_ftp_profile(hole_punch_probability=0.0), seed=3)
        for i, p in enumerate(pkts):
            if p[2] == SERVER and p[6] == _SYN:
                local_port = p[5]
                earlier_out = [q for q in pkts[:i]
                               if q[2] == CLIENT and q[3] == local_port]
                assert not earlier_out

    def test_timestamps_sorted(self):
        pkts = _build(p2p_profile(), seed=5)
        times = [p[0] for p in pkts]
        assert times == sorted(times)

    def test_default_mix_has_no_inbound_channels(self):
        for profile in default_application_mix():
            assert profile.inbound_channels == (0, 0)


class TestFilterCompatibilityInWorkload:
    def _run(self, punch_probability):
        mix = list(default_application_mix()) + [
            p2p_profile(weight=0.15, hole_punch_probability=punch_probability)
        ]
        config = WorkloadConfig(duration=60.0, target_pps=250.0, seed=31,
                                background_noise_fraction=0.0)
        trace = ClientNetworkWorkload(config, mix=mix).generate()
        filt = BitmapFilter(
            BitmapFilterConfig(order=14, num_vectors=4, num_hashes=3,
                               rotation_interval=5.0),
            trace.protected,
        )
        verdicts = filt.process_batch(trace.packets)
        # Inbound channel SYNs: incoming TCP pure-SYN packets.
        pkts = trace.packets
        incoming = pkts.directions(trace.protected) == 1
        inbound_syn = incoming & (pkts.flags == _SYN)
        if not inbound_syn.any():
            pytest.skip("no inbound channels generated")
        return float(verdicts[inbound_syn].mean())

    def test_punching_saves_p2p_channels(self):
        assert self._run(punch_probability=1.0) > 0.95

    def test_legacy_clients_lose_channels(self):
        assert self._run(punch_probability=0.0) < 0.05
