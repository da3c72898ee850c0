"""Failure injection: odd clocks, adversarial inputs, resource exhaustion."""

import numpy as np
import pytest

from repro.core.bitmap_filter import BitmapFilter, BitmapFilterConfig, Decision
from repro.core.hashing import HashFamily
from repro.net.packet import Packet, PacketArray, TcpFlags
from repro.net.protocols import IPPROTO_TCP
from repro.spi.hashlist import HashListFilter
from tests.conftest import make_reply, make_request


class TestClockAnomalies:
    def test_out_of_order_packets_do_not_crash(self, small_config, protected,
                                               client_addr, server_addr):
        """Timestamps going backwards (clock skew, reordering) are tolerated:
        rotations never rewind, packets are judged against current state."""
        filt = BitmapFilter(small_config, protected)
        request = make_request(30.0, client_addr, server_addr)
        filt.process(request)
        early_reply = make_reply(request, 12.0)  # before the request's ts!
        verdict = filt.process(early_reply)
        assert verdict in (Decision.PASS, Decision.DROP)
        assert filt.bitmap.rotations == 6  # rotations at t=5..30, not rewound

    def test_rotation_not_rewound_by_stale_timestamp(self, small_config, protected):
        filt = BitmapFilter(small_config, protected)
        filt.advance_to(100.0)
        before = filt.bitmap.rotations
        filt.advance_to(50.0)
        assert filt.bitmap.rotations == before

    def test_giant_time_gap_runs_all_rotations(self, small_config, protected,
                                               client_addr, server_addr):
        """A quiet weekend (no packets) must fully expire the bitmap."""
        filt = BitmapFilter(small_config, protected)
        request = make_request(0.0, client_addr, server_addr)
        filt.process(request)
        two_days = 2 * 24 * 3600.0
        filt.advance_to(two_days)
        assert filt.bitmap.is_empty()
        assert filt.process(make_reply(request, two_days + 1.0)) is Decision.DROP

    def test_duplicate_timestamps(self, small_config, protected, client_addr,
                                  server_addr):
        filt = BitmapFilter(small_config, protected)
        request = make_request(1.0, client_addr, server_addr)
        reply = make_reply(request, 1.0)  # same instant
        assert filt.process(request) is Decision.PASS
        assert filt.process(reply) is Decision.PASS

    def test_batch_with_all_packets_in_one_window(
        self, small_config, protected, client_addr, server_addr
    ):
        request = make_request(0.1, client_addr, server_addr)
        batch = PacketArray.from_packets([request, make_reply(request, 0.2)])
        filt = BitmapFilter(small_config, protected)
        assert filt.process_batch(batch).all()
        assert filt.bitmap.rotations == 0


class TestAdversarialHashing:
    def _find_colliding_key(self, hashes, target_indices, protected, order):
        """Brute-force a spoofed tuple colliding with a victim's key."""
        import itertools

        for trial in itertools.count():
            src = 0x30000000 + trial
            if protected.contains_int(src):
                continue
            key = (IPPROTO_TCP, 0xAC100001 + (trial % 3), 80, src)
            if all(index in target_indices for index in hashes.indices(key)):
                return key
            if trial > 3_000_000:
                pytest.skip("no collision found in budget")

    def test_known_seed_enables_crafted_penetration(self, protected):
        """With the hash seed public and a tiny bitmap, an attacker can craft
        a tuple whose bits are covered by existing marks."""
        config = BitmapFilterConfig(order=6, num_vectors=4, num_hashes=2,
                                    rotation_interval=5.0, seed=1234)
        filt = BitmapFilter(config, protected)
        victim_client = protected.networks[0].host(1)
        # Legitimate outgoing traffic marks some bits.
        marked = set()
        for sport in range(1024, 1060):
            pkt = make_request(1.0, victim_client, 0x08080808, sport=sport)
            filt.process(pkt)
            key = (IPPROTO_TCP, victim_client, sport, 0x08080808)
            marked.update(filt.hashes.indices(key))
        crafted = self._find_colliding_key(filt.hashes, marked, protected, 6)
        proto, daddr, dport, saddr = crafted
        attack = Packet(2.0, proto, saddr, 31337, daddr, dport, TcpFlags.SYN)
        assert filt.process(attack) is Decision.PASS  # the crafted hit

    def test_secret_seed_defeats_the_crafted_tuple(self, protected):
        """The same crafted tuple misses once the deployment randomizes the
        seed — why HashFamily takes a seed at all."""
        config_known = BitmapFilterConfig(order=6, num_vectors=4, num_hashes=2,
                                          rotation_interval=5.0, seed=1234)
        filt = BitmapFilter(config_known, protected)
        victim_client = protected.networks[0].host(1)
        marked = set()
        for sport in range(1024, 1060):
            filt.process(make_request(1.0, victim_client, 0x08080808, sport=sport))
            marked.update(filt.hashes.indices(
                (IPPROTO_TCP, victim_client, sport, 0x08080808)))
        crafted = self._find_colliding_key(filt.hashes, marked, protected, 6)
        proto, daddr, dport, saddr = crafted
        attack = Packet(2.0, proto, saddr, 31337, daddr, dport, TcpFlags.SYN)

        config_secret = BitmapFilterConfig(order=6, num_vectors=4, num_hashes=2,
                                           rotation_interval=5.0, seed=99999)
        secret = BitmapFilter(config_secret, protected)
        for sport in range(1024, 1060):
            secret.process(make_request(1.0, victim_client, 0x08080808,
                                        sport=sport))
        # Not guaranteed to miss (the bitmap is tiny), but with ~36 marked
        # keys in 64 bits the crafted tuple should not be a sure hit.
        hits = 0
        for reseed in range(5):
            cfg = BitmapFilterConfig(order=6, num_vectors=4, num_hashes=2,
                                     rotation_interval=5.0, seed=5000 + reseed)
            f = BitmapFilter(cfg, protected)
            for sport in range(1024, 1060):
                f.process(make_request(1.0, victim_client, 0x08080808,
                                       sport=sport))
            if f.process(attack.with_ts(2.0)) is Decision.PASS:
                hits += 1
        assert hits < 5  # the collision does not survive re-seeding


class TestResourceExhaustion:
    def test_insider_grows_spi_state_but_not_bitmap(self, protected, small_config):
        """An insider's outgoing random scan is a state-exhaustion attack on
        SPI filters; the bitmap's memory cannot grow."""
        from repro.attacks.insider import InsiderAttack

        attacker = protected.networks[0].host(10)
        pollution = InsiderAttack(attacker, rate_pps=500.0, start=0.0,
                                  duration=30.0).generate(protected)
        spi = HashListFilter(protected, idle_timeout=240.0)
        spi.process_batch(pollution)
        assert spi.num_flows > 10_000  # one state per scan tuple

        bitmap = BitmapFilter(small_config, protected)
        bitmap.process_batch(pollution)
        assert bitmap.config.memory_bytes == small_config.memory_bytes

    def test_incoming_flood_creates_no_spi_state(self, protected):
        from repro.attacks.ddos import syn_flood

        victim = protected.networks[0].host(20)
        flood = syn_flood(victim, 80, rate_pps=2000.0, start=0.0, duration=10.0)
        spi = HashListFilter(protected)
        verdicts = spi.process_batch(flood)
        assert not verdicts.any()
        assert spi.num_flows == 0


class TestBoundaryValues:
    @pytest.mark.parametrize("sport,dport", [(0, 0), (0, 65535), (65535, 0)])
    def test_extreme_ports(self, small_config, protected, client_addr,
                           server_addr, sport, dport):
        filt = BitmapFilter(small_config, protected)
        request = make_request(1.0, client_addr, server_addr, sport=sport,
                               dport=dport)
        assert filt.process(request) is Decision.PASS
        assert filt.process(make_reply(request, 1.1)) is Decision.PASS

    def test_zero_and_max_addresses_as_remote(self, small_config, protected,
                                              client_addr):
        filt = BitmapFilter(small_config, protected)
        for remote in (0x00000001, 0xFFFFFFFE):
            request = make_request(1.0, client_addr, remote)
            assert filt.process(request) is Decision.PASS
            assert filt.process(make_reply(request, 1.1)) is Decision.PASS

    def test_zero_size_packets(self, small_config, protected, client_addr,
                               server_addr):
        filt = BitmapFilter(small_config, protected)
        pkt = Packet(1.0, IPPROTO_TCP, client_addr, 1, server_addr, 2, size=0)
        assert filt.process(pkt) is Decision.PASS
