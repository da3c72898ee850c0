"""Unit tests for the hybrid bitmap→cuckoo verification filter.

The composition semantics the differential suite relies on, stated
directly: outgoing traffic feeds the exact table, verified incoming
admits must be confirmed or flipped to DROP, warm-up and degraded mode
are pass-throughs, and the whole stack snapshots and restores with its
table intact.
"""

import io

import numpy as np

from repro.core.bitmap_filter import BitmapFilter, BitmapFilterConfig
from repro.core.cuckoo import pack_flow
from repro.core.filter_api import Decision, PacketFilter
from repro.core.hybrid import HybridVerifiedFilter, VerifySpec
from repro.core.persistence import load_filter, save_filter
from repro.net.packet import PacketArray
from repro.telemetry import MetricsRegistry, use_registry
from tests.conftest import make_reply, make_request


CONFIG = BitmapFilterConfig(order=12, num_vectors=4, num_hashes=3,
                            rotation_interval=5.0)


def make_hybrid(protected, spec=None, **config_fields):
    config = (BitmapFilterConfig(order=12, num_vectors=4, num_hashes=3,
                                 rotation_interval=5.0, **config_fields)
              if config_fields else CONFIG)
    return HybridVerifiedFilter(BitmapFilter(config, protected),
                                spec or VerifySpec(initial_order=4))


def force_false_admit(filt, client, server, sport=7777):
    """Mark a never-sent flow in the *bitmap only*: the next reply is a
    bitmap PASS with no exact-table entry — a false admit by construction."""
    filt.inner.mark_key(6, client, sport, server)
    return make_reply(make_request(1.0, client, server, sport=sport), 2.0)


class TestSemantics:
    def test_satisfies_packet_filter_protocol(self, protected):
        assert isinstance(make_hybrid(protected), PacketFilter)

    def test_legitimate_flow_confirmed(self, protected, client_addr,
                                       server_addr):
        filt = make_hybrid(protected)
        request = make_request(1.0, client_addr, server_addr)
        assert filt.process(request) is Decision.PASS
        assert filt.table.occupancy == 1
        assert filt.process(make_reply(request, 1.5)) is Decision.PASS
        assert (filt.confirmed, filt.denied) == (1, 0)

    def test_false_admit_denied(self, protected, client_addr, server_addr):
        filt = make_hybrid(protected)
        reply = force_false_admit(filt, client_addr, server_addr)
        assert filt.inner.would_pass_incoming(reply)   # bitmap says PASS
        assert filt.process(reply) is Decision.DROP    # table says no
        assert (filt.confirmed, filt.denied) == (0, 1)
        assert filt.measured_fpr == 1.0

    def test_bitmap_drop_never_reaches_table(self, protected, client_addr,
                                             server_addr):
        filt = make_hybrid(protected)
        unsolicited = make_reply(
            make_request(1.0, client_addr, server_addr, sport=9321), 2.0)
        assert filt.process(unsolicited) is Decision.DROP
        assert filt.table.lookups == 0

    def test_warmup_admits_never_denied(self, protected, client_addr,
                                        server_addr):
        filt = make_hybrid(protected)
        filt.begin_warmup(10.0)
        reply = make_reply(
            make_request(1.0, client_addr, server_addr, sport=4242), 2.0)
        assert filt.process(reply) is Decision.PASS    # grace window
        assert (filt.confirmed, filt.denied) == (0, 0)

    def test_degraded_mode_is_transparent(self, protected, client_addr,
                                          server_addr):
        filt = make_hybrid(protected)
        filt.fail()
        request = make_request(1.0, client_addr, server_addr)
        assert filt.process(request) is Decision.PASS  # outgoing always
        assert filt.table.occupancy == 0               # but nothing learned
        reply = make_reply(request, 1.5)
        assert filt.process(reply) is Decision.DROP    # FAIL_CLOSED verbatim
        assert filt.table.lookups == 0

    def test_scope_limits_verification(self, protected, server_addr):
        scoped_net = protected.networks[0]
        spec = VerifySpec(initial_order=4, scope=(str(scoped_net),))
        filt = make_hybrid(protected, spec)
        in_scope = force_false_admit(filt, scoped_net.host(9), server_addr)
        out_scope = force_false_admit(filt, protected.networks[1].host(9),
                                      server_addr, sport=7778)
        assert filt.process(in_scope) is Decision.DROP
        assert filt.process(out_scope) is Decision.PASS  # not verified
        assert (filt.confirmed, filt.denied) == (0, 1)

    def test_mark_key_punches_both_tiers(self, protected, client_addr,
                                         server_addr):
        filt = make_hybrid(protected)
        filt.mark_key(6, client_addr, 5555, server_addr)
        reply = make_reply(
            make_request(1.0, client_addr, server_addr, sport=5555), 2.0)
        assert filt.process(reply) is Decision.PASS
        lo, hi = pack_flow(6, client_addr, 5555, server_addr)
        assert filt.table.contains(lo, hi, filt.next_rotation)

    def test_would_pass_incoming_consults_table(self, protected, client_addr,
                                                server_addr):
        filt = make_hybrid(protected)
        reply = force_false_admit(filt, client_addr, server_addr)
        assert filt.inner.would_pass_incoming(reply)
        assert not filt.would_pass_incoming(reply)
        assert (filt.confirmed, filt.denied) == (0, 0)  # probe, not verdict


class TestBatchPaths:
    def _mixed_packets(self, protected, server_addr, n=120):
        packets = []
        for i in range(n):
            client = protected.networks[i % 4].host(20 + i % 50)
            request = make_request(0.2 + i * 0.05, client, server_addr,
                                   sport=30_000 + i)
            packets.append(request)
            packets.append(make_reply(request, request.ts + 0.4))
        packets.sort(key=lambda pkt: pkt.ts)
        return PacketArray.from_packets(packets)

    def test_exact_batch_matches_scalar(self, protected, server_addr):
        batch = self._mixed_packets(protected, server_addr)
        scalar = make_hybrid(protected)
        exact = make_hybrid(protected)
        want = np.array([scalar.process(p) is Decision.PASS
                         for p in batch.to_packets()])
        got = exact.process_batch(batch)
        assert np.array_equal(got, want)
        assert exact.table.state_digest() == scalar.table.state_digest()
        assert (exact.confirmed, exact.denied) == (scalar.confirmed,
                                                   scalar.denied)

    def test_stats_move_denials_to_dropped(self, protected, client_addr,
                                           server_addr):
        filt = make_hybrid(protected)
        reply = force_false_admit(filt, client_addr, server_addr)
        filt.process(reply)
        inner_stats = filt.inner.stats
        stats = filt.stats
        assert stats.incoming_dropped == inner_stats.incoming_dropped + 1
        assert stats.incoming_passed == inner_stats.incoming_passed - 1
        # Adjusted view is a copy; the inner record stays untouched.
        assert filt.inner.stats.incoming_passed == inner_stats.incoming_passed


class TestAdaptiveResize:
    def test_measured_fpr_triggers_one_doubling(self, protected, client_addr,
                                                server_addr):
        spec = VerifySpec(initial_order=4, resize_fpr=0.05, fpr_window=8)
        filt = make_hybrid(protected, spec)
        for i in range(8):
            reply = force_false_admit(filt, client_addr, server_addr,
                                      sport=6000 + i)
            assert filt.process(reply) is Decision.DROP
        assert filt.table.grow_causes["fpr"] == 1
        assert filt.table.order == 5

    def test_lifetime_defaults_to_expiry_timer(self, protected):
        filt = make_hybrid(protected)
        assert filt.table.lifetime == CONFIG.expiry_timer  # Te = k*dt
        custom = make_hybrid(protected, VerifySpec(initial_order=4,
                                                   lifetime=3.5))
        assert custom.table.lifetime == 3.5


class TestSnapshotAndTelemetry:
    def test_snapshot_round_trip_keeps_table(self, protected, client_addr,
                                             server_addr):
        filt = make_hybrid(protected)
        for i in range(30):
            request = make_request(1.0 + i * 0.1, client_addr, server_addr,
                                   sport=20_000 + i)
            filt.process(request)
            filt.process(make_reply(request, request.ts + 0.05))
        buffer = io.BytesIO()
        save_filter(filt, buffer)
        buffer.seek(0)
        restored = load_filter(buffer)
        assert isinstance(restored, HybridVerifiedFilter)
        assert restored.layers == filt.layers
        assert restored.table.state_digest() == filt.table.state_digest()
        request = make_request(4.2, client_addr, server_addr, sport=20_005)
        assert restored.process(make_reply(request, 4.3)) is Decision.PASS

    def test_hybrid_counters_published(self, protected, client_addr,
                                       server_addr):
        with use_registry(MetricsRegistry()) as registry:
            filt = make_hybrid(protected)
            request = make_request(1.0, client_addr, server_addr)
            filt.process(request)
            filt.process(make_reply(request, 1.5))
            filt.process(force_false_admit(filt, client_addr, server_addr))
        values = {metric.name: metric.value for metric in registry.metrics()
                  if hasattr(metric, "value")}
        assert values["repro_hybrid_confirmed_total"] == 1
        assert values["repro_hybrid_denied_total"] == 1
        assert values["repro_hybrid_inserts_total"] >= 1
        assert values["repro_hybrid_occupancy"] >= 1
