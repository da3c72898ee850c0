"""Property tests of the bitmap/oracle agreement and batch-path equivalence.

The central soundness property (DESIGN.md section 6): every genuine reply
that the naive exact filter passes *inside the bitmap's guaranteed window*
must also pass the bitmap filter — the bitmap errs only on the permissive
side (false negatives), never by dropping fresh legitimate replies.
"""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.core.bitmap_filter import BitmapFilter, BitmapFilterConfig, Decision
from repro.net.packet import PacketArray
from tests.strategies import (
    PROTECTED,
    script_to_packets as _script_to_packets,
    traffic_scripts,
)

CONFIG = BitmapFilterConfig(order=10, num_vectors=4, num_hashes=3,
                            rotation_interval=5.0)


class TestGuaranteedWindowSoundness:
    @given(events=traffic_scripts())
    @settings(max_examples=200, deadline=None)
    def test_fresh_replies_never_dropped(self, events):
        """An incoming packet whose flow sent an outgoing packet within the
        guaranteed window (k-1)*dt is always passed."""
        filt = BitmapFilter(CONFIG, PROTECTED)
        window = CONFIG.guaranteed_window
        last_outgoing = {}
        for pkt in _script_to_packets(events):
            outgoing = PROTECTED.contains_int(pkt.src)
            verdict = filt.process(pkt)
            if outgoing:
                last_outgoing[(pkt.src, pkt.sport, pkt.dst)] = pkt.ts
            else:
                key = (pkt.dst, pkt.dport, pkt.src)
                t0 = last_outgoing.get(key)
                if t0 is not None and pkt.ts - t0 < window:
                    assert verdict is Decision.PASS


class TestBatchEquivalence:
    @given(events=traffic_scripts(),
           warmup_until=st.one_of(st.none(), st.floats(0.0, 30.0)),
           stalled=st.booleans())
    # An inbound miss, then (same window) the mark that completes its bits.
    @example(events=[(1.0, False, 0), (0.5, True, 0)],
             warmup_until=None, stalled=False)
    # The mark, then the inbound packet.
    @example(events=[(1.0, True, 0), (0.5, False, 0)],
             warmup_until=None, stalled=False)
    # The same bits marked at two positions: the first mark counts.
    @example(events=[(1.0, False, 1), (0.2, True, 1), (0.2, False, 1),
                     (0.2, True, 1), (0.2, False, 1)],
             warmup_until=None, stalled=False)
    # Bits already set before the window: flow 74 (window 0) sets one of
    # flow 11's three bits, flows 84 and 113 complete the other two early
    # in window 1, so flow 11's inbound packet passes even though flow 74
    # marks that pre-set bit again *after* it.
    @example(events=[(1.0, True, 74), (5.0, True, 84), (0.1, True, 113),
                     (0.1, False, 11), (0.1, True, 74)],
             warmup_until=None, stalled=False)
    # Warm-up grace ending inside a window, with misses on both sides.
    @example(events=[(1.0, False, 0), (0.5, False, 1), (1.0, False, 2),
                     (0.2, True, 2), (0.2, False, 2)],
             warmup_until=2.0, stalled=False)
    # A stalled rotation timer: the whole batch is one window.
    @example(events=[(1.0, True, 0), (30.0, False, 0), (0.1, False, 1),
                     (0.1, True, 1)],
             warmup_until=None, stalled=True)
    # One batch straddling several rotation boundaries (and a gap > Te).
    @example(events=[(1.0, True, 0), (6.0, False, 0), (6.0, True, 1),
                     (6.0, False, 1), (6.0, False, 0), (25.0, False, 1),
                     (0.0, True, 2), (0.0, False, 2)],
             warmup_until=None, stalled=False)
    @settings(max_examples=150, deadline=None)
    def test_exact_batch_equals_scalar(self, events, warmup_until, stalled):
        """One ``process_batch`` call equals per-packet ``process``:
        verdicts, ``FilterStats`` and every bitmap byte."""
        packets = _script_to_packets(events)
        scalar = BitmapFilter(CONFIG, PROTECTED)
        batch = BitmapFilter(CONFIG, PROTECTED)
        for filt in (scalar, batch):
            if warmup_until is not None:
                filt.begin_warmup(warmup_until)
            if stalled:
                filt.stall_rotations()
        expected = [scalar.process(p) is Decision.PASS for p in packets]
        verdicts = batch.process_batch(PacketArray.from_packets(packets))
        assert verdicts.tolist() == expected
        assert batch.stats == scalar.stats
        assert batch.bitmap.current_index == scalar.bitmap.current_index
        for got, want in zip(batch.bitmap.vectors, scalar.bitmap.vectors):
            assert got.as_numpy().tobytes() == want.as_numpy().tobytes()


class TestOracleAgreement:
    @given(events=traffic_scripts())
    @settings(max_examples=100, deadline=None)
    def test_bitmap_superset_of_paper_naive_oracle(self, events):
        """Section 3.3's naive solution with T = the guaranteed window:
        whatever it passes, the bitmap passes too (the bitmap may add false
        negatives, never extra false positives inside the window).

        The paper's naive filter associates the timer with *outgoing*
        tuples only ("a timer ... is associated with the address tuple
        τ_out of each outgoing packet"), so the oracle here refreshes only
        on outgoing packets.
        """
        packets = _script_to_packets(events)
        bitmap = BitmapFilter(CONFIG, PROTECTED)
        window = CONFIG.guaranteed_window
        table = {}
        for pkt in packets:
            bitmap_verdict = bitmap.process(pkt)
            if PROTECTED.contains_int(pkt.src):
                table[(pkt.proto, pkt.src, pkt.sport, pkt.dst, pkt.dport)] = pkt.ts
            else:
                t0 = table.get((pkt.proto, pkt.dst, pkt.dport, pkt.src, pkt.sport))
                oracle_passes = t0 is not None and pkt.ts - t0 < window
                if oracle_passes:
                    assert bitmap_verdict is Decision.PASS
