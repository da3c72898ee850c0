"""A close-aware bitmap filter — extending the paper's design space.

Section 4.3 concedes the one precision the bitmap lacks: "the SPI filter
knows the exact time of closed connections and can therefore drop packets
more precisely".  Packets arriving shortly after a connection's FIN/RST
still match the bitmap (the mark lives for up to Te) but a close-tracking
SPI filter drops them.

This module closes most of that gap with Bloom-only state: a second,
*tombstone* bitmap records the keys of closed flows.  Two twists make it
work without per-flow state:

1. **Maturation.**  Tombstone marks are written to every vector *except*
   the current one, and lookups consult only the current vector — so a
   tombstone takes effect only at the next tombstone rotation, between 0
   and ``grace`` seconds after the close.  The FIN/ACK close handshake
   therefore still passes, mirroring the SPI filter's ``close_grace``.
2. **Revival.**  Any outgoing *non-closing* packet on a flow clears
   nothing (Bloom filters cannot delete) but re-marks the data bitmap, and
   tombstones expire after roughly ``(k_t - 1) * grace`` seconds, bounding
   the damage of tombstone hash collisions on reused tuples.

An incoming packet passes iff its key is marked in the data bitmap AND not
(yet) tombstoned.  Memory cost: one extra {k_t x n} bitmap.  Collateral
false-positive risk: a legitimate flow whose key collides with a recent
close — probability ``U_t ** m`` with the tombstone utilization ``U_t``
tiny (only closes mark it).

``benchmarks/test_ablation_closeaware.py`` measures where this lands
between the plain bitmap and the SPI filter on post-close stragglers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bitmap import Bitmap
from repro.core.bitmap_filter import BitmapFilter, BitmapFilterConfig, Decision
from repro.core.filter_api import PacketFilterMixin
from repro.net.address import AddressSpace
from repro.net.flow import bitmap_key_incoming, bitmap_key_outgoing
from repro.net.packet import Direction, Packet, TcpFlags
from repro.net.protocols import IPPROTO_TCP

_CLOSING = int(TcpFlags.FIN | TcpFlags.RST)


@dataclass(frozen=True)
class CloseAwareConfig:
    """Parameters of the tombstone side of a close-aware filter."""

    grace: float = 2.5          # tombstone rotation interval (activation delay)
    lifetime: float = 20.0      # how long a matured tombstone blocks

    def __post_init__(self) -> None:
        if self.grace <= 0 or self.lifetime <= 0:
            raise ValueError("grace and lifetime must be positive")
        if self.lifetime < 2 * self.grace:
            raise ValueError("lifetime must cover at least two grace periods")

    @property
    def num_vectors(self) -> int:
        """k_t = ceil(lifetime / grace) + 1 (the always-fresh current one)."""
        import math

        return math.ceil(self.lifetime / self.grace) + 1


class TombstoneBitmap:
    """A rotating bitmap whose marks activate one rotation after writing.

    ``mark`` writes every vector except the current; ``test`` reads only the
    current vector.  A mark is therefore invisible until the rotation after
    it was written and expires when its last vector is cleared.
    """

    def __init__(self, num_vectors: int, order: int):
        self._bitmap = Bitmap(num_vectors, order)

    def mark(self, indices) -> None:
        indices = tuple(indices)
        current = self._bitmap.current_index
        for i, vector in enumerate(self._bitmap.vectors):
            if i != current:
                vector.set_many(indices)

    def test(self, indices) -> bool:
        return self._bitmap.test_current(indices)

    def rotate(self) -> None:
        self._bitmap.rotate()

    @property
    def bitmap(self) -> Bitmap:
        return self._bitmap

    def utilization(self) -> float:
        return self._bitmap.utilization()


class CloseAwareBitmapFilter(PacketFilterMixin):
    """The paper's bitmap filter plus tombstoned closes.

    Same interface as :class:`~repro.core.bitmap_filter.BitmapFilter` for
    the scalar path (``process``/``advance_to``), with the extra tombstone
    bookkeeping.  Memory: ``config.memory_bytes`` for the data bitmap plus
    ``tombstones.memory_bytes``.
    """

    def __init__(
        self,
        config: BitmapFilterConfig,
        protected: AddressSpace,
        close_config: CloseAwareConfig = CloseAwareConfig(),
        start_time: float = 0.0,
    ):
        self.config = config
        self.close_config = close_config
        self.protected = protected
        self._inner = BitmapFilter(config, protected, start_time=start_time)
        self.tombstones = TombstoneBitmap(close_config.num_vectors, config.order)
        self._next_tombstone_rotation = start_time + close_config.grace
        self.closes_recorded = 0
        self.dropped_after_close = 0

    # -- time ---------------------------------------------------------------

    def advance_to(self, ts: float) -> None:
        self._inner.advance_to(ts)
        while self._next_tombstone_rotation <= ts:
            self.tombstones.rotate()
            self._next_tombstone_rotation += self.close_config.grace

    # -- filtering -------------------------------------------------------------

    def process(self, pkt: Packet) -> Decision:
        self.advance_to(pkt.ts)
        direction = pkt.direction(self.protected)
        if direction is Direction.OUTGOING:
            self._inner.stats.outgoing += 1
            key = bitmap_key_outgoing(pkt.proto, pkt.src, pkt.sport, pkt.dst)
            indices = self._inner.hashes.indices(key)
            self._inner.bitmap.mark(indices)
            if pkt.proto == IPPROTO_TCP and int(pkt.flags) & _CLOSING:
                self.tombstones.mark(indices)
                self.closes_recorded += 1
            return Decision.PASS
        if direction is Direction.INCOMING:
            self._inner.stats.incoming += 1
            key = bitmap_key_incoming(pkt.proto, pkt.dst, pkt.dport, pkt.src)
            indices = self._inner.hashes.indices(key)
            if not self._inner.bitmap.test_current(indices):
                self._inner.stats.incoming_dropped += 1
                return Decision.DROP
            if self.tombstones.test(indices):
                self._inner.stats.incoming_dropped += 1
                self.dropped_after_close += 1
                return Decision.DROP
            self._inner.stats.incoming_passed += 1
            # An incoming FIN also tombstones the flow (either side closes).
            if pkt.proto == IPPROTO_TCP and int(pkt.flags) & _CLOSING:
                self.tombstones.mark(indices)
                self.closes_recorded += 1
            return Decision.PASS
        return Decision.PASS

    def process_batch(self, packets) -> np.ndarray:
        """Batch wrapper (scalar loop; this is an ablation filter)."""
        verdicts = np.ones(len(packets), dtype=bool)
        for i, pkt in enumerate(packets):
            verdicts[i] = self.process(pkt) is Decision.PASS
        return verdicts

    # -- introspection -------------------------------------------------------------

    @property
    def stats(self):
        return self._inner.stats

    @property
    def memory_bytes(self) -> int:
        return (self.config.memory_bytes
                + self.tombstones.bitmap.memory_bytes)

    def __repr__(self) -> str:
        return (f"CloseAwareBitmapFilter({self._inner!r}, "
                f"tombstones=k{self.close_config.num_vectors} "
                f"grace={self.close_config.grace:g}s)")
