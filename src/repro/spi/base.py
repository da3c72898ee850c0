"""Shared front end for the stateful packet inspection baselines.

The SPI semantics (Sections 2 / 4.3): the filter keeps per-flow state for
every *outgoing* connection; an incoming packet passes only if it matches an
existing, unexpired flow; idle flows are deleted after ``idle_timeout``
seconds by a periodic garbage collector that must visit kept states — the
O(n) cost Table 1 charges against SPI designs.

Unlike the bitmap filter, an SPI filter also tracks TCP connection teardown:
"the SPI filter knows the exact time of closed connections and can therefore
drop packets more precisely than the bitmap filter" (Section 4.3).  Once a
FIN or RST is seen on a flow, incoming packets arriving more than a short
close-handshake grace period later are dropped even though the state has not
yet been garbage-collected.

Concrete subclasses provide only the state store (dict, hash+linked-list, or
AVL tree); the traffic semantics live here so the three baselines are
behaviourally identical and differ only in data-structure costs.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.filter_api import Decision, PacketFilterMixin
from repro.net.address import AddressSpace
from repro.net.flow import FlowKey, flow_key_of_packet
from repro.net.packet import Direction, Packet, TcpFlags

if TYPE_CHECKING:
    import numpy as np

    from repro.net.packet import PacketArray

#: The paper's Table 1 footnote (b): one flow state is ~30 bytes (addresses,
#: ports, connection state, timestamp, structure pointers).
FLOW_STATE_BYTES = 30

_CLOSING_FLAGS = int(TcpFlags.FIN | TcpFlags.RST)


class FlowState:
    """Mutable per-flow record: activity expiry plus close bookkeeping."""

    __slots__ = ("expires_at", "closed_at")

    def __init__(self, expires_at: float, closed_at: Optional[float] = None):
        self.expires_at = expires_at
        self.closed_at = closed_at

    def __repr__(self) -> str:
        return f"FlowState(expires_at={self.expires_at}, closed_at={self.closed_at})"


@dataclass
class SpiStats:
    """Counters accumulated by an SPI filter."""

    outgoing: int = 0
    incoming: int = 0
    incoming_passed: int = 0
    incoming_dropped: int = 0
    dropped_after_close: int = 0
    internal: int = 0
    transit: int = 0
    inserts: int = 0
    refreshes: int = 0
    gc_runs: int = 0
    gc_removed: int = 0
    peak_flows: int = 0

    @property
    def incoming_drop_rate(self) -> float:
        if not self.incoming:
            return 0.0
        return self.incoming_dropped / self.incoming

    def as_dict(self) -> dict:
        return {
            "outgoing": self.outgoing,
            "incoming": self.incoming,
            "incoming_passed": self.incoming_passed,
            "incoming_dropped": self.incoming_dropped,
            "dropped_after_close": self.dropped_after_close,
            "internal": self.internal,
            "transit": self.transit,
            "inserts": self.inserts,
            "refreshes": self.refreshes,
            "gc_runs": self.gc_runs,
            "gc_removed": self.gc_removed,
            "peak_flows": self.peak_flows,
        }


class StatefulFilter(PacketFilterMixin, abc.ABC):
    """Common SPI behaviour over an abstract flow-state store.

    Parameters
    ----------
    protected:
        The client address space this filter defends.
    idle_timeout:
        Seconds of inactivity after which a flow is eligible for deletion
        (default 240 s, the Windows TIME_WAIT value the paper uses).
    gc_interval:
        How often the garbage collector sweeps expired flows.
    close_grace:
        Seconds after the first FIN/RST during which incoming packets are
        still accepted (covers the close handshake); later arrivals on a
        closed flow are dropped.
    """

    def __init__(
        self,
        protected: AddressSpace,
        idle_timeout: float = 240.0,
        gc_interval: float = 10.0,
        close_grace: float = 2.0,
        start_time: float = 0.0,
    ):
        if idle_timeout <= 0 or gc_interval <= 0:
            raise ValueError("timeouts must be positive")
        if close_grace < 0:
            raise ValueError("close grace cannot be negative")
        self.protected = protected
        self.idle_timeout = idle_timeout
        self.gc_interval = gc_interval
        self.close_grace = close_grace
        self.stats = SpiStats()
        self._next_gc = start_time + gc_interval

    # -- store interface (implemented by subclasses) ---------------------------

    @abc.abstractmethod
    def _get(self, key: FlowKey) -> Optional[FlowState]:
        """Return the stored state for ``key``, or None."""

    @abc.abstractmethod
    def _insert(self, key: FlowKey, state: FlowState) -> None:
        """Insert a new state for a key not currently present."""

    @abc.abstractmethod
    def _gc(self, now: float) -> int:
        """Remove every state with ``expires_at <= now``; return the count."""

    @property
    @abc.abstractmethod
    def num_flows(self) -> int:
        """Number of states currently kept."""

    # -- shared semantics ----------------------------------------------------------

    @property
    def storage_bytes(self) -> int:
        """Estimated memory footprint at 30 bytes per kept state."""
        return self.num_flows * FLOW_STATE_BYTES

    @property
    def peak_storage_bytes(self) -> int:
        """Estimated footprint at the historical flow-count peak."""
        return self.stats.peak_flows * FLOW_STATE_BYTES

    def advance_to(self, ts: float) -> int:
        """Run garbage collection sweeps due at or before ``ts``."""
        removed = 0
        while self._next_gc <= ts:
            removed += self._gc(self._next_gc)
            self.stats.gc_runs += 1
            self._next_gc += self.gc_interval
        self.stats.gc_removed += removed
        return removed

    def process(self, pkt: Packet) -> Decision:
        """Filter one packet (outgoing refresh / incoming match-or-drop)."""
        self.advance_to(pkt.ts)
        direction = pkt.direction(self.protected)
        if direction is Direction.OUTGOING:
            key = flow_key_of_packet(pkt, outgoing=True)
            self._outgoing(pkt.ts, int(pkt.flags), key)
            return Decision.PASS
        if direction is Direction.INCOMING:
            key = flow_key_of_packet(pkt, outgoing=False)
            passed = self._incoming(pkt.ts, int(pkt.flags), key)
            return Decision.PASS if passed else Decision.DROP
        if direction is Direction.INTERNAL:
            self.stats.internal += 1
        else:
            self.stats.transit += 1
        return Decision.PASS

    # -- core flow logic -----------------------------------------------------------

    def _outgoing(self, ts: float, flags: int, key: FlowKey) -> None:
        stats = self.stats
        stats.outgoing += 1
        state = self._get(key)
        if state is None:
            state = FlowState(ts + self.idle_timeout)
            self._insert(key, state)
            stats.inserts += 1
            flows = self.num_flows
            if flows > stats.peak_flows:
                stats.peak_flows = flows
        else:
            state.expires_at = ts + self.idle_timeout
            stats.refreshes += 1
        if flags & _CLOSING_FLAGS and state.closed_at is None:
            state.closed_at = ts

    def _incoming(self, ts: float, flags: int, key: FlowKey) -> bool:
        stats = self.stats
        stats.incoming += 1
        state = self._get(key)
        if state is None or state.expires_at <= ts:
            stats.incoming_dropped += 1
            return False
        if state.closed_at is not None and ts > state.closed_at + self.close_grace:
            # Precise post-close drop — the SPI advantage of Section 4.3.
            stats.incoming_dropped += 1
            stats.dropped_after_close += 1
            return False
        state.expires_at = ts + self.idle_timeout
        stats.refreshes += 1
        stats.incoming_passed += 1
        if flags & _CLOSING_FLAGS and state.closed_at is None:
            state.closed_at = ts
        return True

    # -- batch path ------------------------------------------------------------

    def process_batch(self, packets: "PacketArray") -> "np.ndarray":
        """Filter a time-sorted batch; returns a boolean PASS mask.

        Semantically identical to calling :meth:`process` per packet, but
        works on plain columns to avoid per-packet object construction.
        """
        import numpy as np  # local import keeps base importable without numpy

        n = len(packets)
        verdict = np.ones(n, dtype=bool)
        if not n:
            return verdict
        directions = packets.directions(self.protected)
        columns = zip(
            packets.ts.tolist(),
            directions.tolist(),
            packets.flags.tolist(),
            packets.proto.tolist(),
            packets.src.tolist(),
            packets.sport.tolist(),
            packets.dst.tolist(),
            packets.dport.tolist(),
        )
        stats = self.stats
        for i, (ts, direction, flags, proto, src, sport, dst, dport) in enumerate(columns):
            while self._next_gc <= ts:
                stats.gc_removed += self._gc(self._next_gc)
                stats.gc_runs += 1
                self._next_gc += self.gc_interval
            if direction == 0:  # outgoing
                self._outgoing(ts, flags, (proto, src, sport, dst, dport))
            elif direction == 1:  # incoming
                if not self._incoming(ts, flags, (proto, dst, dport, src, sport)):
                    verdict[i] = False
            elif direction == 3:
                stats.internal += 1
            else:
                stats.transit += 1
        return verdict
