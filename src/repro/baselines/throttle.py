"""Aggregate bandwidth throttling — the Section 2 comparison baseline.

The mechanisms of [5, 9, 11] (pushback, aggregate congestion control,
perimeter defense) work in two steps: *identify an aggregate* — a common
characteristic extracted from packets, e.g. "all UDP packets with
destination port 445" — and *rate-limit it* once its arrival rate crosses a
trigger.  This module implements that design honestly:

- :class:`TokenBucket` — the classic limiter (rate + burst).
- :class:`Aggregate` — a predicate over (protocol, destination port),
  optionally destination host, the identification granularity the paper
  discusses.
- :class:`AggregateRateLimiter` — monitors per-aggregate arrival rates,
  activates a token bucket on any aggregate exceeding the trigger rate, and
  deactivates it when the rate subsides.

The paper's three criticisms become measurable (see
``repro.experiments.throttle_cmp``):

1. randomized attacks match no narrow aggregate;
2. limiting an aggregate drops the legitimate traffic inside it;
3. attacks below the trigger are never limited at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.core.apd import SlidingWindowCounter
from repro.core.filter_api import Decision, PacketFilterMixin
from repro.net.address import AddressSpace
from repro.net.packet import Direction, Packet


class TokenBucket:
    """A token bucket: ``rate`` tokens/second, capacity ``burst``."""

    def __init__(self, rate: float, burst: float):
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = rate
        self.burst = burst
        self._tokens = burst
        self._last = 0.0

    def allow(self, ts: float, cost: float = 1.0) -> bool:
        """Consume ``cost`` tokens at time ``ts`` if available."""
        if ts > self._last:
            self._tokens = min(self.burst, self._tokens + (ts - self._last) * self.rate)
            self._last = ts
        if self._tokens >= cost:
            self._tokens -= cost
            return True
        return False

    @property
    def tokens(self) -> float:
        return self._tokens


@dataclass(frozen=True)
class Aggregate:
    """An identifiable traffic aggregate: protocol + destination port
    (optionally one destination host)."""

    proto: int
    dport: int
    daddr: Optional[int] = None

    def matches(self, pkt: Packet) -> bool:
        if pkt.proto != self.proto or pkt.dport != self.dport:
            return False
        return self.daddr is None or pkt.dst == self.daddr

    def __str__(self) -> str:
        host = f" to {self.daddr:#x}" if self.daddr is not None else ""
        return f"proto {self.proto} dport {self.dport}{host}"


class AggregateRateLimiter(PacketFilterMixin):
    """Trigger-based aggregate rate limiting at a client network's edge.

    Incoming packets are binned into (proto, dport) aggregates.  When an
    aggregate's arrival rate over the monitoring window exceeds
    ``trigger_pps``, a token bucket capped at ``limit_pps`` is applied to it
    until its *offered* rate drops back below the trigger.  Outgoing packets
    are never limited.
    """

    def __init__(
        self,
        protected: AddressSpace,
        trigger_pps: float,
        limit_pps: float,
        window: float = 5.0,
        burst_seconds: float = 1.0,
        key: str = "dport",
    ):
        if trigger_pps <= 0 or limit_pps <= 0:
            raise ValueError("rates must be positive")
        if key not in ("dport", "sport"):
            raise ValueError("aggregate key must be 'dport' or 'sport'")
        self.protected = protected
        self.trigger_pps = trigger_pps
        self.limit_pps = limit_pps
        self.window = window
        self.burst = limit_pps * burst_seconds
        #: Which port field identifies the aggregate.  ``dport`` groups by
        #: the targeted service; ``sport`` groups by the *origin* service —
        #: the natural choice against reflection floods (e.g. all packets
        #: from port 53), and exactly where the paper's collateral-damage
        #: criticism bites: legitimate replies share the aggregate.
        self.key = key
        self._rates: Dict[Tuple[int, int], SlidingWindowCounter] = {}
        self._buckets: Dict[Tuple[int, int], TokenBucket] = {}
        self.packets_limited = 0
        self.packets_seen = 0

    # -- introspection -------------------------------------------------------

    @property
    def active_limiters(self) -> Iterable[Tuple[int, int]]:
        return tuple(self._buckets)

    def offered_rate(self, proto: int, dport: int, now: float) -> float:
        counter = self._rates.get((proto, dport))
        return counter.rate(now) if counter else 0.0

    # -- filtering --------------------------------------------------------------

    def process(self, pkt: Packet) -> Decision:
        direction = pkt.direction(self.protected)
        if direction is not Direction.INCOMING:
            return Decision.PASS
        self.packets_seen += 1
        port = pkt.dport if self.key == "dport" else pkt.sport
        key = (pkt.proto, port)
        counter = self._rates.get(key)
        if counter is None:
            counter = SlidingWindowCounter(window=self.window)
            self._rates[key] = counter
        counter.add(pkt.ts)
        offered = counter.rate(pkt.ts)

        bucket = self._buckets.get(key)
        if bucket is None:
            if offered > self.trigger_pps:
                # Trigger: install a limiter on the hot aggregate.
                bucket = TokenBucket(self.limit_pps, self.burst)
                self._buckets[key] = bucket
            else:
                return Decision.PASS
        elif offered <= self.trigger_pps:
            # The aggregate cooled down: remove its limiter.
            del self._buckets[key]
            return Decision.PASS

        if bucket.allow(pkt.ts):
            return Decision.PASS
        self.packets_limited += 1
        return Decision.DROP

    def process_batch(self, packets) -> "object":
        """Batch wrapper mirroring the unified PacketFilter API."""
        import numpy as np

        verdicts = np.ones(len(packets), dtype=bool)
        for i, pkt in enumerate(packets):
            verdicts[i] = self.process(pkt) is Decision.PASS
        return verdicts
