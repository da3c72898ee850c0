"""The bitmap filter: Algorithm 2 (``b.filter``) driven by simulated time.

:class:`BitmapFilter` wraps a :class:`~repro.core.bitmap.Bitmap` with

- direction classification against the protected client address space,
- the directional tuple keys of Section 3.3 (outgoing marks
  ``{saddr, sport, daddr}``; incoming checks ``{daddr, dport, saddr}``),
- timestamp-driven rotation (``b.rotate`` every ``dt`` seconds),
- optional adaptive packet dropping (Section 5.3),
- a vectorized batch path that is order-exact: verdicts, stats and bits
  equal those of :meth:`BitmapFilter.process` applied packet by packet
  (see :meth:`BitmapFilter._filter_window`),
- degraded-mode machinery for operational faults: a
  :class:`~repro.core.resilience.FailPolicy` applied while the filter is
  down (:meth:`BitmapFilter.fail` / :meth:`BitmapFilter.recover`), a
  post-restore warm-up grace window (:meth:`BitmapFilter.begin_warmup`),
  and rotation-stall handling with missed-rotation catch-up
  (:meth:`BitmapFilter.stall_rotations` / :meth:`BitmapFilter.resume_rotations`), and
- optional runtime telemetry (see :mod:`repro.telemetry`): admits/drops/
  marks counters per admission path, rotation count/duration, and
  degraded-mode gauges, all behind a single ``is not None`` guard so the
  default (null-registry) hot path pays nothing.

One frozen, keyword-only :class:`FilterConfig` holds every parameter, and
there is one way to build a filter from it::

    BitmapFilter(FilterConfig(order=16, rotation_interval=2.5), protected)

``config=None`` means :meth:`FilterConfig.paper_default`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from time import perf_counter
from typing import Optional

import numpy as np

from repro.core.apd import AdaptiveDroppingPolicy
from repro.core.bitmap import Bitmap
from repro.core.filter_api import Decision, PacketFilterMixin, normalize_layers
from repro.core.hashing import HashFamily
from repro.core.resilience import FailPolicy
from repro.net.address import AddressSpace
from repro.net.flow import bitmap_key_incoming, bitmap_key_outgoing
from repro.net.packet import (
    DIRECTION_INCOMING,
    DIRECTION_INTERNAL,
    DIRECTION_OUTGOING,
    DIRECTION_TRANSIT,
    Direction,
    Packet,
    PacketArray,
)
from repro.telemetry.registry import MetricsRegistry, get_registry

__all__ = [
    "BitmapFilter",
    "Decision",
    "FilterConfig",
    "FilterStats",
]


@dataclass(frozen=True, kw_only=True)
class FilterConfig:
    """Every parameter of a deployed bitmap filter, in one frozen object.

    Bundles the bitmap geometry (k, n), hash family (m, seed), rotation
    timing (Δt), and the *operational* fields — fail policy, warm-up grace
    and the layer stack :func:`~repro.core.filter_api.build_filter` wraps
    around the base filter.  Defaults are the paper's evaluation setup
    (Section 4.3): a 512 KB {4 x 20}-bitmap with 3 hash functions rotating
    every 5 seconds, i.e. an expiry timer ``Te = k * dt = 20`` seconds.
    All fields are keyword-only, so call sites name every parameter::

        FilterConfig(order=16, num_vectors=4, rotation_interval=2.5,
                     fail_policy=FailPolicy.FAIL_OPEN, warmup_grace=10.0)

    A :class:`BitmapFilter` honours the operational fields at construction
    and then keeps, as its ``config``, this config with them reset to their
    defaults: the live fail policy is ``filt.fail_policy``, the live grace
    window ``filt.warmup_until`` and the live stack the wrappers around the
    filter.  So ``filt.config`` names exactly the state a rebuild must
    reproduce, and rebuilding from it never re-applies a stale grace
    window or policy.

    :meth:`as_dict` and :meth:`from_dict` are the JSON form (daemon
    self-description, SIGHUP reload file); :meth:`geometry` is the part
    of it a rebuild is keyed on.
    """

    order: int = 20              # n: each vector has 2**n bits
    num_vectors: int = 4         # k: number of bloom-filter rows
    num_hashes: int = 3          # m: hash functions
    rotation_interval: float = 5.0  # dt seconds
    seed: int = 0x5EED           # hash-family seed
    fail_policy: FailPolicy = FailPolicy.FAIL_CLOSED
    warmup_grace: float = 0.0    # grace window opened at construction
    layers: tuple = ()           # layer specs build_filter wraps around the base

    def __post_init__(self) -> None:
        if self.rotation_interval <= 0:
            raise ValueError("rotation interval must be positive")
        if self.num_hashes < 1:
            raise ValueError("need at least one hash function")
        if self.warmup_grace < 0:
            raise ValueError("warm-up grace cannot be negative")
        object.__setattr__(self, "layers", normalize_layers(self.layers))

    def as_dict(self) -> dict:
        """The JSON form: every field in declaration order, ``fail_policy``
        as its string value and ``layers`` as spec dicts."""
        data = {field.name: getattr(self, field.name) for field in fields(self)}
        data["fail_policy"] = self.fail_policy.value
        data["layers"] = [spec.as_dict() for spec in self.layers]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FilterConfig":
        """Parse the JSON form (any subset of the fields; the rest default).

        Raises :class:`ValueError` on a non-object or an unknown key.
        """
        if not isinstance(data, dict):
            raise ValueError("filter config must be a JSON object")
        unknown = set(data) - {field.name for field in fields(cls)}
        if unknown:
            raise ValueError(f"unknown filter config fields: {sorted(unknown)}")
        kwargs = dict(data)
        if "fail_policy" in kwargs:
            kwargs["fail_policy"] = FailPolicy(kwargs["fail_policy"])
        return cls(**kwargs)

    def geometry(self) -> dict:
        """The JSON form of the fields a rebuild is keyed on: n, k, m, Δt,
        seed and the layer stack.  Two configs with equal geometry differ
        at most in fields a live filter can take without a rebuild."""
        data = self.as_dict()
        del data["fail_policy"], data["warmup_grace"]
        return data

    @property
    def expiry_timer(self) -> float:
        """Te = k * dt — the nominal lifetime of a mark."""
        return self.num_vectors * self.rotation_interval

    @property
    def guaranteed_window(self) -> float:
        """(k-1) * dt — a mark is *guaranteed* visible for this long."""
        return (self.num_vectors - 1) * self.rotation_interval

    @property
    def memory_bytes(self) -> int:
        return self.num_vectors * (1 << self.order) // 8

    @classmethod
    def paper_default(cls) -> "FilterConfig":
        """The {4 x 20}-bitmap, m=3, dt=5 configuration of Section 4.3."""
        return cls()


@dataclass
class FilterStats:
    """Counters accumulated by a filter instance."""

    outgoing: int = 0
    incoming: int = 0
    incoming_dropped: int = 0
    incoming_passed: int = 0
    internal: int = 0
    transit: int = 0
    apd_admitted: int = 0  # would-be drops admitted by adaptive dropping
    marks_suppressed: int = 0  # outgoing signal packets not marked (APD policy)
    rotations: int = 0
    degraded_admitted: int = 0   # inbound admitted by FAIL_OPEN while down
    degraded_dropped: int = 0    # inbound dropped by FAIL_CLOSED while down
    warmup_admitted: int = 0     # bitmap misses admitted by the warm-up grace
    unmarked_outgoing: int = 0   # outgoing seen while down (marks lost)

    @property
    def total(self) -> int:
        return self.outgoing + self.incoming + self.internal + self.transit

    @property
    def incoming_drop_rate(self) -> float:
        if not self.incoming:
            return 0.0
        return self.incoming_dropped / self.incoming

    def as_dict(self) -> dict:
        return {
            "outgoing": self.outgoing,
            "incoming": self.incoming,
            "incoming_dropped": self.incoming_dropped,
            "incoming_passed": self.incoming_passed,
            "internal": self.internal,
            "transit": self.transit,
            "apd_admitted": self.apd_admitted,
            "marks_suppressed": self.marks_suppressed,
            "rotations": self.rotations,
            "degraded_admitted": self.degraded_admitted,
            "degraded_dropped": self.degraded_dropped,
            "warmup_admitted": self.warmup_admitted,
            "unmarked_outgoing": self.unmarked_outgoing,
        }


#: Admission-path labels used by the telemetry counters.
_PATHS = ("scalar", "exact_batch")


class _FilterInstruments:
    """Bound telemetry instruments for one live-registry filter instance.

    Created only when the registry is enabled; the filter stores ``None``
    otherwise, so every hot-path guard is a single identity check.
    """

    __slots__ = (
        "registry", "marks", "admits", "drops", "rotations",
        "rotation_seconds", "degraded", "stalled", "warmup_until",
        "warmup_admits", "degraded_admits", "degraded_drops",
    )

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self.marks = {
            path: registry.counter(
                "repro_filter_marks_total",
                "Outgoing packets marked into the bitmap, by admission path",
                path=path,
            ) for path in _PATHS
        }
        self.admits = {
            path: registry.counter(
                "repro_filter_admits_total",
                "Incoming packets admitted while the filter is up, by path",
                path=path,
            ) for path in _PATHS
        }
        self.drops = {
            path: registry.counter(
                "repro_filter_drops_total",
                "Incoming packets dropped while the filter is up, by path",
                path=path,
            ) for path in _PATHS
        }
        self.rotations = registry.counter(
            "repro_filter_rotations_total", "Bitmap rotations performed")
        self.rotation_seconds = registry.histogram(
            "repro_filter_rotation_seconds",
            "Wall-clock duration of each bitmap rotation")
        self.degraded = registry.gauge(
            "repro_filter_degraded",
            "1 while the filter is down and verdicts come from the fail policy")
        self.stalled = registry.gauge(
            "repro_filter_rotations_stalled",
            "1 while the rotation timer is wedged")
        self.warmup_until = registry.gauge(
            "repro_filter_warmup_until_seconds",
            "End of the active warm-up grace window in simulated time "
            "(0 when inactive)")
        self.warmup_admits = registry.counter(
            "repro_filter_warmup_admits_total",
            "Bitmap misses admitted by the warm-up grace window")
        self.degraded_admits = registry.counter(
            "repro_filter_degraded_admits_total",
            "Inbound packets admitted by the fail policy while down")
        self.degraded_drops = registry.counter(
            "repro_filter_degraded_drops_total",
            "Inbound packets dropped by the fail policy while down")
        self.degraded.set(0)
        self.stalled.set(0)
        self.warmup_until.set(0)

    def on_rotation(self, boundary_ts: float, seconds: float) -> None:
        """One rotation finished: count it, time it, pulse the Δt samplers."""
        self.rotations.inc()
        self.rotation_seconds.observe(seconds)
        self.registry.tick(boundary_ts)

    @staticmethod
    def stats_snapshot(stats: FilterStats) -> tuple:
        """The stat fields batch accounting diffs against."""
        return (stats.outgoing, stats.incoming_passed,
                stats.incoming_dropped, stats.warmup_admitted)

    def count_batch(self, path: str, stats: FilterStats, before: tuple) -> None:
        """Credit one batch's stat deltas to the per-path counters."""
        outgoing0, passed0, dropped0, warmup0 = before
        marks = stats.outgoing - outgoing0
        admits = stats.incoming_passed - passed0
        drops = stats.incoming_dropped - dropped0
        warmup = stats.warmup_admitted - warmup0
        if marks:
            self.marks[path].inc(marks)
        if admits:
            self.admits[path].inc(admits)
        if drops:
            self.drops[path].inc(drops)
        if warmup:
            self.warmup_admits.inc(warmup)


class BitmapFilter(PacketFilterMixin):
    """A deployed bitmap filter protecting one client address space.

    Implements the unified :class:`~repro.core.filter_api.PacketFilter`
    protocol (``observe_out``/``admit_in`` and their batch variants) on top
    of the generic ``process``/``process_batch`` entry points.
    """

    def __init__(
        self,
        config: Optional[FilterConfig] = None,
        protected: Optional[AddressSpace] = None,
        start_time: float = 0.0,
        apd: Optional[AdaptiveDroppingPolicy] = None,
        fail_policy: Optional[FailPolicy] = None,
        *,
        telemetry: Optional[MetricsRegistry] = None,
    ):
        if protected is None:
            raise TypeError("BitmapFilter requires a protected AddressSpace")
        if config is None:
            config = FilterConfig()
        if fail_policy is None:
            fail_policy = config.fail_policy
        warmup_grace = config.warmup_grace
        # See FilterConfig: the filter keeps the geometry, not the
        # operational fields it has just applied.
        config = replace(config, fail_policy=FailPolicy.FAIL_CLOSED,
                         warmup_grace=0.0, layers=())

        self.config = config
        self.protected = protected
        self.bitmap = Bitmap(config.num_vectors, config.order)
        self.hashes = HashFamily(config.num_hashes, config.order, config.seed)
        self.apd = apd
        self.fail_policy = fail_policy
        self.stats = FilterStats()
        self._next_rotation = start_time + config.rotation_interval
        self._down = False
        self._stalled = False
        self._warmup_until = float("-inf")

        registry = telemetry if telemetry is not None else get_registry()
        self._tel = _FilterInstruments(registry) if registry.enabled else None
        if warmup_grace > 0:
            self.begin_warmup(start_time + warmup_grace)

    # -- time ---------------------------------------------------------------

    @property
    def next_rotation(self) -> float:
        return self._next_rotation

    def advance_to(self, ts: float) -> int:
        """Run every rotation due at or before ``ts``; returns how many ran.

        While the rotation timer is stalled (:meth:`stall_rotations`) this is
        a no-op — the schedule is frozen until :meth:`resume_rotations`.
        """
        if self._stalled:
            return 0
        ran = 0
        tel = self._tel
        while self._next_rotation <= ts:
            if tel is None:
                self.bitmap.rotate()
            else:
                begin = perf_counter()
                self.bitmap.rotate()
                tel.on_rotation(self._next_rotation, perf_counter() - begin)
            self._next_rotation += self.config.rotation_interval
            ran += 1
        self.stats.rotations += ran
        return ran

    # -- degraded-mode operation ---------------------------------------------

    @property
    def is_down(self) -> bool:
        """True while the filter is failed (``fail`` called, no ``recover``)."""
        return self._down

    @property
    def rotations_stalled(self) -> bool:
        return self._stalled

    @property
    def warmup_until(self) -> float:
        """End of the current warm-up grace window (-inf when inactive)."""
        return self._warmup_until

    def in_warmup(self, ts: float) -> bool:
        return ts < self._warmup_until

    def fail(self) -> None:
        """Take the filter down: packets are judged by ``fail_policy`` only.

        The bit state and rotation schedule freeze; nothing is marked or
        rotated until :meth:`recover`.
        """
        self._down = True
        if self._tel is not None:
            self._tel.degraded.set(1)

    def recover(self, now: float, warmup_grace: Optional[float] = None) -> int:
        """Bring a failed filter back at ``now``; returns rotations caught up.

        Rotations missed during the outage run immediately (the schedule is
        not silently stretched).  ``warmup_grace`` opens a grace window of
        that many seconds during which bitmap *misses* on inbound packets are
        admitted instead of dropped — outgoing packets seen while down were
        never marked, so their replies would otherwise all be dropped.  The
        default grace is ``Te`` when the outage spanned at least one rotation
        and 0 otherwise (a sub-rotation blip loses no marks).
        """
        self._down = False
        if self._tel is not None:
            self._tel.degraded.set(0)
        missed = self.advance_to(now)
        if warmup_grace is None:
            warmup_grace = self.config.expiry_timer if missed else 0.0
        if warmup_grace > 0:
            self.begin_warmup(now + warmup_grace)
        return missed

    def begin_warmup(self, until: float) -> None:
        """Admit inbound bitmap misses until time ``until`` (grace window)."""
        self._warmup_until = until
        if self._tel is not None:
            self._tel.warmup_until.set(until)

    def stall_rotations(self) -> None:
        """Freeze the rotation timer (models a stalled/stuck timer thread).

        Packets keep flowing and keep being marked/checked; vectors are just
        never cleared, so utilization — and with it the penetration
        probability U^m — creeps up for the duration of the stall.
        """
        self._stalled = True
        if self._tel is not None:
            self._tel.stalled.set(1)

    def resume_rotations(self, now: float, catch_up: bool = True) -> int:
        """Un-stall the timer at ``now``; returns the rotations performed.

        ``catch_up=True`` (the robust behavior) performs every rotation the
        stall missed, restoring the nominal Te immediately.  ``catch_up=False``
        models the naive late-firing timer: one rotation runs and the
        schedule restarts from ``now``, silently stretching every mark's
        lifetime by the stall duration.
        """
        self._stalled = False
        if self._tel is not None:
            self._tel.stalled.set(0)
        if catch_up:
            return self.advance_to(now)
        if self._next_rotation <= now:
            tel = self._tel
            if tel is None:
                self.bitmap.rotate()
            else:
                begin = perf_counter()
                self.bitmap.rotate()
                tel.on_rotation(now, perf_counter() - begin)
            self.stats.rotations += 1
            self._next_rotation = now + self.config.rotation_interval
            return 1
        return 0

    # -- Algorithm 2: per-packet path -------------------------------------------

    def process(self, pkt: Packet) -> Decision:
        """Filter one packet, advancing rotations to its timestamp first."""
        if self._down:
            return self._process_down(pkt)
        self.advance_to(pkt.ts)
        direction = pkt.direction(self.protected)
        if direction is Direction.OUTGOING:
            self._handle_outgoing(pkt)
            return Decision.PASS
        if direction is Direction.INCOMING:
            return self._handle_incoming(pkt)
        if direction is Direction.INTERNAL:
            self.stats.internal += 1
        else:
            self.stats.transit += 1
        return Decision.PASS

    def _handle_outgoing(self, pkt: Packet) -> None:
        self.stats.outgoing += 1
        if self.apd is not None:
            self.apd.observe_outgoing(pkt)
            if not self.apd.should_mark(pkt):
                self.stats.marks_suppressed += 1
                return
        key = bitmap_key_outgoing(pkt.proto, pkt.src, pkt.sport, pkt.dst)
        self.bitmap.mark(self.hashes.indices(key))
        if self._tel is not None:
            self._tel.marks["scalar"].inc()

    def _test_incoming(self, pkt: Packet) -> bool:
        """The scalar bitmap membership test for one incoming packet."""
        key = bitmap_key_incoming(pkt.proto, pkt.dst, pkt.dport, pkt.src)
        return self.bitmap.test_current(self.hashes.indices(key))

    def _handle_incoming(self, pkt: Packet) -> Decision:
        tel = self._tel
        self.stats.incoming += 1
        if self.apd is not None:
            self.apd.observe_incoming(pkt)
        if self._test_incoming(pkt):
            self.stats.incoming_passed += 1
            if tel is not None:
                tel.admits["scalar"].inc()
            return Decision.PASS
        if pkt.ts < self._warmup_until:
            self.stats.warmup_admitted += 1
            self.stats.incoming_passed += 1
            if tel is not None:
                tel.admits["scalar"].inc()
                tel.warmup_admits.inc()
            return Decision.PASS
        if self.apd is not None and not self.apd.should_drop():
            self.stats.apd_admitted += 1
            self.stats.incoming_passed += 1
            if tel is not None:
                tel.admits["scalar"].inc()
            return Decision.PASS
        self.stats.incoming_dropped += 1
        if tel is not None:
            tel.drops["scalar"].inc()
        return Decision.DROP

    def _process_down(self, pkt: Packet) -> Decision:
        """Judge one packet while the filter is down: policy only, no state."""
        direction = pkt.direction(self.protected)
        stats = self.stats
        tel = self._tel
        if direction is Direction.OUTGOING:
            stats.outgoing += 1
            stats.unmarked_outgoing += 1
            return Decision.PASS
        if direction is Direction.INCOMING:
            stats.incoming += 1
            if self.fail_policy is FailPolicy.FAIL_OPEN:
                stats.degraded_admitted += 1
                stats.incoming_passed += 1
                if tel is not None:
                    tel.degraded_admits.inc()
                return Decision.PASS
            stats.degraded_dropped += 1
            stats.incoming_dropped += 1
            if tel is not None:
                tel.degraded_drops.inc()
            return Decision.DROP
        if direction is Direction.INTERNAL:
            stats.internal += 1
        else:
            stats.transit += 1
        return Decision.PASS

    # -- batch paths -----------------------------------------------------------

    def process_batch(self, packets: PacketArray) -> np.ndarray:
        """Filter a time-sorted batch; returns a boolean PASS mask.

        Verdicts, stats, bit state and telemetry are identical to calling
        :meth:`process` on each packet in order; direction classification,
        hashing and the bit operations are vectorized per rotation window
        (see :meth:`_filter_window`).

        APD is not supported on the batch path (use :meth:`process`).
        """
        if self.apd is not None:
            raise NotImplementedError("the batch path does not support adaptive dropping")
        if self._down:
            return self._process_batch_down(packets)
        return self._process_batch_exact(packets)

    def _process_batch_down(self, packets: PacketArray) -> np.ndarray:
        """Vectorized down-state verdicts: ``fail_policy`` decides everything."""
        directions = packets.directions(self.protected)
        incoming = directions == DIRECTION_INCOMING
        outgoing = directions == DIRECTION_OUTGOING
        stats = self.stats
        n_in = int(incoming.sum())
        n_out = int(outgoing.sum())
        stats.outgoing += n_out
        stats.unmarked_outgoing += n_out
        stats.incoming += n_in
        stats.internal += int((directions == DIRECTION_INTERNAL).sum())
        stats.transit += int((directions == DIRECTION_TRANSIT).sum())
        verdict = np.ones(len(packets), dtype=bool)
        tel = self._tel
        if self.fail_policy is FailPolicy.FAIL_OPEN:
            stats.degraded_admitted += n_in
            stats.incoming_passed += n_in
            if tel is not None and n_in:
                tel.degraded_admits.inc(n_in)
        else:
            verdict[incoming] = False
            stats.degraded_dropped += n_in
            stats.incoming_dropped += n_in
            if tel is not None and n_in:
                tel.degraded_drops.inc(n_in)
        return verdict

    def _directional_indices(self, packets: PacketArray, directions: np.ndarray) -> np.ndarray:
        """(m, N) index matrix using local/remote fields per direction.

        For outgoing packets the local endpoint is (src, sport); for incoming
        it is (dst, dport).  Rows for transit/internal packets are computed
        but never used.
        """
        outgoing = directions == DIRECTION_OUTGOING
        local_addr = np.where(outgoing, packets.src, packets.dst).astype(np.uint32)
        local_port = np.where(outgoing, packets.sport, packets.dport).astype(np.uint16)
        remote_addr = np.where(outgoing, packets.dst, packets.src).astype(np.uint32)
        return self.hashes.indices_vec(packets.proto, local_addr, local_port, remote_addr)

    def _process_batch_exact(self, packets: PacketArray) -> np.ndarray:
        """Vectorized batch filtering, identical to :meth:`process` per packet.

        Rotation boundaries split the batch into windows; each window runs
        :meth:`_filter_window`, and the rotations between windows run with
        the same cadence (and per-window telemetry flushes) as the scalar
        path.
        """
        n = len(packets)
        verdict = np.ones(n, dtype=bool)
        if not n:
            return verdict
        directions = packets.directions(self.protected)
        index_matrix = self._directional_indices(packets, directions)
        ts = packets.ts

        stats = self.stats
        out_mask = directions == DIRECTION_OUTGOING
        in_mask = directions == DIRECTION_INCOMING
        stats.internal += int((directions == DIRECTION_INTERNAL).sum())
        stats.transit += int((directions == DIRECTION_TRANSIT).sum())
        # Stall/warm-up state cannot change mid-batch (only the fault harness
        # toggles it, between batches); a stalled timer makes the whole
        # batch one window.
        stalled = self._stalled
        warmup_until = self._warmup_until
        interval = self.config.rotation_interval
        bitmap = self.bitmap
        tel = self._tel
        before = tel.stats_snapshot(stats) if tel is not None else None

        start = 0
        while start < n:
            boundary = float("inf") if stalled else self._next_rotation
            end = int(np.searchsorted(ts[start:], boundary, side="left")) + start
            if end > start:
                self._filter_window(index_matrix, ts, out_mask, in_mask,
                                    verdict, start, end, warmup_until)
                start = end
            if start < n:
                if tel is None:
                    bitmap.rotate()
                else:
                    # Flush this window's counter deltas before the tick so
                    # samplers see per-Δt admits/drops, not batch totals.
                    tel.count_batch("exact_batch", stats, before)
                    before = tel.stats_snapshot(stats)
                    begin = perf_counter()
                    bitmap.rotate()
                    tel.on_rotation(self._next_rotation, perf_counter() - begin)
                self._next_rotation += interval
                stats.rotations += 1
        if tel is not None:
            tel.count_batch("exact_batch", stats, before)
        return verdict

    def _filter_window(self, index_matrix: np.ndarray, ts: np.ndarray,
                       out_mask: np.ndarray, in_mask: np.ndarray,
                       verdict: np.ndarray, start: int, end: int,
                       warmup_until: float) -> None:
        """One rotation window ``[start, end)`` of the order-exact algorithm.

        1. Test every incoming packet against the pre-window bits (``hits0``).
        2. Apply every outgoing mark of the window in one vectorized pass.
        3. Re-test.  Only packets that missed before and hit after are
           order-ambiguous: marks somewhere in this window completed their
           bits, and the verdict depends on whether those marks came first.
        4. Each ambiguous packet passes iff every bit it lacked before the
           window was first marked at an earlier position — exactly what
           the scalar loop observes, since a set bit stays set until the
           next rotation.
        """
        window = slice(start, end)
        w_out = out_mask[window]
        w_in = in_mask[window]
        stats = self.stats
        bitmap = self.bitmap
        current = bitmap.current
        n_out = int(w_out.sum())
        have_in = bool(w_in.any())

        if have_in:
            test_mat = index_matrix[:, window][:, w_in]          # (m, I)
            hits0 = current.test_many_vec(
                test_mat.reshape(-1)).reshape(test_mat.shape)
            ok = hits0.all(axis=0)                               # (I,)
        if n_out:
            mark_mat = index_matrix[:, window][:, w_out]          # (m, P)
            bitmap.mark_vec(mark_mat)
            stats.outgoing += n_out
        if not have_in:
            return

        in_pos = np.nonzero(w_in)[0]
        stats.incoming += in_pos.size
        if n_out:
            ok1 = current.test_many_vec(
                test_mat.reshape(-1)).reshape(test_mat.shape).all(axis=0)
            ambiguous = ~ok & ok1
            if ambiguous.any():
                out_pos = np.nonzero(w_out)[0]
                m = index_matrix.shape[0]
                # First position that marked each bit this window.
                flat_bits = mark_mat.reshape(-1)
                flat_pos = np.tile(out_pos, m)
                order = np.lexsort((flat_pos, flat_bits))
                sorted_bits = flat_bits[order]
                sorted_pos = flat_pos[order]
                first = np.ones(len(sorted_bits), dtype=bool)
                first[1:] = sorted_bits[1:] != sorted_bits[:-1]
                unique_bits = sorted_bits[first]
                first_pos = sorted_pos[first]
                amb_bits = test_mat[:, ambiguous]                 # (m, A)
                loc = np.searchsorted(unique_bits, amb_bits)
                loc = np.minimum(loc, len(unique_bits) - 1)
                # Pre-set bits need no mark; every other bit of an ambiguous
                # packet is in unique_bits (the window's marks completed it).
                marked_at = np.where(hits0[:, ambiguous], -1, first_pos[loc])
                ok[ambiguous] = marked_at.max(axis=0) < in_pos[ambiguous]

        if warmup_until > ts[start]:
            grace = ~ok & (ts[window][w_in] < warmup_until)
            if grace.any():
                ok |= grace
                stats.warmup_admitted += int(grace.sum())
        verdict[in_pos[~ok] + start] = False
        passed = int(ok.sum())
        stats.incoming_passed += passed
        stats.incoming_dropped += in_pos.size - passed

    # -- snapshot state -------------------------------------------------------

    def set_fail_policy(self, policy: FailPolicy) -> None:
        """Swap the fail policy in place (a safe hot-reloadable knob)."""
        self.fail_policy = FailPolicy(policy)

    def apply_snapshot_state(
        self,
        vectors: np.ndarray,
        current_index: int,
        bitmap_rotations: int,
        next_rotation: float,
        stats: Optional[dict] = None,
    ) -> None:
        """Overwrite this filter's mutable state with snapshot contents.

        ``vectors`` is the ``(k, 2**n / 8)`` byte matrix of the bit vectors
        (what :func:`repro.core.persistence.save_filter` persists); the rest
        restores the rotation bookkeeping and, optionally, the counters.
        The configuration must already match — this only moves state, so
        the geometry is validated up front.
        """
        vectors = np.asarray(vectors, dtype=np.uint8)
        expected = (self.config.num_vectors, (1 << self.config.order) // 8)
        if vectors.shape != expected:
            raise ValueError(
                f"snapshot vectors {vectors.shape} do not match this "
                f"filter's geometry {expected}")
        for index, vec in enumerate(self.bitmap.vectors):
            vec.as_numpy()[:] = vectors[index]
        self.bitmap._idx = int(current_index)
        self.bitmap._rotations = int(bitmap_rotations)
        self._next_rotation = float(next_rotation)
        if stats is not None:
            self.stats = FilterStats(**stats)

    # -- convenience ---------------------------------------------------------------

    def mark_key(self, proto: int, local_addr: int, local_port: int, remote_addr: int) -> None:
        """Directly mark an outgoing-direction key (used by hole punching)."""
        key = bitmap_key_outgoing(proto, local_addr, local_port, remote_addr)
        self.bitmap.mark(self.hashes.indices(key))

    def flip_bits(self, fraction: float, seed: int = 0xB17F11) -> int:
        """Flip each bit of every vector with probability ``fraction``.

        The memory-corruption fault surface (see
        :class:`~repro.faults.injectors.BitFlips`).  Deterministic in
        ``seed``, so two filters fed the same call corrupt identically.
        Returns the number of bits flipped.
        """
        if not 0 <= fraction <= 1:
            raise ValueError("flip fraction must be within [0, 1]")
        rng = np.random.default_rng(seed)
        total = 0
        for vec in self.bitmap.vectors:
            count = int(rng.binomial(vec.num_bits, fraction))
            if not count:
                continue
            indices = rng.choice(vec.num_bits, size=count, replace=False)
            view = vec.as_numpy()
            byte_idx = (indices >> 3).astype(np.int64)
            masks = np.left_shift(np.uint8(1), (indices & 7).astype(np.uint8))
            np.bitwise_xor.at(view, byte_idx, masks)
            total += count
        return total

    def would_pass_incoming(self, pkt: Packet) -> bool:
        """Non-mutating lookup: would this incoming packet pass right now?"""
        return self._test_incoming(pkt)

    def utilization(self) -> float:
        return self.bitmap.utilization()

    @property
    def peak_utilization(self) -> float:
        """Steady-state utilization: the fullest any vector got (sampled
        just before each rotation cleared it)."""
        return self.bitmap.peak_utilization

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"BitmapFilter(k={cfg.num_vectors}, n={cfg.order}, m={cfg.num_hashes}, "
            f"dt={cfg.rotation_interval}, Te={cfg.expiry_timer}, "
            f"mem={cfg.memory_bytes}B)"
        )
