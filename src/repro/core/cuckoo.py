"""Exact cuckoo flow table — the verification tier behind the bitmap.

The {k×n}-bitmap is a probabilistic pre-filter: a false admit lets an attack
packet reach a client.  This module stores the *exact* directional flow keys
``(protocol, local-address, local-port, remote-address)`` so admits can be
confirmed, the Bloom-pre-filter → exact-table pattern of the DDoS-filtering
survey literature.

Design:

- **Two-choice bucketed cuckoo hashing.**  ``2**order`` buckets of
  ``slots_per_bucket`` slots.  A key hashes (splitmix64, same primitive as
  the bitmap's :class:`~repro.core.hashing.HashFamily`) to bucket ``b1``;
  its alternate bucket is ``b2 = b1 ^ tag`` where ``tag`` is derived from
  the *key's own hash* — so either bucket of a stored entry is computable
  from the entry alone, which is what makes relocation and exact rehash on
  resize possible.  ``tag`` is forced odd so ``b2 != b1``.
- **BFS kicking.**  On a full pair of buckets we breadth-first-search the
  relocation graph for the nearest free slot and shift entries along that
  path (oldest-queued-first, bounded node budget) — shorter chains and
  higher attainable load factors than the classic random-walk kick, and
  fully deterministic.
- **Lazy expiry.**  Entries carry the timestamp of their last refresh and
  are live for ``lifetime`` seconds (the hybrid filter resolves this to the
  bitmap's expiry timer Te by default).  Lookups never mutate, so the
  scalar and batch paths observe identical tables.
- **Adaptive resize.**  When occupied slots cross ``grow_at`` of capacity
  the table first purges expired entries in place; if still over, it
  doubles (``order + 1``) and rehashes every live entry exactly.  A resize
  can also be requested externally (the hybrid filter's measured-FPR
  trigger).  Keys are stored whole — 20 bytes of key material per slot —
  precisely so a resize is an exact rehash, never a lossy fingerprint move.

Everything is plain NumPy arrays, snapshot-friendly: :meth:`export_state` /
:meth:`restore_state` round-trip the table through the checksummed v2
snapshot format (see :mod:`repro.core.persistence`).
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.hashing import splitmix64, splitmix64_vec

_MASK64 = (1 << 64) - 1

#: Stamp value marking a never-used slot (never "live": -inf > cutoff is False).
_EMPTY = -np.inf

_GROW_CAUSES = ("utilization", "pressure", "fpr")


def pack_flow(proto: int, local_addr: int, local_port: int, remote_addr: int) -> Tuple[int, int]:
    """Pack a directional flow key into the (lo, hi) word pair the table stores.

    Identical packing to :func:`repro.core.hashing.pack_key` so the bitmap
    and the exact table agree on what "the same flow" means.
    """
    lo = ((local_addr & 0xFFFFFFFF) << 32) | ((local_port & 0xFFFF) << 16) | (proto & 0xFF)
    hi = remote_addr & 0xFFFFFFFF
    return lo, hi


def pack_flows_vec(
    proto: np.ndarray,
    local_addr: np.ndarray,
    local_port: np.ndarray,
    remote_addr: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`pack_flow` over field arrays."""
    lo = (
        (local_addr.astype(np.uint64) << np.uint64(32))
        | (local_port.astype(np.uint64) << np.uint64(16))
        | proto.astype(np.uint64)
    )
    hi = remote_addr.astype(np.uint64)
    return lo, hi


class CuckooFlowTable:
    """Exact set of live directional flow keys with lazy time-based expiry.

    Parameters
    ----------
    order:
        log2 of the initial bucket count.
    slots_per_bucket:
        Entries per bucket (4 supports ~95% load factors).
    lifetime:
        Seconds an entry stays live after its last insert/refresh.
    seed:
        Hash seed; independent of the bitmap's seed.
    max_order:
        Resize ceiling — past it the table overwrites the stalest candidate
        slot instead of growing (counted in ``overwrites``).
    grow_at:
        Occupied-slot fraction that triggers purge-then-grow.
    max_kick_nodes:
        BFS node budget per displaced insert.
    """

    __slots__ = (
        "_order", "_slots", "_lifetime", "_seed", "_max_order", "_grow_at",
        "_max_kick_nodes", "_mask", "_key_lo", "_key_hi", "_stamp",
        "_occupied", "inserts", "refreshes", "kicks", "grows", "overwrites",
        "lookups", "hits", "grow_causes",
    )

    def __init__(
        self,
        order: int = 8,
        slots_per_bucket: int = 4,
        lifetime: float = 20.0,
        seed: int = 0xC0C0A,
        max_order: int = 24,
        grow_at: float = 0.85,
        max_kick_nodes: int = 64,
    ):
        if not 2 <= order <= 28:
            raise ValueError(f"cuckoo order must be in [2, 28], got {order}")
        if not order <= max_order <= 28:
            raise ValueError(f"max_order must be in [order, 28], got {max_order}")
        if slots_per_bucket < 1:
            raise ValueError(f"need at least one slot per bucket, got {slots_per_bucket}")
        if not lifetime > 0:
            raise ValueError(f"lifetime must be positive, got {lifetime}")
        if not 0.0 < grow_at <= 1.0:
            raise ValueError(f"grow_at must be in (0, 1], got {grow_at}")
        self._order = order
        self._slots = slots_per_bucket
        self._lifetime = float(lifetime)
        self._seed = splitmix64(seed & _MASK64)
        self._max_order = max_order
        self._grow_at = grow_at
        self._max_kick_nodes = max_kick_nodes
        self._alloc()
        self.inserts = 0
        self.refreshes = 0
        self.kicks = 0
        self.grows = 0
        self.overwrites = 0
        self.lookups = 0
        self.hits = 0
        self.grow_causes = {cause: 0 for cause in _GROW_CAUSES}

    def _alloc(self) -> None:
        buckets = 1 << self._order
        self._mask = buckets - 1
        self._key_lo = np.zeros((buckets, self._slots), dtype=np.uint64)
        self._key_hi = np.zeros((buckets, self._slots), dtype=np.uint64)
        self._stamp = np.full((buckets, self._slots), _EMPTY, dtype=np.float64)
        self._occupied = 0

    # -- geometry ---------------------------------------------------------------

    @property
    def order(self) -> int:
        return self._order

    @property
    def num_buckets(self) -> int:
        return 1 << self._order

    @property
    def slots_per_bucket(self) -> int:
        return self._slots

    @property
    def capacity(self) -> int:
        return (1 << self._order) * self._slots

    @property
    def lifetime(self) -> float:
        return self._lifetime

    @property
    def max_order(self) -> int:
        """Growth ceiling: at this order inserts overwrite-stalest instead."""
        return self._max_order

    @property
    def grow_at(self) -> float:
        """Utilization fraction that triggers purge-then-grow."""
        return self._grow_at

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def occupancy(self) -> int:
        """Slots holding an entry (live or expired-but-not-yet-reclaimed)."""
        return self._occupied

    @property
    def utilization(self) -> float:
        return self._occupied / self.capacity

    @property
    def memory_bytes(self) -> int:
        """Bytes of key/stamp storage (8 + 8 + 8 per slot)."""
        return self._key_lo.nbytes + self._key_hi.nbytes + self._stamp.nbytes

    def live_count(self, now: float) -> int:
        """Entries still within their lifetime at ``now`` (O(capacity))."""
        return int((self._stamp > now - self._lifetime).sum())

    # -- hashing ----------------------------------------------------------------

    def _bucket_and_tag(self, lo: int, hi: int) -> Tuple[int, int]:
        h = splitmix64(lo ^ splitmix64(hi ^ self._seed))
        bucket = h & self._mask
        # The tag is derived from high hash bits and forced odd, so the
        # alternate bucket b ^ tag is always distinct and either bucket of a
        # stored key is recomputable from the key alone.
        tag = ((h >> 32) & self._mask) | 1
        return bucket, tag

    def _alt_bucket(self, bucket: int, lo: int, hi: int) -> int:
        b1, tag = self._bucket_and_tag(lo, hi)
        del b1
        return bucket ^ tag

    # -- scalar path ------------------------------------------------------------

    def contains(self, lo: int, hi: int, ts: float) -> bool:
        """Is the key live at time ``ts``?  Never mutates the table."""
        self.lookups += 1
        cutoff = ts - self._lifetime
        b1, tag = self._bucket_and_tag(lo, hi)
        klo, khi, stamp = self._key_lo, self._key_hi, self._stamp
        ulo, uhi = np.uint64(lo), np.uint64(hi)
        for b in (b1, b1 ^ tag):
            row_lo, row_hi, row_st = klo[b], khi[b], stamp[b]
            for s in range(self._slots):
                if row_st[s] > cutoff and row_lo[s] == ulo and row_hi[s] == uhi:
                    self.hits += 1
                    return True
        return False

    def insert(self, lo: int, hi: int, ts: float,
               gc_now: Optional[float] = None) -> None:
        """Insert or refresh the key with stamp ``ts``.

        ``gc_now`` bounds garbage collection: entries are only reclaimed
        (purged, dropped on grow, or treated as free slots) when expired
        relative to ``gc_now`` rather than ``ts``.  Batch replays pass the
        window start so an insert stamped late in a window can never evict
        an entry that an earlier lookup in the same window still considers
        live; the scalar path leaves it at the default (``ts``).
        """
        gc_now = ts if gc_now is None else min(gc_now, ts)
        self.inserts += 1
        self._insert(lo, hi, ts, gc_now)
        if self._occupied >= self._grow_at * self.capacity:
            self._purge_expired(gc_now)
            if self._occupied >= self._grow_at * self.capacity:
                self._grow(gc_now, cause="utilization")

    def _insert(self, lo: int, hi: int, ts: float, gc_now: float) -> None:
        cutoff = gc_now - self._lifetime
        b1, tag = self._bucket_and_tag(lo, hi)
        b2 = b1 ^ tag
        klo, khi, stamp = self._key_lo, self._key_hi, self._stamp
        ulo, uhi = np.uint64(lo), np.uint64(hi)
        # Refresh if present (live or expired — either way it's our slot now).
        for b in (b1, b2):
            row_lo, row_hi = klo[b], khi[b]
            for s in range(self._slots):
                if stamp[b, s] != _EMPTY and row_lo[s] == ulo and row_hi[s] == uhi:
                    stamp[b, s] = ts
                    self.refreshes += 1
                    return
        # Free slot: never-used or expired.
        for b in (b1, b2):
            for s in range(self._slots):
                st = stamp[b, s]
                if st == _EMPTY or st <= cutoff:
                    self._place(b, s, ulo, uhi, ts, was_empty=st == _EMPTY)
                    return
        # Both buckets full of live entries: BFS a relocation path.
        if self._bfs_insert(b1, b2, ulo, uhi, ts, cutoff):
            return
        # The relocation graph is jammed.  Grow if allowed, else overwrite
        # the stalest candidate slot (conservative: evicts the entry closest
        # to expiry).
        if self._order < self._max_order:
            self._grow(gc_now, cause="pressure")
            self._insert(lo, hi, ts, gc_now)
            return
        self.overwrites += 1
        rows = np.concatenate([stamp[b1], stamp[b2]])
        flat = int(rows.argmin())
        b, s = (b1, flat) if flat < self._slots else (b2, flat - self._slots)
        self._place(b, s, ulo, uhi, ts, was_empty=False)

    def _place(self, bucket: int, slot: int, ulo: np.uint64, uhi: np.uint64,
               ts: float, was_empty: bool) -> None:
        self._key_lo[bucket, slot] = ulo
        self._key_hi[bucket, slot] = uhi
        self._stamp[bucket, slot] = ts
        if was_empty:
            self._occupied += 1

    def _bfs_insert(self, b1: int, b2: int, ulo: np.uint64, uhi: np.uint64,
                    ts: float, cutoff: float) -> bool:
        """Find the nearest free slot reachable by relocations and shift
        entries along the path; the freed root slot takes the new key."""
        # paths[i] = (bucket, parent_index, slot_in_parent_bucket)
        paths = [(b1, -1, -1), (b2, -1, -1)]
        visited = {b1, b2}
        queue = deque((0, 1))
        stamp, klo, khi = self._stamp, self._key_lo, self._key_hi
        while queue and len(paths) < self._max_kick_nodes:
            i = queue.popleft()
            bucket = paths[i][0]
            for s in range(self._slots):
                st = stamp[bucket, s]
                if st == _EMPTY or st <= cutoff:
                    # Walk the path backwards, shifting each blocking entry
                    # into the slot just freed below it.
                    was_empty = st == _EMPTY
                    free_slot = s
                    cur = i
                    while paths[cur][1] != -1:
                        _, parent, parent_slot = paths[cur]
                        pb = paths[parent][0]
                        self._key_lo[bucket, free_slot] = klo[pb, parent_slot]
                        self._key_hi[bucket, free_slot] = khi[pb, parent_slot]
                        self._stamp[bucket, free_slot] = stamp[pb, parent_slot]
                        self.kicks += 1
                        bucket, free_slot, cur = pb, parent_slot, parent
                    self._place(bucket, free_slot, ulo, uhi, ts, was_empty=was_empty)
                    return True
            for s in range(self._slots):
                alt = self._alt_bucket(bucket, int(klo[bucket, s]), int(khi[bucket, s]))
                if alt not in visited:
                    visited.add(alt)
                    paths.append((alt, i, s))
                    queue.append(len(paths) - 1)
        return False

    # -- vectorized path --------------------------------------------------------

    def _buckets_vec(self, lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        h = splitmix64_vec(lo ^ splitmix64_vec(hi ^ np.uint64(self._seed)))
        mask = np.uint64(self._mask)
        b1 = h & mask
        tag = ((h >> np.uint64(32)) & mask) | np.uint64(1)
        return b1.astype(np.int64), (b1 ^ tag).astype(np.int64)

    def contains_batch(self, lo: np.ndarray, hi: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`contains`: boolean live-membership mask."""
        lo = np.ascontiguousarray(lo, dtype=np.uint64)
        hi = np.ascontiguousarray(hi, dtype=np.uint64)
        n = len(lo)
        self.lookups += n
        if n == 0:
            return np.zeros(0, dtype=bool)
        cutoff = (np.asarray(ts, dtype=np.float64) - self._lifetime)[:, None]
        found = np.zeros(n, dtype=bool)
        for buckets in self._buckets_vec(lo, hi):
            hit = (
                (self._key_lo[buckets] == lo[:, None])
                & (self._key_hi[buckets] == hi[:, None])
                & (self._stamp[buckets] > cutoff)
            )
            found |= hit.any(axis=1)
        self.hits += int(found.sum())
        return found

    def insert_batch(self, lo: np.ndarray, hi: np.ndarray, ts: np.ndarray,
                     gc_now: Optional[float] = None) -> None:
        """Insert keys in array order, bit-identical to sequential
        :meth:`insert` calls (pinned by the batch/scalar digest-parity
        test).  In serving steady state almost every outgoing packet
        refreshes a flow the table already holds, so runs of refreshes are
        applied as one vectorized stamp write; a genuinely new key falls
        back to the scalar insert (which may kick or grow), after which the
        remaining run is re-resolved against the updated layout.  Batches
        dominated by new keys (flow churn, worm outbreaks) skip straight to
        the scalar loop rather than re-resolving after every miss.

        ``gc_now`` is forwarded to every :meth:`insert` — windowed replays
        pass the window start so collection stays conservative across the
        whole batch (see :meth:`insert`)."""
        lo = np.ascontiguousarray(lo, dtype=np.uint64)
        hi = np.ascontiguousarray(hi, dtype=np.uint64)
        ts = np.ascontiguousarray(ts, dtype=np.float64)
        n = len(lo)
        start = 0
        while start < n:
            # Fixed-size chunks bound the re-resolution cost after a miss
            # to O(chunk) instead of O(remaining batch).
            end = min(start + 1024, n)
            while start < end:
                # At the growth threshold the scalar path purges/grows on
                # its next call (even a refresh); delegate one element so
                # the vectorized refreshes below stay growth-neutral.
                if self._occupied >= self._grow_at * self.capacity:
                    self.insert(int(lo[start]), int(hi[start]),
                                float(ts[start]), gc_now)
                    start += 1
                    continue
                rlo, rhi, rts = lo[start:end], hi[start:end], ts[start:end]
                # A present key (live *or* expired — same criterion as the
                # scalar refresh) occupies exactly one slot, so the two
                # bucket probes resolve it unambiguously.
                sel_b = np.full(len(rlo), -1, dtype=np.int64)
                sel_s = np.zeros(len(rlo), dtype=np.int64)
                for b in self._buckets_vec(rlo, rhi):
                    hit = (
                        (self._key_lo[b] == rlo[:, None])
                        & (self._key_hi[b] == rhi[:, None])
                        & (self._stamp[b] != _EMPTY)
                    )
                    rows = hit.any(axis=1)
                    sel_b[rows] = b[rows]
                    sel_s[rows] = hit.argmax(axis=1)[rows]
                present = sel_b >= 0
                if np.count_nonzero(present) * 2 < len(rlo):
                    for i in range(start, end):
                        self.insert(int(lo[i]), int(hi[i]), float(ts[i]),
                                    gc_now)
                    start = end
                    break
                misses = np.nonzero(~present)[0]
                run = int(misses[0]) if len(misses) else len(rlo)
                if run:
                    # Fancy assignment takes the last write per slot,
                    # matching sequential refreshes of a repeated key (ts
                    # is in batch order).
                    self._stamp[sel_b[:run], sel_s[:run]] = rts[:run]
                    self.inserts += run
                    self.refreshes += run
                    start += run
                if run < len(rlo):
                    self.insert(int(lo[start]), int(hi[start]),
                                float(ts[start]), gc_now)
                    start += 1

    # -- maintenance ------------------------------------------------------------

    def _purge_expired(self, now: float) -> None:
        dead = (self._stamp != _EMPTY) & (self._stamp <= now - self._lifetime)
        n = int(dead.sum())
        if n:
            self._stamp[dead] = _EMPTY
            self._occupied -= n

    def _grow(self, now: float, cause: str) -> None:
        if self._order >= self._max_order:
            return
        old_lo, old_hi, old_stamp = self._key_lo, self._key_hi, self._stamp
        self._order += 1
        self._alloc()
        self.grows += 1
        self.grow_causes[cause] += 1
        # Exact rehash of every live entry; expired ones are garbage-collected
        # by the move.
        live = old_stamp > now - self._lifetime
        for lo, hi, ts in zip(
            old_lo[live].tolist(), old_hi[live].tolist(), old_stamp[live].tolist()
        ):
            self._insert(lo, hi, ts, now)

    def grow_for_pressure(self, now: float, cause: str = "fpr") -> bool:
        """Externally requested doubling (e.g. measured-FPR trigger).

        Returns False once the ``max_order`` ceiling is reached.
        """
        if self._order >= self._max_order:
            return False
        self._grow(now, cause=cause)
        return True

    # -- snapshot / copy --------------------------------------------------------

    def state_digest(self) -> str:
        """SHA-256 over the raw table arrays (geometry-independent of layout)."""
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(self._key_lo).tobytes())
        digest.update(np.ascontiguousarray(self._key_hi).tobytes())
        digest.update(np.ascontiguousarray(self._stamp).tobytes())
        return digest.hexdigest()

    def export_state(self) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
        """(arrays, metadata) for the snapshot writer."""
        arrays = {
            "cuckoo_key_lo": self._key_lo.copy(),
            "cuckoo_key_hi": self._key_hi.copy(),
            "cuckoo_stamp": self._stamp.copy(),
        }
        meta = {
            "order": self._order,
            "slots_per_bucket": self._slots,
            "lifetime": self._lifetime,
            "seed": int(self._seed),
            "max_order": self._max_order,
            "grow_at": self._grow_at,
            "max_kick_nodes": self._max_kick_nodes,
            "occupied": self._occupied,
            "sha256": self.state_digest(),
        }
        return arrays, meta

    @classmethod
    def from_state(cls, arrays: Dict[str, np.ndarray], meta: Dict[str, object]) -> "CuckooFlowTable":
        """Rebuild a table from :meth:`export_state` output."""
        table = cls.__new__(cls)
        table._order = int(meta["order"])
        table._slots = int(meta["slots_per_bucket"])
        table._lifetime = float(meta["lifetime"])
        table._seed = int(meta["seed"])
        table._max_order = int(meta["max_order"])
        table._grow_at = float(meta["grow_at"])
        table._max_kick_nodes = int(meta["max_kick_nodes"])
        table._mask = (1 << table._order) - 1
        key_lo = np.ascontiguousarray(arrays["cuckoo_key_lo"], dtype=np.uint64)
        key_hi = np.ascontiguousarray(arrays["cuckoo_key_hi"], dtype=np.uint64)
        stamp = np.ascontiguousarray(arrays["cuckoo_stamp"], dtype=np.float64)
        shape = (1 << table._order, table._slots)
        for name, arr in (("key_lo", key_lo), ("key_hi", key_hi), ("stamp", stamp)):
            if arr.shape != shape:
                raise ValueError(
                    f"cuckoo snapshot {name} shape {arr.shape} does not match "
                    f"geometry {shape}"
                )
        table._key_lo = key_lo
        table._key_hi = key_hi
        table._stamp = stamp
        table._occupied = int(meta["occupied"])
        table.inserts = table.refreshes = table.kicks = 0
        table.grows = table.overwrites = table.lookups = table.hits = 0
        table.grow_causes = {cause: 0 for cause in _GROW_CAUSES}
        return table

    def copy(self) -> "CuckooFlowTable":
        """Independent deep copy (used when materializing snapshots)."""
        arrays, meta = self.export_state()
        clone = CuckooFlowTable.from_state(arrays, meta)
        clone.inserts = self.inserts
        clone.refreshes = self.refreshes
        clone.kicks = self.kicks
        clone.grows = self.grows
        clone.overwrites = self.overwrites
        clone.lookups = self.lookups
        clone.hits = self.hits
        clone.grow_causes = dict(self.grow_causes)
        return clone

    def counters(self) -> Dict[str, int]:
        return {
            "inserts": self.inserts,
            "refreshes": self.refreshes,
            "kicks": self.kicks,
            "grows": self.grows,
            "overwrites": self.overwrites,
            "lookups": self.lookups,
            "hits": self.hits,
        }

    def __repr__(self) -> str:
        return (
            f"CuckooFlowTable(order={self._order}, slots={self._slots}, "
            f"occupied={self._occupied}/{self.capacity}, "
            f"lifetime={self._lifetime})"
        )
