"""Shared fixtures for the batch-vs-scalar differential suite.

The reference model is the scalar per-packet path, ``process()``: the
paper's Algorithm 2 written out.  Every test here replays identical input
through a filter driven by the vectorised ``process_batch`` and through a
reference driven one packet at a time by ``process()``, and asserts
*bit-for-bit* agreement: verdicts, ``FilterStats``, rotation schedule, raw
bitmap bytes and the snapshot archive's digest.  Any test that takes a
``stack`` argument is parametrized over both filter stacks, each fed two
deployments' worth of input:

- a plain name — a bare :class:`~repro.core.bitmap_filter.BitmapFilter`;
- a ``verified-`` prefix — the hybrid bitmap→cuckoo tier
  (:class:`~repro.core.hybrid.HybridVerifiedFilter`) over one, where the
  cuckoo table digests and confirm/deny counts must agree too;
- ``shared`` — one filter judges all the traffic of every protected
  network (the single edge router of the paper);
- ``sharded`` — the filter judges only the slice of the traffic that the
  fleet's consistent-hash ring (:mod:`repro.fleet.ring`) routes to one of
  two nodes: the sparser input each fleet node's batch path sees.

The fixtures provide one session-scoped benign+flood trace (sliced per
deployment), the scalar references, and the state-comparison helper the
whole suite leans on.
"""

import hashlib

import numpy as np
import pytest

from repro.attacks.ddos import syn_flood
from repro.core.bitmap_filter import BitmapFilter, BitmapFilterConfig, Decision
from repro.core.hybrid import HybridVerifiedFilter, VerifySpec
from repro.fleet.ring import HashRing
from repro.net.packet import DIRECTION_INCOMING, PacketArray
from repro.serve.state import snapshot_to_bytes
from repro.traffic.generator import ClientNetworkWorkload, WorkloadConfig
from repro.traffic.trace import Trace

#: The stack × deployment cases every stack-parametrized test sweeps.
STACKS = ("shared", "sharded", "verified-shared", "verified-sharded")

#: The fleet a ``sharded`` case slices its input for, and the node it plays.
FLEET_NODES = ("node-0", "node-1")
SHARD_NODE = 0

#: Small table so the trace exercises growth under the sweep.
VERIFY_SPEC = VerifySpec(initial_order=4)

#: Small geometry with a fast rotation clock: a 25 s trace crosses ~12
#: rotation boundaries and several full expiry windows.
CONFIG = BitmapFilterConfig(order=12, num_vectors=4, num_hashes=3,
                            rotation_interval=2.0)


def pytest_generate_tests(metafunc):
    """Sweep every test that names a ``stack`` argument across every
    :data:`STACKS` case
    (plain parametrize, so Hypothesis tests get it too without
    function-scoped-fixture health checks)."""
    if "stack" in metafunc.fixturenames:
        metafunc.parametrize("stack", STACKS)


def is_verified(stack: str) -> bool:
    return stack.startswith("verified-")


def is_sharded(stack: str) -> bool:
    return stack.endswith("sharded")


def node_slice(packets: PacketArray, protected, stack: str) -> PacketArray:
    """``packets`` as the ``stack`` case's filter receives them: all of
    them when ``shared``; when ``sharded``, those whose protected-side
    address the fleet's ring assigns to :data:`SHARD_NODE` (both directions
    of a flow land on the same node)."""
    if not is_sharded(stack):
        return packets
    incoming = packets.directions(protected) == DIRECTION_INCOMING
    local_addr = np.where(incoming, packets.dst, packets.src)
    owners = HashRing(FLEET_NODES).owners_vec(local_addr.astype(np.uint64))
    return packets[owners == SHARD_NODE]


@pytest.fixture(scope="session")
def whole_trace() -> Trace:
    """Benign client-network workload with a SYN flood on top."""
    base = ClientNetworkWorkload(
        WorkloadConfig(duration=25.0, target_pps=250.0, seed=97)).generate()
    victim = base.protected.networks[0].host(5)
    flood = syn_flood(victim, 80, rate_pps=400.0, start=8.0, duration=6.0,
                      seed=11)
    # Session tails dribble on long past the nominal duration; bound the
    # trace so fault schedules (and rotation counts) stay in a known window.
    return base.merged_with(Trace(flood, base.protected)).time_slice(0.0, 26.0)


@pytest.fixture()
def trace(whole_trace, stack) -> Trace:
    """The session trace as the ``stack`` case's deployment sees it."""
    packets = node_slice(whole_trace.packets, whole_trace.protected, stack)
    return Trace(packets, whole_trace.protected, dict(whole_trace.metadata))


def make_filter(protected, stack="shared", config=CONFIG, **kwargs):
    """A fresh filter of ``stack``: a plain bitmap filter, or the hybrid
    verification tier over one."""
    filt = BitmapFilter(config, protected, **kwargs)
    if is_verified(stack):
        filt = HybridVerifiedFilter(filt, VERIFY_SPEC)
    return filt


def scalar_batch(filt, packets) -> np.ndarray:
    """The reference for ``process_batch``: ``process()`` per packet."""
    return np.array([filt.process(pkt) is Decision.PASS for pkt in packets],
                    dtype=bool)


def make_reference(protected, stack="shared", config=CONFIG, **kwargs):
    """A filter of ``stack`` whose ``process_batch`` is :func:`scalar_batch`,
    so harnesses that drive batches (the pipeline, the engine) run the
    reference model without knowing it."""
    filt = make_filter(protected, stack, config, **kwargs)
    filt.process_batch = lambda packets: scalar_batch(filt, packets)
    return filt


def scalar_replay_with_faults(filt, trace, injectors):
    """The reference for :func:`repro.faults.harness.run_with_faults`: the
    same trace transforms and fault schedule (an event at ``t`` applies
    before any packet with timestamp ``>= t``; an event may replace the
    filter), every packet judged by scalar ``process()``.

    Returns ``(verdicts, final filter)``.
    """
    for injector in injectors:
        trace = injector.transform_trace(trace)
    events = sorted((event for injector in injectors
                     for event in injector.events()),
                    key=lambda event: event.ts)
    verdicts = np.ones(len(trace.packets), dtype=bool)
    pending = iter(events)
    event = next(pending, None)
    for i, pkt in enumerate(trace.packets):
        while event is not None and event.ts <= pkt.ts:
            filt = _apply(event, filt)
            event = next(pending, None)
        verdicts[i] = filt.process(pkt) is Decision.PASS
    while event is not None:
        filt = _apply(event, filt)
        event = next(pending, None)
    return verdicts, filt


def _apply(event, filt):
    replacement = event.apply(filt, event.ts)
    return filt if replacement is None else replacement


def bitmap_state(filt):
    """(stacked vector bytes, current index, rotation count) of a filter."""
    bitmap = filt.bitmap
    vectors = np.stack([vec.as_numpy() for vec in bitmap.vectors])
    return vectors, bitmap.current_index, bitmap.rotations


def snapshot_digest(filt) -> str:
    """SHA-256 of the filter's snapshot-v2 archive."""
    return hashlib.sha256(snapshot_to_bytes(filt)).hexdigest()


def assert_same_filter_state(reference, subject) -> None:
    """The full equivalence contract on two post-replay filters."""
    assert subject.stats.as_dict() == reference.stats.as_dict()
    assert subject.next_rotation == reference.next_rotation
    ref_vecs, ref_idx, ref_rot = bitmap_state(reference)
    sub_vecs, sub_idx, sub_rot = bitmap_state(subject)
    assert sub_idx == ref_idx
    assert sub_rot == ref_rot
    assert np.array_equal(sub_vecs, ref_vecs)
    if isinstance(reference, HybridVerifiedFilter):
        # Verified stack: the exact tier must agree too, byte for byte.
        assert subject.table.state_digest() == reference.table.state_digest()
        assert subject.confirmed == reference.confirmed
        assert subject.denied == reference.denied
    if not reference.is_down:  # snapshots refuse a failed filter
        assert snapshot_digest(subject) == snapshot_digest(reference)
