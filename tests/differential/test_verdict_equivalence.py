"""Differential proof, part 1: fault-free verdict and state agreement.

The vectorised ``process_batch`` must return the exact verdict vector —
and leave the exact state — that scalar ``process()`` gives packet by
packet: over a whole trace in one batch or in frames, interleaved with
scalar calls, on replies that arrive before their own mark inside one
rotation window, and across random and rotation-boundary-clustered
Hypothesis scripts.  ``stack`` arguments sweep both filter stacks, each
on the whole input and on one fleet node's slice of it (see conftest).
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.bitmap_filter import BitmapFilterConfig
from repro.net.packet import Packet, PacketArray, TcpFlags
from repro.net.protocols import IPPROTO_TCP
from tests.differential.conftest import (
    assert_same_filter_state,
    make_filter,
    node_slice,
    scalar_batch,
)
from tests.strategies import (
    PROTECTED,
    mixed_direction_packets,
    rotation_straddling_arrays,
    script_to_packets,
    traffic_scripts,
)

pytestmark = pytest.mark.differential

#: Geometry matching the shared strategies' defaults (5 s rotations).
HYP_CONFIG = BitmapFilterConfig(order=10, num_vectors=4, num_hashes=3,
                                rotation_interval=5.0)


def _assert_batch_equals_scalar(protected, stack, batches, config=None):
    """Feed ``batches`` to a batch-driven filter and, packet by packet, to
    a scalar one; require identical verdicts and final state."""
    kwargs = {} if config is None else {"config": config}
    reference = make_filter(protected, stack, **kwargs)
    subject = make_filter(protected, stack, **kwargs)
    for batch in batches:
        batch = node_slice(batch, protected, stack)
        expected = scalar_batch(reference, batch)
        got = subject.process_batch(batch)
        assert np.array_equal(got, expected)
    assert_same_filter_state(reference, subject)


@pytest.mark.parametrize("frame", [None, 500, 32],
                         ids=["whole", "frames500", "frames32"])
def test_full_trace_verdicts_and_state(trace, stack, frame):
    packets = trace.packets
    step = frame or len(packets)
    batches = [packets[i:i + step] for i in range(0, len(packets), step)]
    _assert_batch_equals_scalar(trace.protected, stack, batches)


def test_batch_after_scalar_interleaving(trace, stack):
    """Mixing the scalar and batch entry points must not diverge."""
    packets = trace.packets[:900]
    split = 300
    reference = make_filter(trace.protected, stack)
    subject = make_filter(trace.protected, stack)
    for pkt in packets[:split]:
        assert subject.process(pkt) is reference.process(pkt)
    expected = scalar_batch(reference, packets[split:])
    got = subject.process_batch(packets[split:])
    assert np.array_equal(got, expected)
    assert_same_filter_state(reference, subject)


def test_reply_before_its_mark_in_one_window(trace, stack):
    """Replies arriving just before their own outgoing mark inside one
    rotation window must be dropped, and the reply just after the mark
    passed — the ordering a marks-first shortcut would get wrong."""
    protected = trace.protected
    packets = []
    for flow in range(24):
        client = protected.networks[flow % 2].host(30 + flow)
        server = 0x0A000100 + flow
        sport = 40_000 + flow
        t0 = 0.3 + 0.9 * flow  # spreads flows across rotation windows
        packets.append(Packet(t0, IPPROTO_TCP, server, 80, client, sport,
                              TcpFlags.ACK))          # reply before the mark
        packets.append(Packet(t0 + 0.05, IPPROTO_TCP, client, sport,
                              server, 80, TcpFlags.ACK))  # the mark
        packets.append(Packet(t0 + 0.10, IPPROTO_TCP, server, 80, client,
                              sport, TcpFlags.ACK))   # reply after the mark
    packets.sort(key=lambda pkt: pkt.ts)
    # A ring slice keeps whole flows, so the triples stay intact.
    batch = node_slice(PacketArray.from_packets(packets), protected, stack)

    reference = make_filter(protected, stack)
    expected = scalar_batch(reference, batch)
    assert not expected[0::3].any() and expected[2::3].all(), \
        "scenario too tame: the early replies should all miss"
    subject = make_filter(protected, stack)
    assert np.array_equal(subject.process_batch(batch), expected)
    assert_same_filter_state(reference, subject)


@given(script=mixed_direction_packets())
@settings(max_examples=25, deadline=None)
def test_property_mixed_direction_batches(stack, script):
    _assert_batch_equals_scalar(PROTECTED, stack,
                                [PacketArray.from_packets(script)],
                                config=HYP_CONFIG)


@given(events=traffic_scripts())
@settings(max_examples=25, deadline=None)
def test_property_scalar_scripts(stack, events):
    _assert_batch_equals_scalar(
        PROTECTED, stack,
        [PacketArray.from_packets(script_to_packets(events))],
        config=HYP_CONFIG)


@given(batch=rotation_straddling_arrays(
    rotation_interval=HYP_CONFIG.rotation_interval))
@settings(max_examples=25, deadline=None)
def test_property_rotation_boundary_clusters(stack, batch):
    """Timestamps landing just before / on / just after rotation
    boundaries — the adversarial shape for window-splitting bugs."""
    _assert_batch_equals_scalar(PROTECTED, stack, [batch],
                                config=HYP_CONFIG)
