"""Property: every PacketFilter implementation's batch path equals its
scalar path.

The unified API (``repro.core.filter_api``) promises that
``process_batch(packets)`` on a fresh filter returns exactly the verdicts a
scalar ``process`` loop would, for *all seven* implementations — the two
bitmap variants, the hybrid bitmap→cuckoo verified stack, the three SPI
filters, and the rate-limiting baseline.
"""

import pytest
from hypothesis import given, settings

from repro.baselines.throttle import AggregateRateLimiter
from repro.core.bitmap_filter import BitmapFilter, BitmapFilterConfig, Decision
from repro.core.close_aware import CloseAwareBitmapFilter
from repro.core.filter_api import PacketFilter
from repro.core.hybrid import HybridVerifiedFilter, VerifySpec
from repro.net.packet import PacketArray
from repro.spi.avltree import AvlTreeFilter
from repro.spi.hashlist import HashListFilter
from repro.spi.naive import NaiveExactFilter
from tests.strategies import PROTECTED, mixed_direction_packets, packet_scripts

CONFIG = BitmapFilterConfig(order=10, num_vectors=4, num_hashes=3,
                            rotation_interval=5.0)

#: Fresh-instance factories for all seven PacketFilter implementations.
FILTER_FACTORIES = {
    "BitmapFilter": lambda: BitmapFilter(CONFIG, PROTECTED),
    "HybridVerifiedFilter": lambda: HybridVerifiedFilter(
        BitmapFilter(CONFIG, PROTECTED), VerifySpec(initial_order=4)),
    "CloseAwareBitmapFilter": lambda: CloseAwareBitmapFilter(CONFIG, PROTECTED),
    "NaiveExactFilter": lambda: NaiveExactFilter(PROTECTED),
    "HashListFilter": lambda: HashListFilter(PROTECTED),
    "AvlTreeFilter": lambda: AvlTreeFilter(PROTECTED),
    "AggregateRateLimiter": lambda: AggregateRateLimiter(
        PROTECTED, trigger_pps=5.0, limit_pps=2.0, window=5.0),
}

ALL_FILTERS = sorted(FILTER_FACTORIES)


@pytest.mark.parametrize("name", ALL_FILTERS)
def test_implements_packet_filter_protocol(name):
    assert isinstance(FILTER_FACTORIES[name](), PacketFilter)


class TestBatchScalarAgreement:
    @pytest.mark.parametrize("name", ALL_FILTERS)
    @given(script=packet_scripts())
    @settings(max_examples=60, deadline=None)
    def test_exact_batch_equals_scalar(self, name, script):
        make = FILTER_FACTORIES[name]
        scalar = make()
        expected = [scalar.process(p) is Decision.PASS for p in script]
        batch = make()
        got = batch.process_batch(PacketArray.from_packets(script))
        assert got.tolist() == expected, name

    @pytest.mark.parametrize("name", ALL_FILTERS)
    @given(script=mixed_direction_packets())
    @settings(max_examples=40, deadline=None)
    def test_exact_batch_equals_scalar_all_directions(self, name, script):
        """Internal and transit packets must agree too, not just the
        outgoing/incoming flows the other suites emphasize."""
        make = FILTER_FACTORIES[name]
        scalar = make()
        expected = [scalar.process(p) is Decision.PASS for p in script]
        batch = make()
        got = batch.process_batch(PacketArray.from_packets(script))
        assert got.tolist() == expected, name


class TestDirectionalApi:
    @pytest.mark.parametrize("name", ALL_FILTERS)
    @given(script=packet_scripts())
    @settings(max_examples=30, deadline=None)
    def test_admit_in_batch_equals_process_batch(self, name, script):
        make = FILTER_FACTORIES[name]
        batch = PacketArray.from_packets(script)
        via_process = make().process_batch(batch)
        via_admit = make().admit_in_batch(batch)
        assert via_process.tolist() == via_admit.tolist(), name
