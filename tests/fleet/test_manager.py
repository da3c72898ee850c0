"""FleetManager subprocess supervision and the snapshot warm handoff.

These spawn real ``repro serve`` subprocesses, so they carry the `slow`
marker.  The headline test is handoff equivalence: streaming through a
fleet whose node is warm-restarted mid-trace must produce verdicts
byte-identical to an uninterrupted offline replay — the snapshot carried
every marked bit across the restart.
"""

import numpy as np
import pytest

from repro.core.bitmap_filter import BitmapFilter, FilterConfig
from repro.fleet import (
    FleetManager,
    FleetRouter,
    RollingReconfigError,
)
from repro.serve.retry import RetryPolicy
from repro.sim.pipeline import run_filter_on_trace
from repro.traffic.trace import Trace

pytestmark = pytest.mark.slow

PROTECTED_ARG = ",".join(f"172.16.{i}.0/24" for i in range(6))


@pytest.fixture()
def manager(tmp_path):
    fleet = FleetManager(PROTECTED_ARG, size=2, workdir=str(tmp_path),
                        order=12, rotation_interval=2.5)
    yield fleet
    fleet.shutdown()


@pytest.fixture()
def trio(tmp_path):
    fleet = FleetManager(PROTECTED_ARG, size=3, workdir=str(tmp_path),
                         order=12, rotation_interval=2.5)
    yield fleet
    fleet.shutdown()


def frames_of(packets, step=500):
    return [packets[i:i + step] for i in range(0, len(packets), step)]


class TestLifecycle:
    def test_start_yields_connectable_specs(self, manager, tiny_trace):
        specs = manager.start()
        assert len(specs) == 2
        assert all(spec.http_url for spec in specs)
        with FleetRouter(specs, protected=tiny_trace.protected) as router:
            info = router.fleet_config()
            assert info["clock"] == "packet"

    def test_kill_then_restart_keeps_the_name(self, manager):
        manager.start()
        manager.kill("node0")
        assert not manager.node("node0").alive
        spec = manager.restart("node0")
        assert spec.name == "node0"
        assert manager.node("node0").alive

    def test_restart_requires_a_dead_process(self, manager):
        manager.start()
        with pytest.raises(RuntimeError, match="still running"):
            manager.restart("node0")

    def test_snapshot_endpoint_serves_bytes(self, manager):
        manager.start()
        blob = manager.fetch_snapshot("node0")
        assert len(blob) > 0


class TestWarmHandoff:
    def test_warm_restart_preserves_verdict_stream(self, manager, tiny_trace):
        """Fleet with a mid-trace warm restart == uninterrupted offline."""
        packets = tiny_trace.packets.sorted_by_time()[:8000]
        fcfg = FilterConfig(order=12, num_vectors=4, rotation_interval=2.5)
        offline = BitmapFilter(fcfg, tiny_trace.protected)
        expected = np.asarray(run_filter_on_trace(
            offline, Trace(packets, tiny_trace.protected)).verdicts,
            dtype=bool)

        specs = manager.start()
        frames = frames_of(packets)
        half = len(frames) // 2
        router = FleetRouter(
            specs, protected=tiny_trace.protected,
            retry=RetryPolicy(max_attempts=3, base_delay=0.05,
                              max_delay=0.5, deadline=10.0))
        with router:
            masks = router.filter_batches(frames[:half])
            new_spec = manager.warm_restart("node0")
            router.update_node(new_spec)
            masks += router.filter_batches(frames[half:])
        verdicts = np.concatenate(masks)
        np.testing.assert_array_equal(verdicts, expected)

    def test_warm_restart_publishes_to_the_shared_store(self, manager):
        manager.start()
        assert manager.store.fleet_latest() is None
        manager.warm_restart("node0")
        ref = manager.store.latest("node0")
        assert ref is not None
        assert manager.store.read(ref)  # digest-verified bytes
        health = manager.healthz("node0")
        assert health["restored"] is True


class TestRollingReconfig:
    def test_reconfig_confirms_every_node_at_one_boundary(self, manager):
        manager.start()
        new_cfg = FilterConfig(order=13, num_vectors=4,
                               rotation_interval=2.5)
        report = manager.rolling_reconfig(new_cfg)
        assert report.nodes == ["node0", "node1"]
        for name in report.nodes:
            health = manager.healthz(name)
            assert health["pending_geometry"]["order"] == 13
            assert health["pending_rebuild_at"] == report.rebuild_at
        assert manager.order == 13  # future spawns use the new geometry

    def test_dead_node_aborts_the_roll_cleanly(self, trio):
        """ISSUE 9 fault path: a dead node stops the roll before any
        signal goes out — survivors keep serving the old geometry, the
        manager's own geometry is untouched, and a repair + retry works."""
        trio.start()
        trio.kill("node1")
        new_cfg = FilterConfig(order=13, num_vectors=4,
                               rotation_interval=2.5)
        with pytest.raises(RollingReconfigError) as excinfo:
            trio.rolling_reconfig(new_cfg)
        assert excinfo.value.node == "node1"
        assert excinfo.value.completed == []
        for survivor in ("node0", "node2"):
            health = trio.healthz(survivor)
            assert health["pending_rebuild"] is False
            assert health["filter"]["order"] == 12
        assert trio.order == 12
        # Repair and retry: the roll completes.
        trio.restart("node1")
        report = trio.rolling_reconfig(new_cfg)
        assert report.nodes == ["node0", "node1", "node2"]
        assert trio.order == 13


class TestAddNode:
    def test_add_node_with_empty_store_warns_and_cold_starts(self, manager,
                                                             tiny_trace):
        manager.start()
        with FleetRouter(manager.specs(),
                         protected=tiny_trace.protected) as router:
            with pytest.warns(RuntimeWarning, match="empty"):
                report = manager.add_node(router, publish=False)
            assert report.warm is False
            assert report.restored_from is None
            assert report.spec.name == "node2"
            assert "node2" in router.ring
        health = manager.healthz("node2")
        assert health["restored"] is False
        assert health["restored_arrivals"] == 0

    def test_add_node_prewarms_from_the_fleets_freshest_state(
            self, manager, tiny_trace):
        """The acceptance check: a scale-out under load serves from warm
        SnapshotStore state — nonzero restored arrivals on /healthz."""
        packets = tiny_trace.packets.sorted_by_time()[:6000]
        manager.start()
        with FleetRouter(manager.specs(),
                         protected=tiny_trace.protected) as router:
            router.filter_batches(frames_of(packets))
            report = manager.add_node(router)
            assert report.warm is True
            assert sum(report.stolen.values()) > 0
            assert set(report.stolen) <= {"node0", "node1"}
        health = manager.healthz(report.spec.name)
        assert health["restored"] is True
        assert health["restored_arrivals"] > 0
