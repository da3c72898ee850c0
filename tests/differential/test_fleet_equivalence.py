"""Fleet control-plane differential proofs (ISSUE 9).

The zero-downtime claims are meaningless without an equivalence oracle,
so each one gets a differential twin:

- **Rolling reconfig**: replaying through a live 3-node fleet while
  ``FleetManager.rolling_reconfig`` changes the bitmap order mid-trace
  must produce verdicts *byte-identical* to an offline single filter
  that rebuilds at the same shared boundary
  (:func:`repro.sim.pipeline.run_filter_with_reconfig`).  The test also
  proves the rebuild actually fired on every node — a boundary past the
  end of the trace would make the identity vacuous.
- **Scale-out**: adding a store-pre-warmed node mid-replay must finish
  with zero hangs, divergence (if any) confined to the tail packets the
  arrival now owns, and a nonzero ``restored_arrivals`` on its
  ``/healthz`` — the proof it served warm, not cold.

Real subprocesses (the SIGHUP reload path is the thing under test), so
both ``differential`` and ``slow`` markers.
"""

import numpy as np
import pytest

from repro.core.bitmap_filter import BitmapFilter, FilterConfig
from repro.fleet import FleetManager, FleetRouter
from repro.serve.retry import RetryPolicy
from repro.sim.pipeline import run_filter_on_trace, run_filter_with_reconfig
from repro.traffic.trace import Trace

pytestmark = [pytest.mark.differential, pytest.mark.slow]

PROTECTED_ARG = ",".join(f"172.16.{i}.0/24" for i in range(6))

OLD_CFG = FilterConfig(order=12, num_vectors=4, rotation_interval=2.5)
NEW_CFG = FilterConfig(order=13, num_vectors=4, rotation_interval=2.5)


@pytest.fixture()
def fleet(tmp_path):
    manager = FleetManager(PROTECTED_ARG, size=3, workdir=str(tmp_path),
                           order=12, rotation_interval=2.5)
    yield manager
    manager.shutdown()


def frames_of(packets, step=500):
    return [packets[i:i + step] for i in range(0, len(packets), step)]


def router_for(specs, protected):
    return FleetRouter(
        specs, protected=protected,
        retry=RetryPolicy(max_attempts=3, base_delay=0.05,
                          max_delay=0.5, deadline=10.0))


def test_rolling_reconfig_is_byte_identical_to_offline(fleet, tiny_trace):
    """Fleet verdicts across a live rolling reconfig == one offline
    filter rebuilding at the same shared boundary."""
    packets = tiny_trace.packets.sorted_by_time()[:8000]
    specs = fleet.start()
    frames = frames_of(packets)
    cut = len(frames) // 3
    with router_for(specs, tiny_trace.protected) as router:
        masks = router.filter_batches(frames[:cut])
        report = fleet.rolling_reconfig(NEW_CFG)
        masks += router.filter_batches(frames[cut:])
    verdicts = np.concatenate(masks)

    # The boundary must be interior to the remaining traffic, and the
    # rebuild must have fired on every node — otherwise the byte-identity
    # below would be vacuously comparing two no-op replays.
    assert report.rebuild_at < float(packets.ts.max())
    for name in report.nodes:
        health = fleet.healthz(name)
        assert health["pending_rebuild"] is False
        assert health["filter"]["order"] == NEW_CFG.order

    expected = run_filter_with_reconfig(
        OLD_CFG, NEW_CFG, Trace(packets, tiny_trace.protected),
        report.rebuild_at)
    np.testing.assert_array_equal(verdicts, expected)


def test_reconfig_changes_verdicts_so_the_identity_is_not_vacuous(
        tiny_trace):
    """Sanity anchor for the test above: the reconfig twin must *differ*
    from a never-reconfigured replay somewhere — the shrunken order=13
    table re-marks flows differently after the rebuild."""
    packets = tiny_trace.packets.sorted_by_time()[:8000]
    trace = Trace(packets, tiny_trace.protected)
    plain = np.asarray(run_filter_on_trace(
        BitmapFilter(OLD_CFG, tiny_trace.protected), trace).verdicts,
        dtype=bool)
    boundary = float(packets.ts[len(packets) // 3])
    reconfig = run_filter_with_reconfig(OLD_CFG, NEW_CFG, trace, boundary)
    assert len(plain) == len(reconfig)
    # Not asserting a specific count — only that the operation is
    # observable, so byte-identity through it is a real constraint.
    assert (plain != reconfig).any()


def test_add_node_mid_replay_confines_divergence_and_serves_warm(
        fleet, tiny_trace):
    """Scale-out under load: zero hangs, divergence only on the stolen
    share, and the arrival provably warm-started from the store."""
    packets = tiny_trace.packets.sorted_by_time()[:8000]
    expected = np.asarray(run_filter_on_trace(
        BitmapFilter(OLD_CFG, tiny_trace.protected),
        Trace(packets, tiny_trace.protected)).verdicts,
        dtype=bool)

    specs = fleet.start()
    frames = frames_of(packets)
    half = len(frames) // 2
    cut = sum(len(frame) for frame in frames[:half])
    with router_for(specs, tiny_trace.protected) as router:
        masks = router.filter_batches(frames[:half])
        report = fleet.add_node(router)
        masks += router.filter_batches(frames[half:])
        owners = np.asarray(router.owner_names(packets))
    verdicts = np.concatenate(masks)

    assert len(verdicts) == len(packets)  # every frame answered: no hangs
    assert report.warm is True
    health = fleet.healthz(report.spec.name)
    assert health["restored"] is True
    assert health["restored_arrivals"] > 0

    diverged = np.flatnonzero(verdicts != expected)
    foreign = [i for i in diverged
               if i < cut or owners[i] != report.spec.name]
    assert not foreign, (
        f"{len(foreign)} diverged verdicts outside the arrival's share")
