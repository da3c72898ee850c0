"""Fleet failover under real node death: no hangs, bounded divergence.

Boots a 3-daemon fleet (``FleetManager`` subprocesses, packet clock),
streams a generated client trace through the consistent-hash router, and
SIGKILLs one node mid-replay.  The claims under measurement:

- the replay **completes** — every client wait is deadline-bounded, so a
  dead peer costs retries, never a hang;
- divergence from a single-filter offline replay is **confined** to
  packets the dead node owned on the ring;
- every diverged verdict equals the fleet **fail policy's** answer
  (fail_closed drops the dead share's inbound, fail_open admits it);
- a **warm restart** (snapshot → stop → ``--restore``) is invisible in
  the verdict stream: byte-identical to the uninterrupted offline run.

Run with ``pytest benchmarks/test_fleet_failover.py -s`` to see the
reports.  Not part of tier-1 (benchmarks/ is outside ``testpaths``).
"""

import time

import numpy as np
import pytest

from repro.core.bitmap_filter import BitmapFilter, FilterConfig
from repro.core.resilience import FailPolicy
from repro.fleet import FleetManager, FleetRouter, policy_verdicts
from repro.net.address import AddressSpace
from repro.serve.retry import RetryPolicy
from repro.sim.pipeline import run_filter_on_trace
from repro.traffic.generator import generate_client_trace
from repro.traffic.trace import Trace

pytestmark = [pytest.mark.slow, pytest.mark.faults]

FRAME_PACKETS = 500
# Generous hang ceiling: the healthy replay takes ~2s; a single wedged
# client wait would blow way past this.
COMPLETION_BUDGET = 120.0


@pytest.fixture(scope="module")
def failover_trace():
    return generate_client_trace(duration=40.0, target_pps=600.0, seed=23)


def _frames(packets):
    return [packets[i:i + FRAME_PACKETS]
            for i in range(0, len(packets), FRAME_PACKETS)]


def _offline_reference(info: dict, packets) -> np.ndarray:
    """Single-filter offline verdicts for the fleet's self-description."""
    fcfg = dict(info["filter"])
    policy = FailPolicy(fcfg.pop("fail_policy"))
    protected = AddressSpace(info["protected"])
    twin = BitmapFilter(FilterConfig(**fcfg), protected, fail_policy=policy)
    result = run_filter_on_trace(twin, Trace(packets, protected))
    return np.asarray(result.verdicts, dtype=bool)


def _fleet(trace, tmp_path, fail_policy: str) -> FleetManager:
    protected = ",".join(str(net) for net in trace.protected.networks)
    return FleetManager(protected, size=3, workdir=str(tmp_path),
                        fail_policy=fail_policy,
                        order=14, rotation_interval=2.5)


def _router(specs, trace, fail_policy: FailPolicy) -> FleetRouter:
    return FleetRouter(
        specs, protected=trace.protected, fail_policy=fail_policy,
        retry=RetryPolicy(max_attempts=2, base_delay=0.05,
                          max_delay=0.5, deadline=5.0),
        failure_threshold=3, reset_timeout=1.0,
        connect_timeout=10.0, request_timeout=10.0)


@pytest.mark.parametrize("policy", ["fail_closed", "fail_open"])
def test_node_kill_mid_replay_degrades_consistently(
        failover_trace, tmp_path, capsys, policy):
    packets = failover_trace.packets.sorted_by_time()
    frames = _frames(packets)
    kill_frame = len(frames) // 2
    fail_policy = FailPolicy(policy)

    with _fleet(failover_trace, tmp_path, policy) as manager:
        router = _router(manager.specs(), failover_trace, fail_policy)
        with router:
            info = router.fleet_config()
            kill_name = router.ring.nodes[1]
            began = time.perf_counter()
            masks = router.filter_batches(frames[:kill_frame])
            manager.kill(kill_name)
            masks += router.filter_batches(frames[kill_frame:])
            elapsed = time.perf_counter() - began
            owner_names = np.asarray(router.owner_names(packets))

    verdicts = np.concatenate(masks)
    assert len(verdicts) == len(packets), "replay did not complete"
    assert elapsed < COMPLETION_BUDGET, (
        f"replay took {elapsed:.1f}s — a client hang, not failover")

    reference = _offline_reference(info, packets)
    diverged = np.flatnonzero(verdicts != reference)
    # Confinement: every diverged verdict sits on the dead node's share.
    foreign = diverged[owner_names[diverged] != kill_name]
    assert foreign.size == 0, (
        f"{foreign.size} diverged verdicts belong to surviving nodes")
    # Consistency: every diverged verdict is the fail policy's answer.
    policy_ref = policy_verdicts(packets, failover_trace.protected,
                                 fail_policy)
    inconsistent = diverged[verdicts[diverged] != policy_ref[diverged]]
    assert inconsistent.size == 0, (
        f"{inconsistent.size} diverged verdicts break the fail policy")

    with capsys.disabled():
        print(f"\n[fleet failover / {policy}] "
              f"{len(packets)} packets in {elapsed:.2f}s "
              f"({len(packets) / elapsed:,.0f} pps with a mid-replay kill)")
        owned = int((owner_names == kill_name).sum())
        print(f"  killed {kill_name} at frame {kill_frame}/{len(frames)}; "
              f"it owned {owned} packets, {diverged.size} verdicts "
              f"diverged — all confined and policy-consistent")


def test_warm_handoff_is_invisible_in_verdicts(
        failover_trace, tmp_path, capsys):
    packets = failover_trace.packets.sorted_by_time()
    frames = _frames(packets)
    half = len(frames) // 2

    with _fleet(failover_trace, tmp_path, "fail_closed") as manager:
        router = _router(manager.specs(), failover_trace,
                         FailPolicy.FAIL_CLOSED)
        with router:
            info = router.fleet_config()
            victim = router.ring.nodes[0]
            masks = router.filter_batches(frames[:half])
            began = time.perf_counter()
            new_spec = manager.warm_restart(victim)
            handoff = time.perf_counter() - began
            router.update_node(new_spec)
            masks += router.filter_batches(frames[half:])

    verdicts = np.concatenate(masks)
    reference = _offline_reference(info, packets)
    np.testing.assert_array_equal(
        verdicts, reference,
        err_msg="warm restart leaked state: fleet diverged from offline")

    with capsys.disabled():
        print(f"\n[warm handoff] snapshot->stop->restore of {victim} took "
              f"{handoff:.2f}s; {len(verdicts)} verdicts byte-identical "
              "to the uninterrupted offline replay")
