"""Differential proof, part 2: equivalence holds *under fault injection*.

The chaos harness drives the vectorised batch path between fault events
(fail/recover, rotation stalls, bit flips, crash/restore, trace-level
stream perturbations).  Each run must produce the verdict vector and final
state of the scalar reference — the same fault schedule with every packet
judged by ``process()`` — under both fail policies.  ``stack`` arguments
sweep both filter stacks, each on the whole trace and on one fleet node's
slice of it (see conftest).
"""

import numpy as np
import pytest

from repro.core.resilience import FailPolicy
from repro.faults.harness import run_with_faults
from repro.faults.injectors import (
    BitFlips,
    CrashRestart,
    Outage,
    PacketDuplication,
    PacketReorder,
    RotationStall,
)
from tests.differential.conftest import (
    assert_same_filter_state,
    make_filter,
    scalar_batch,
    scalar_replay_with_faults,
)

pytestmark = [pytest.mark.differential, pytest.mark.faults]


def _assert_equivalent_runs(trace, stack, injectors, fail_policy=None):
    """Replay the same fault schedule through the batch harness and the
    scalar reference; require identical verdicts and final filter state.

    ``injectors`` is a factory: injectors carry per-run state (flip
    counts, a crash's snapshot), so each run gets its own."""
    kwargs = {} if fail_policy is None else {"fail_policy": fail_policy}
    expected, reference = scalar_replay_with_faults(
        make_filter(trace.protected, stack, **kwargs), trace, injectors())
    batch_run = run_with_faults(make_filter(trace.protected, stack, **kwargs),
                                trace, injectors())
    assert np.array_equal(batch_run.run.verdicts, expected)
    assert_same_filter_state(reference, batch_run.filter)
    return batch_run


@pytest.mark.parametrize("policy", [FailPolicy.FAIL_CLOSED,
                                    FailPolicy.FAIL_OPEN])
def test_outage_under_both_fail_policies(trace, stack, policy):
    batch_run = _assert_equivalent_runs(
        trace, stack, lambda: [Outage(at=9.0, duration=4.0)],
        fail_policy=policy)
    # Sanity that the outage actually bit: degraded verdicts are uniform.
    expected = 1.0 if policy is FailPolicy.FAIL_OPEN else 0.0
    assert batch_run.incoming_pass_fraction(9.0, 13.0) == expected


@pytest.mark.parametrize("catch_up", [True, False],
                         ids=["catch-up", "no-catch-up"])
def test_rotation_stall(trace, stack, catch_up):
    _assert_equivalent_runs(
        trace, stack,
        lambda: [RotationStall(at=6.0, duration=7.0, catch_up=catch_up)])


def test_bit_flips(trace, stack):
    flips = []

    def injectors():
        flips.append(BitFlips(at=10.0, fraction=0.01, seed=0xFEED))
        return flips[-1:]

    _assert_equivalent_runs(trace, stack, injectors)
    assert flips[0].flipped == flips[1].flipped > 0


@pytest.mark.parametrize("snapshot_age", [None, 6.0],
                         ids=["cold-restart", "warm-restart"])
def test_crash_restart(trace, stack, snapshot_age):
    """A crash swaps in a cold or snapshot-restored replacement; both
    timelines must converge on identical state."""
    batch_run = _assert_equivalent_runs(
        trace, stack,
        lambda: [CrashRestart(crash_at=12.0, downtime=3.0,
                              snapshot_age=snapshot_age)])
    assert batch_run.filters_swapped == 1


def test_trace_level_faults(trace, stack):
    """Stream perturbations (reordering, duplication) transform the trace
    before replay; both paths must see — and judge — the same perturbed
    stream."""
    _assert_equivalent_runs(
        trace, stack,
        lambda: [PacketReorder(fraction=0.05, max_delay=0.4, seed=3),
                 PacketDuplication(fraction=0.02, delay=0.05, seed=5)])


def test_compound_schedule(trace, stack):
    """An outage, a stall, and corruption in one run — the kitchen sink."""
    _assert_equivalent_runs(
        trace, stack,
        lambda: [Outage(at=5.0, duration=2.0),
                 RotationStall(at=14.0, duration=4.0),
                 BitFlips(at=20.0, fraction=0.005, seed=21)],
        fail_policy=FailPolicy.FAIL_OPEN)


def test_manual_control_surface_sequence(trace, stack):
    """Driving fail/recover/stall/resume by hand (no harness) stays in
    lockstep, including recover()'s missed-rotation accounting that sizes
    the default warm-up grace."""
    packets = trace.packets
    reference = make_filter(trace.protected, stack)
    subject = make_filter(trace.protected, stack)
    cut1 = int(np.searchsorted(packets.ts, 7.0))
    cut2 = int(np.searchsorted(packets.ts, 13.0))

    def step(batch):
        assert np.array_equal(subject.process_batch(batch),
                              scalar_batch(reference, batch))

    step(packets[:cut1])
    for filt in (reference, subject):
        filt.fail()
    step(packets[cut1:cut2])
    assert subject.recover(13.0) == reference.recover(13.0) > 0
    assert subject.warmup_until == reference.warmup_until

    for filt in (reference, subject):
        filt.stall_rotations()
    assert subject.rotations_stalled
    step(packets[cut2:])
    assert (subject.resume_rotations(26.0)
            == reference.resume_rotations(26.0))
    assert_same_filter_state(reference, subject)
