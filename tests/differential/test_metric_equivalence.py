"""Differential proof, part 3: scores, telemetry, and snapshots agree.

Verdict equality is necessary but not sufficient — the experiment layer
consumes *derived* artifacts: scored run results (drop rates, confusion
counts), telemetry counters, and on-disk snapshots.  Each must come out
identical whether the batch path or the scalar reference produced it.
``stack`` arguments sweep both filter stacks, each on the whole trace and
on one fleet node's slice of it (see conftest).
"""

import io

import numpy as np
import pytest

from repro.core import filter_api
from repro.core.filter_api import build_filter
from repro.core.persistence import load_filter, save_filter
from repro.sim.pipeline import run_filter_on_trace
from repro.telemetry import MetricsRegistry, use_registry
from tests.differential.conftest import (
    CONFIG,
    VERIFY_SPEC,
    is_verified,
    make_filter,
    make_reference,
    scalar_batch,
)

pytestmark = pytest.mark.differential


def _counter_total(registry: MetricsRegistry, name: str) -> int:
    """Sum a counter over its label sets (the scalar and batch paths
    publish under different ``path`` labels)."""
    return sum(metric.value for metric in registry.metrics()
               if metric.name == name)


def _assert_same_scores(got, expected) -> None:
    assert np.array_equal(got.verdicts, expected.verdicts)
    assert got.confusion == expected.confusion
    assert got.filter_stats == expected.filter_stats
    # The scored per-second series (the Fig. 5 drop-rate curves) is derived
    # purely from the verdicts, so field-for-field equality must follow.
    for fieldname in ("seconds", "normal_incoming", "attack_incoming",
                      "passed_incoming", "dropped_incoming"):
        assert np.array_equal(getattr(got.series, fieldname),
                              getattr(expected.series, fieldname)), fieldname


def test_scored_pipeline_results_agree(trace, stack):
    expected = run_filter_on_trace(make_reference(trace.protected, stack),
                                   trace)
    got = run_filter_on_trace(make_filter(trace.protected, stack), trace)
    _assert_same_scores(got, expected)


def test_ambient_stack_matches_scalar(trace, stack):
    """The ambient stack installed via use_layers() (the CLI's --filter
    path) scores the same as the scalar reference of that stack."""
    expected = run_filter_on_trace(make_reference(trace.protected, stack),
                                   trace)
    layers = (VERIFY_SPEC,) if is_verified(stack) else ()
    with filter_api.use_layers(layers):
        ambient_filter = build_filter(CONFIG, trace.protected)
    got = run_filter_on_trace(ambient_filter, trace)
    _assert_same_scores(got, expected)


def test_unified_telemetry_counters_agree(trace, stack):
    """The batch path credits its counters under ``path="exact_batch"``,
    the scalar path under ``path="scalar"``; the totals must match."""
    with use_registry(MetricsRegistry()) as scalar_registry:
        scalar_batch(make_filter(trace.protected, stack), trace.packets)
    with use_registry(MetricsRegistry()) as batch_registry:
        make_filter(trace.protected, stack).process_batch(trace.packets)

    assert _counter_total(scalar_registry, "repro_filter_marks_total") > 0
    for name in ("repro_filter_marks_total", "repro_filter_admits_total",
                 "repro_filter_drops_total", "repro_filter_rotations_total",
                 "repro_filter_warmup_admits_total",
                 "repro_hybrid_confirmed_total", "repro_hybrid_denied_total"):
        assert (_counter_total(batch_registry, name)
                == _counter_total(scalar_registry, name)), name


def test_snapshot_agreement(trace, stack):
    """save_filter() after a batch run captures byte-identical state: the
    snapshot loads into a filter indistinguishable from one that judged
    the whole run packet by packet."""
    reference = make_filter(trace.protected, stack)
    scalar_batch(reference, trace.packets)
    subject = make_filter(trace.protected, stack)
    subject.process_batch(trace.packets)
    reference_snap, subject_snap = io.BytesIO(), io.BytesIO()
    save_filter(reference, reference_snap)
    save_filter(subject, subject_snap)
    assert subject_snap.getvalue() == reference_snap.getvalue()

    reference_snap.seek(0)
    subject_snap.seek(0)
    restored_reference = load_filter(reference_snap)
    restored_subject = load_filter(subject_snap)
    # Both restored filters judge fresh traffic identically.
    tail = trace.packets[-500:]
    assert np.array_equal(restored_subject.process_batch(tail),
                          scalar_batch(restored_reference, tail))
