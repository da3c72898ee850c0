"""Offline scenario runner: determinism, outcome invariants, roaming handoff."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.filter_api import build_filter
from repro.scenarios.runner import (
    build_scenario,
    observed_connections,
    run_offline,
)
from repro.scenarios.spec import (
    AttackWave,
    FilterGeometry,
    RoamingClient,
    ScenarioSpec,
    TrafficSpec,
)
from repro.sim.pipeline import run_filter_on_trace
from repro.traffic.trace import Trace

SPEC = ScenarioSpec(
    name="runner-test",
    topology="fat-tree",
    sites=2,
    duration=16.0,
    seed=5,
    traffic=TrafficSpec(mix="web-search", pps=60.0),
    filter=FilterGeometry(order=12, rotation_interval=2.0),
    waves=(AttackWave(kind="scan", rate_multiplier=5.0, site_stagger=2.0),),
    roamers=(RoamingClient(roam_fraction=0.5, pps=20.0),),
)


@pytest.fixture(scope="module")
def run():
    return build_scenario(SPEC)


@pytest.fixture(scope="module")
def outcome(run, tmp_path_factory):
    return run_offline(run, workdir=tmp_path_factory.mktemp("offline"))


def test_build_scenario_is_digest_deterministic(run):
    again = build_scenario(SPEC)
    for a, b in zip(run.sites, again.sites):
        assert a.trace.digest() == b.trace.digest()
    for a, b in zip(run.roamers, again.roamers):
        assert a.trace.digest() == b.trace.digest()
        assert a.split_index == b.split_index


def test_sites_carry_distinct_traffic(run):
    assert run.sites[0].trace.digest() != run.sites[1].trace.digest()


def test_traces_are_time_sorted_with_attack_metadata(run):
    for site in run.sites:
        assert np.all(np.diff(site.trace.packets.ts) >= 0)
        assert site.trace.metadata["attack_packets"] > 0
        assert site.trace.metadata["site"] == site.binding.name


def test_roamer_split_matches_roam_instant(run):
    (roamer,) = run.roamers
    ts = roamer.trace.packets.ts
    roam_time = SPEC.duration * 0.5
    split = roamer.split_index
    assert np.all(ts[:split] < roam_time)
    assert np.all(ts[split:] >= roam_time)
    assert 0 < split < len(ts)


def test_outcome_invariants(outcome):
    assert len(outcome.sites) == 2
    for site in outcome.sites:
        total = (site.confusion.attack_dropped + site.confusion.attack_passed)
        assert total == site.attack_packets
        assert 0.0 <= site.confusion.penetration_rate <= 1.0
        assert len(site.verdicts) == site.packets
        assert site.observed_connections > 0
        assert site.advised is not None
    agg = outcome.aggregate
    assert agg.attack_dropped + agg.attack_passed >= sum(
        s.attack_packets for s in outcome.sites)


def test_filter_actually_bites(outcome):
    """The scan wave must be mostly dropped while normal traffic passes."""
    for site in outcome.sites:
        assert site.confusion.attack_filter_rate > 0.5
        assert site.confusion.false_positive_rate < 0.5


def test_roamer_handoff_is_equivalent_to_one_filter(run, outcome, tmp_path):
    """The snapshot handoff is pure state transport: verdicts across the
    home->visit move must equal a single filter running straight through."""
    (roam,) = outcome.roamers
    assert roam.snapshot_sequence >= 1
    (roamer_run,) = run.roamers
    filt = build_filter(config=SPEC.filter.filter_config(),
                        protected=roamer_run.space)
    trace = Trace(roamer_run.trace.packets, roamer_run.space,
                  {"duration": SPEC.duration})
    straight = run_filter_on_trace(filt, trace)
    assert np.array_equal(roam.verdicts, straight.verdicts)
    assert np.array_equal(roam.incoming_mask, straight.incoming_mask)


def test_report_renders_every_site_and_roamer(outcome):
    text = outcome.report()
    assert "site0" in text and "site1" in text and "TOTAL" in text
    assert "roamer roamer0: site0 -> site1" in text
    assert "-bitmap" in text  # the advised-geometry column
    assert "p(pen)" in text


def test_observed_connections_counts_busiest_window():
    run = build_scenario(replace(SPEC, roamers=()))
    site = run.sites[0]
    c = observed_connections(site.trace, SPEC.filter.expiry_timer)
    assert c > 0
    # A window as long as the trace can only see more tuples, never fewer.
    assert observed_connections(site.trace, SPEC.duration * 2) >= c


def test_empty_trace_observes_zero_connections(run):
    from repro.net.packet import PacketArray

    site = run.sites[0]
    empty = Trace(PacketArray.empty(), site.trace.protected, {})
    assert observed_connections(empty, 8.0) == 0
