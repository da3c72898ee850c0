"""Offline scenario execution: per-site filters, roaming handoffs, tables.

:func:`build_scenario` materialises a :class:`~repro.scenarios.spec.ScenarioSpec`
into deterministic per-site traces (normal mix + campaign waves, time-sorted)
and :func:`run_offline` pushes each through its own filter stack via
:func:`~repro.core.filter_api.build_filter` /
:func:`~repro.sim.pipeline.run_filter_on_trace`.  Roaming clients run their
head packets at the home site, snapshot through a
:class:`~repro.fleet.store.SnapshotStore`, restore at the visit site, and run
the tail — the exact protocol the online fleet replays, which is what makes
the offline/online differential test meaningful.
"""

from __future__ import annotations

import io
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.report import render_table
from repro.core.filter_api import build_filter
from repro.core.parameters import BitmapParameters, ParameterAdvisor
from repro.core.persistence import save_filter
from repro.fleet.store import SnapshotStore
from repro.net.address import AddressSpace, format_ipv4, parse_ipv4
from repro.net.packet import PacketArray
from repro.scenarios.campaigns import campaign_traffic
from repro.scenarios.spec import RoamingClient, ScenarioSpec
from repro.scenarios.topologies import (
    MultiSiteTopology,
    SiteBinding,
    build_topology,
)
from repro.sim.metrics import ConfusionCounts, score_run
from repro.sim.pipeline import run_filter_on_trace
from repro.traffic.trace import Trace

__all__ = [
    "RoamOutcome",
    "ScenarioOutcome",
    "ScenarioRun",
    "SiteOutcome",
    "SiteRun",
    "RoamerRun",
    "build_scenario",
    "observed_connections",
    "run_offline",
]

_SITE_SEED_STRIDE = 1_000_003   # prime stride: distinct per-site seeds
_ROAMER_SEED_BASE = 777_767


def _site_seed(spec_seed: int, index: int) -> int:
    return (spec_seed * _SITE_SEED_STRIDE + index) & 0x7FFFFFFF


@dataclass(frozen=True)
class SiteRun:
    """One site's materialised input: binding + labelled trace."""

    binding: SiteBinding
    trace: Trace


@dataclass(frozen=True)
class RoamerRun:
    """A roaming client's own space, trace, and the packet-index split.

    ``split_index`` is the first packet at or after the roam instant; the
    head runs at ``home``, the tail at ``visit`` after the snapshot handoff.
    Online framing must honor the same boundary, so it is part of the run,
    not a runner-internal detail.
    """

    roamer: RoamingClient
    space: AddressSpace
    trace: Trace
    split_index: int


@dataclass(frozen=True)
class ScenarioRun:
    """A fully materialised scenario, ready for offline or online replay."""

    spec: ScenarioSpec
    msite: MultiSiteTopology
    sites: Tuple[SiteRun, ...]
    roamers: Tuple[RoamerRun, ...]


def _normal_trace(spec: ScenarioSpec, binding: SiteBinding,
                  seed: int) -> Trace:
    traffic = spec.traffic
    first = format_ipv4(binding.space.networks[0].first)
    if traffic.mix == "campus":
        from repro.traffic.generator import ClientNetworkWorkload, WorkloadConfig

        config = WorkloadConfig(
            first_network=first,
            num_networks=traffic.networks_per_site,
            hosts_per_network=traffic.hosts_per_network,
            duration=spec.duration,
            target_pps=traffic.pps,
            seed=seed,
        )
        return ClientNetworkWorkload(config).generate()
    from repro.traffic.modern import ModernWorkload, ModernWorkloadConfig

    config = ModernWorkloadConfig(
        mix=traffic.mix,
        first_network=first,
        num_networks=traffic.networks_per_site,
        hosts_per_network=traffic.hosts_per_network,
        duration=spec.duration,
        target_pps=traffic.pps,
        nat_pool=traffic.nat_pool,
        ipv6=traffic.ipv6,
        asymmetry=traffic.asymmetry,
        seed=seed,
    )
    return ModernWorkload(config).generate()


def _roamer_run(spec: ScenarioSpec, roamer: RoamingClient,
                index: int) -> RoamerRun:
    """The roamer's own /24, its traffic, and the roam-instant split.

    The roamer carries normal campus-style traffic for the whole duration
    plus a scan attack against its block, so the handoff is load-bearing:
    flows marked before the move must keep passing at the visit site while
    the scan keeps getting dropped.
    """
    from repro.attacks.scanner import RandomScanAttack, ScanConfig
    from repro.traffic.generator import ClientNetworkWorkload, WorkloadConfig

    base = parse_ipv4("172.16.0.0")
    block = spec.sites * spec.traffic.networks_per_site + index
    space = AddressSpace.class_c_block(format_ipv4(base + (block << 8)), 1)
    seed = _site_seed(spec.seed, _ROAMER_SEED_BASE + index)
    normal = ClientNetworkWorkload(WorkloadConfig(
        first_network=format_ipv4(space.networks[0].first),
        num_networks=1,
        hosts_per_network=8,
        duration=spec.duration,
        target_pps=roamer.pps,
        seed=seed,
    )).generate()
    scan = RandomScanAttack(
        ScanConfig(rate_pps=5.0 * roamer.pps, start=0.0,
                   duration=spec.duration, seed=seed ^ 0x5CA7),
        space).generate()
    packets = PacketArray.concatenate([normal.packets, scan]).sorted_by_time()
    trace = Trace(packets, space, {
        "kind": "roamer",
        "name": roamer.name,
        "home": roamer.home,
        "visit": roamer.visit,
        "duration": spec.duration,
        "seed": seed,
    })
    roam_time = spec.duration * roamer.roam_fraction
    split = int(np.searchsorted(packets.ts, roam_time, side="left"))
    return RoamerRun(roamer=roamer, space=space, trace=trace,
                     split_index=split)


def build_scenario(spec: ScenarioSpec) -> ScenarioRun:
    """Materialise the spec: topology, per-site traces, roamer traces.

    Deterministic in ``spec`` alone — every generator seed derives
    arithmetically from ``spec.seed``, so the same spec always yields
    digest-identical traces.
    """
    msite = build_topology(spec.topology, spec.sites,
                           networks_per_site=spec.traffic.networks_per_site)
    attacks = campaign_traffic(spec, msite)
    sites: List[SiteRun] = []
    for index, binding in enumerate(msite.sites):
        normal = _normal_trace(spec, binding, _site_seed(spec.seed, index))
        attack = attacks[binding.name]
        packets = normal.packets
        if len(attack):
            packets = PacketArray.concatenate(
                [packets, attack]).sorted_by_time()
        metadata = dict(normal.metadata)
        metadata.update(
            scenario=spec.name, site=binding.name,
            placement=binding.placement, duration=spec.duration,
            attack_packets=int(len(attack)))
        sites.append(SiteRun(binding=binding,
                             trace=Trace(packets, binding.space, metadata)))
    roamers = tuple(_roamer_run(spec, roamer, index)
                    for index, roamer in enumerate(spec.roamers))
    return ScenarioRun(spec=spec, msite=msite, sites=tuple(sites),
                       roamers=roamers)


def observed_connections(trace: Trace, expiry_timer: float) -> int:
    """Max outgoing 4-tuple count over any Te-aligned window (the paper's c).

    This is the quantity :class:`~repro.core.parameters.ParameterAdvisor`
    wants as ``expected_connections``: the busiest expiry window's number
    of distinct outgoing (src, sport, dst, dport) tuples.
    """
    packets = trace.packets
    outgoing = trace.packets.directions(trace.protected) == 0
    if not outgoing.any():
        return 0
    ts = packets.ts[outgoing]
    window = (ts / expiry_timer).astype(np.uint64)
    k1 = (packets.src[outgoing].astype(np.uint64) << np.uint64(16)) \
        | packets.sport[outgoing].astype(np.uint64)
    k2 = (packets.dst[outgoing].astype(np.uint64) << np.uint64(16)) \
        | packets.dport[outgoing].astype(np.uint64)
    keys = np.stack([window, k1, k2], axis=1)
    unique = np.unique(keys, axis=0)
    _, per_window = np.unique(unique[:, 0], return_counts=True)
    return int(per_window.max())


@dataclass
class SiteOutcome:
    """One site's scored run (verdicts kept for online verification)."""

    name: str
    placement: str
    packets: int
    attack_packets: int
    confusion: ConfusionCounts
    drop_rate: float
    observed_connections: int
    advised: Optional[BitmapParameters]
    verdicts: np.ndarray
    incoming_mask: np.ndarray


@dataclass
class RoamOutcome:
    """A roaming client's scored two-site run and its handoff evidence."""

    name: str
    home: str
    visit: str
    split_index: int
    snapshot_sequence: int
    snapshot_sha256: str
    confusion: ConfusionCounts
    drop_rate: float
    verdicts: np.ndarray
    incoming_mask: np.ndarray


@dataclass
class ScenarioOutcome:
    """Everything an offline scenario run produced."""

    spec: ScenarioSpec
    sites: List[SiteOutcome]
    roamers: List[RoamOutcome]
    aggregate: ConfusionCounts

    def report(self) -> str:
        """Per-site + aggregate penetration/drop tables, advisor alongside."""
        rows = []
        for site in self.sites:
            advised = (site.advised.describe().split(", predicted")[0]
                       if site.advised else "-")
            rows.append([
                site.name, site.placement, f"{site.packets}",
                f"{site.attack_packets}",
                f"{site.confusion.penetration_rate:.4f}",
                f"{site.drop_rate:.4f}",
                f"{site.confusion.false_positive_rate:.4f}",
                f"{site.observed_connections}", advised,
            ])
        agg = self.aggregate
        rows.append([
            "TOTAL", "-",
            f"{sum(s.packets for s in self.sites)}",
            f"{sum(s.attack_packets for s in self.sites)}",
            f"{agg.penetration_rate:.4f}",
            "-",
            f"{agg.false_positive_rate:.4f}", "-", "-",
        ])
        table = render_table(
            ["site", "router", "pkts", "attack", "p(pen)", "drop",
             "fp", "c_obs", "advised"],
            rows,
            title=f"scenario {self.spec.name} "
                  f"({self.spec.topology}, {self.spec.traffic.mix})",
        )
        lines = [table]
        for roam in self.roamers:
            lines.append(
                f"roamer {roam.name}: {roam.home} -> {roam.visit} at packet "
                f"{roam.split_index} (snapshot seq {roam.snapshot_sequence}, "
                f"sha {roam.snapshot_sha256[:12]}), "
                f"p(pen)={roam.confusion.penetration_rate:.4f}, "
                f"drop={roam.drop_rate:.4f}")
        return "\n".join(lines)


def _merge_counts(counts: List[ConfusionCounts]) -> ConfusionCounts:
    return ConfusionCounts(
        attack_dropped=sum(c.attack_dropped for c in counts),
        attack_passed=sum(c.attack_passed for c in counts),
        normal_dropped=sum(c.normal_dropped for c in counts),
        normal_passed=sum(c.normal_passed for c in counts),
        background_dropped=sum(c.background_dropped for c in counts),
        background_passed=sum(c.background_passed for c in counts),
    )


def _run_roamer(run: RoamerRun, spec: ScenarioSpec,
                store: SnapshotStore) -> RoamOutcome:
    """Head at home, snapshot through the store, restored tail at visit."""
    config = spec.filter.filter_config()
    packets = run.trace.packets
    split = run.split_index
    home_filter = build_filter(config=config, protected=run.space)
    head = Trace(packets[:split], run.space, {"duration": spec.duration})
    head_result = run_filter_on_trace(home_filter, head)

    buffer = io.BytesIO()
    save_filter(home_filter, buffer)
    ref = store.put(run.roamer.name, buffer.getvalue())

    visit_filter = build_filter(snapshot=ref.path)
    tail = Trace(packets[split:], run.space, {"duration": spec.duration})
    tail_result = run_filter_on_trace(visit_filter, tail)

    verdicts = np.concatenate([head_result.verdicts, tail_result.verdicts])
    incoming = np.concatenate(
        [head_result.incoming_mask, tail_result.incoming_mask])
    confusion, _ = score_run(packets, verdicts, incoming, spec.duration)
    dropped = int((~verdicts[incoming]).sum())
    drop_rate = dropped / int(incoming.sum()) if incoming.any() else 0.0
    return RoamOutcome(
        name=run.roamer.name, home=run.roamer.home, visit=run.roamer.visit,
        split_index=split, snapshot_sequence=ref.sequence,
        snapshot_sha256=ref.sha256, confusion=confusion,
        drop_rate=drop_rate, verdicts=verdicts, incoming_mask=incoming)


def run_offline(run: ScenarioRun, *, store: Optional[SnapshotStore] = None,
                workdir: Optional[Path] = None) -> ScenarioOutcome:
    """Run every site (and roamer handoff) through offline filter stacks.

    ``store`` (or one created under ``workdir``/a temp dir) carries the
    roaming snapshots; pass the same store to the online runner to replay
    the identical handoff.
    """
    spec = run.spec
    if store is None and run.roamers:
        root = Path(workdir) if workdir is not None else Path(
            tempfile.mkdtemp(prefix="repro-scenario-"))
        store = SnapshotStore(root / "store")
    advisor = ParameterAdvisor(
        expiry_timer=spec.filter.expiry_timer,
        rotation_interval=spec.filter.rotation_interval)

    sites: List[SiteOutcome] = []
    for site_run in run.sites:
        filt = build_filter(config=spec.filter.filter_config(),
                            protected=site_run.binding.space)
        result = run_filter_on_trace(filt, site_run.trace)
        c_obs = observed_connections(site_run.trace,
                                     spec.filter.expiry_timer)
        advised = advisor.recommend(max(c_obs, 1)) if c_obs else None
        sites.append(SiteOutcome(
            name=site_run.binding.name,
            placement=site_run.binding.placement,
            packets=len(site_run.trace.packets),
            attack_packets=int(site_run.trace.metadata.get(
                "attack_packets", 0)),
            confusion=result.confusion,
            drop_rate=result.incoming_drop_rate,
            observed_connections=c_obs,
            advised=advised,
            verdicts=result.verdicts,
            incoming_mask=result.incoming_mask))

    roamers = [_run_roamer(roamer_run, spec, store)
               for roamer_run in run.roamers]
    aggregate = _merge_counts([s.confusion for s in sites]
                              + [r.confusion for r in roamers])
    return ScenarioOutcome(spec=spec, sites=sites, roamers=roamers,
                           aggregate=aggregate)
