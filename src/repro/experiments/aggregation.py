"""Aggregated vs per-edge filter placement — the Figure 1 deployment choice.

"The bitmap filter can be installed on an edge router directly connected to
a client network or a core router, which is an aggregate of two or more
client networks."  This experiment builds both deployments over the same
two-network topology and traffic and compares defense quality, false
positives, utilization, and memory:

- **per-edge**: one {4 x n}-bitmap per client network, at its edge router;
- **aggregated**: a single {4 x n}-bitmap at the shared core router;
- **aggregated+1**: a single {4 x (n+1)}-bitmap — the Eq. (5) answer to the
  doubled connection load (same total memory as the two edge filters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.report import render_table
from repro.attacks.scanner import RandomScanAttack, ScanConfig
from repro.experiments.config import SMALL, ExperimentScale
from repro.net.address import AddressSpace
from repro.sim.deployment import FilterDeployment, union_address_space
from repro.sim.metrics import score_run
from repro.sim.topology import IspTopology
from repro.traffic.generator import ClientNetworkWorkload, WorkloadConfig
from repro.traffic.trace import Trace


@dataclass
class DeploymentOutcome:
    label: str
    attack_filter_rate: float
    false_positive_rate: float
    utilizations: List[float]
    memory_bytes: int


@dataclass
class AggregationResult:
    outcomes: List[DeploymentOutcome]

    def by_label(self, label: str) -> DeploymentOutcome:
        for outcome in self.outcomes:
            if outcome.label == label:
                return outcome
        raise KeyError(label)

    def report(self) -> str:
        rows = [
            [o.label, f"{o.attack_filter_rate * 100:.3f}%",
             f"{o.false_positive_rate * 100:.2f}%",
             "/".join(f"{u:.3f}" for u in o.utilizations),
             f"{o.memory_bytes // 1024} KiB"]
            for o in self.outcomes
        ]
        return render_table(
            ["deployment", "attack filtered", "FP rate", "filter U", "memory"],
            rows,
            title="Figure 1 deployment comparison — per-edge vs aggregated core:",
        )


def _build_topology(space_a: AddressSpace, space_b: AddressSpace) -> IspTopology:
    topo = IspTopology()
    topo.add_core_router("core")
    topo.add_edge_router("edgeA")
    topo.add_edge_router("edgeB")
    topo.add_peer("internet")
    topo.connect("internet", "core")
    topo.connect("core", "edgeA")
    topo.connect("core", "edgeB")
    topo.add_client_network("netA", "edgeA", space_a)
    topo.add_client_network("netB", "edgeB", space_b)
    return topo


def run_aggregation(scale: ExperimentScale = SMALL) -> AggregationResult:
    # Two independent client networks with their own workloads.
    half_pps = scale.normal_pps / 2.0
    workload_a = ClientNetworkWorkload(WorkloadConfig(
        first_network="172.16.0.0", num_networks=3, duration=scale.duration,
        target_pps=half_pps, seed=scale.seed,
    ))
    workload_b = ClientNetworkWorkload(WorkloadConfig(
        first_network="172.20.0.0", num_networks=3, duration=scale.duration,
        target_pps=half_pps, seed=scale.seed + 1,
    ))
    trace_a = workload_a.generate()
    trace_b = workload_b.generate()
    combined_space = union_address_space([trace_a.protected, trace_b.protected])

    attack = RandomScanAttack(
        ScanConfig(rate_pps=scale.attack_pps, start=scale.attack_start,
                   duration=scale.attack_duration, seed=scale.seed ^ 0xA99),
        combined_space,
    ).generate()
    combined = Trace(trace_a.packets, combined_space,
                     {"duration": scale.duration}).merged_with(
        Trace(trace_b.packets, combined_space, {"duration": scale.duration}),
        Trace(attack, combined_space, {"duration": scale.duration}),
    )
    packets = combined.packets
    incoming = packets.directions(combined_space) == 1

    topo = _build_topology(trace_a.protected, trace_b.protected)
    outcomes: List[DeploymentOutcome] = []

    def evaluate(label: str, deployment: FilterDeployment) -> None:
        verdicts = deployment.process_batch(packets)
        confusion, _series = score_run(packets, verdicts, incoming,
                                       combined.duration)
        outcomes.append(DeploymentOutcome(
            label=label,
            attack_filter_rate=confusion.attack_filter_rate,
            false_positive_rate=confusion.false_positive_rate,
            utilizations=[p.filter.peak_utilization for p in deployment.placements],
            memory_bytes=deployment.total_memory_bytes(),
        ))

    per_edge = FilterDeployment(topo)
    per_edge.install("edgeA", ["netA"], scale.bitmap_config())
    per_edge.install("edgeB", ["netB"], scale.bitmap_config())
    evaluate("per-edge (2 filters, n)", per_edge)

    aggregated = FilterDeployment(topo)
    aggregated.install("core", ["netA", "netB"], scale.bitmap_config())
    evaluate("aggregated core (1 filter, n)", aggregated)

    bigger = FilterDeployment(topo)
    bigger.install("core", ["netA", "netB"],
                   scale.bitmap_config(order=scale.bitmap_order + 1))
    evaluate("aggregated core (1 filter, n+1)", bigger)

    return AggregationResult(outcomes=outcomes)


def run(scale=SMALL):
    """Uniform experiment entry point (see repro.experiments.registry)."""
    return run_aggregation(scale)
