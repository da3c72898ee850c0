"""Section 2's argument, measured: bandwidth throttling vs the bitmap filter.

Three scenarios against the same client network, each filter evaluated on
(a) how much attack traffic it removes and (b) how much legitimate traffic
it damages:

1. **Reflection flood** — a spoofed UDP flood *from* port 53 (DNS
   amplification style), rate-limited on the source-port aggregate.
   Throttling triggers, but every legitimate DNS reply shares that
   aggregate and gets rate-limited with the attack ("only rate-limiting an
   aggregate at the edge may completely shutdown all connections depending
   on the aggregate").
2. **Randomized scan** — the Fig. 5 attack with random destination ports.
   No single aggregate carries enough rate to trip the trigger ("the
   aggregate is difficult to identify").
3. **Slow attack** — the same scan at a rate below the trigger ("an
   attacker may not send a large volume of traffic ... the throttling
   mechanism would not be activated").

The bitmap filter handles all three identically, because it keys on traffic
*symmetry*, not volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.report import render_table
from repro.attacks.ddos import udp_flood
from repro.attacks.scanner import RandomScanAttack, ScanConfig
from repro.baselines.throttle import AggregateRateLimiter
from repro.core.filter_api import build_filter
from repro.experiments.config import SMALL, ExperimentScale
from repro.experiments.fig2 import generate_trace
from repro.net.protocols import PORT_DNS
from repro.sim.metrics import score_run
from repro.traffic.trace import Trace


@dataclass
class ScenarioOutcome:
    scenario: str
    defense: str
    attack_filter_rate: float
    legit_damage_rate: float   # FP on label-0 incoming packets


@dataclass
class ThrottleComparisonResult:
    outcomes: List[ScenarioOutcome]

    def get(self, scenario: str, defense: str) -> ScenarioOutcome:
        for outcome in self.outcomes:
            if outcome.scenario == scenario and outcome.defense == defense:
                return outcome
        raise KeyError((scenario, defense))

    def report(self) -> str:
        rows = [
            [o.scenario, o.defense, f"{o.attack_filter_rate * 100:.1f}%",
             f"{o.legit_damage_rate * 100:.2f}%"]
            for o in self.outcomes
        ]
        return render_table(
            ["scenario", "defense", "attack removed", "legit traffic damaged"],
            rows,
            title="Section 2 — aggregate throttling vs the bitmap filter:",
        )


def _evaluate(scale: ExperimentScale, trace: Trace, attack, scenario: str,
              outcomes: List[ScenarioOutcome], aggregate_key: str = "dport") -> None:
    mixed = trace.merged_with(Trace(attack, trace.protected,
                                    {"duration": trace.duration}))
    packets = mixed.packets
    incoming = packets.directions(trace.protected) == 1

    bitmap = build_filter(scale.filter_config(), trace.protected)
    bitmap_verdicts = bitmap.process_batch(packets)
    confusion, _ = score_run(packets, bitmap_verdicts, incoming, mixed.duration)
    outcomes.append(ScenarioOutcome(
        scenario=scenario, defense="bitmap filter",
        attack_filter_rate=confusion.attack_filter_rate,
        legit_damage_rate=confusion.false_positive_rate,
    ))

    # Trigger: well above any single aggregate's legitimate rate.
    throttle = AggregateRateLimiter(
        trace.protected,
        trigger_pps=scale.normal_pps * 0.5,
        limit_pps=scale.normal_pps * 0.1,
        key=aggregate_key,
    )
    throttle_verdicts = throttle.process_batch(packets)
    confusion, _ = score_run(packets, throttle_verdicts, incoming, mixed.duration)
    outcomes.append(ScenarioOutcome(
        scenario=scenario, defense="aggregate throttling",
        attack_filter_rate=confusion.attack_filter_rate,
        legit_damage_rate=confusion.false_positive_rate,
    ))


def run_throttle_comparison(scale: ExperimentScale = SMALL) -> ThrottleComparisonResult:
    trace = generate_trace(scale)
    victim = trace.protected.networks[0].host(25)
    outcomes: List[ScenarioOutcome] = []

    # 1. Reflection flood: spoofed packets *from* port 53 — the aggregate
    # "UDP sport 53" is clean but contains all legitimate DNS replies too.
    flood = udp_flood(
        victim, rate_pps=scale.attack_pps, start=scale.attack_start,
        duration=scale.attack_duration, seed=scale.seed ^ 0x71,
    )
    flood.data["sport"][:] = PORT_DNS
    _evaluate(scale, trace, flood, "reflection flood", outcomes,
              aggregate_key="sport")

    # 2. Randomized scan: the Fig. 5 attack (random dports).
    scan = RandomScanAttack(
        ScanConfig(rate_pps=scale.attack_pps, start=scale.attack_start,
                   duration=scale.attack_duration, seed=scale.seed ^ 0x72),
        trace.protected,
    ).generate()
    _evaluate(scale, trace, scan, "randomized scan", outcomes)

    # 3. Slow attack: the same scan at 20% of the trigger rate.
    slow = RandomScanAttack(
        ScanConfig(rate_pps=scale.normal_pps * 0.1,
                   start=scale.attack_start,
                   duration=scale.attack_duration, seed=scale.seed ^ 0x73),
        trace.protected,
    ).generate()
    _evaluate(scale, trace, slow, "slow attack", outcomes)

    return ThrottleComparisonResult(outcomes=outcomes)


def run(scale=SMALL):
    """Uniform experiment entry point (see repro.experiments.registry)."""
    return run_throttle_comparison(scale)
