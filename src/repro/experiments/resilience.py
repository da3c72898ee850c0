"""Chaos experiment: the Fig. 4/Fig. 5 headline metrics under injected faults.

Reruns the attacked headline trace (clean traffic + the Section 4.3
random-scan attack) through the bitmap filter while each fault fires —
rotation-timer stall, crash + checkpoint restore, cold restart, random bit
flips, packet reordering/duplication/gaps, and a filter outage under each
fail policy — and reports the attack-filter-rate and benign-drop-rate
deltas against the fault-free baseline.  The robustness claim being tested:
the filter degrades *gracefully* — a bounded fault moves the headline
metrics by a bounded amount, and the operator-visible policy choices
(fail-open vs fail-closed, warm-up grace) behave exactly as documented in
``docs/operations.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.report import render_table
from repro.core.filter_api import build_filter
from repro.core.resilience import FailPolicy
from repro.experiments.config import SMALL, ExperimentScale
from repro.experiments.fig2 import generate_trace
from repro.experiments.fig5 import build_attack_trace
from repro.faults.harness import FaultedRunResult, run_with_faults
from repro.faults.injectors import (
    BitFlips,
    CrashRestart,
    FaultInjector,
    Outage,
    PacketDuplication,
    PacketReorder,
    RotationStall,
    TraceGap,
)

#: Per-bit flip probability for the bit-corruption scenario (0.01%).
BIT_FLIP_FRACTION = 1e-4


@dataclass
class ScenarioOutcome:
    """Headline metrics for one fault scenario."""

    name: str
    attack_filter_rate: float
    benign_drop_rate: float           # false-positive rate on normal inbound
    delta_filter_rate: float          # vs fault-free baseline
    delta_benign_rate: float
    outage_pass_fraction: Optional[float] = None  # inbound pass rate in-window
    note: str = ""

    def row(self) -> List[object]:
        outage = ("-" if self.outage_pass_fraction is None
                  else f"{self.outage_pass_fraction * 100:.0f}%")
        return [
            self.name,
            f"{self.attack_filter_rate * 100:.3f}%",
            f"{self.benign_drop_rate * 100:.2f}%",
            f"{self.delta_filter_rate * 100:+.3f}pp",
            f"{self.delta_benign_rate * 100:+.2f}pp",
            outage,
            self.note,
        ]


@dataclass
class ResilienceResult:
    baseline: ScenarioOutcome
    scenarios: List[ScenarioOutcome]

    def outcome(self, name: str) -> ScenarioOutcome:
        for scenario in self.scenarios:
            if scenario.name == name:
                return scenario
        raise KeyError(f"no scenario named {name!r}; have "
                       f"{[s.name for s in self.scenarios]}")

    def report(self) -> str:
        rows = [self.baseline.row()] + [s.row() for s in self.scenarios]
        return render_table(
            ["scenario", "attack filtered", "benign dropped",
             "Δ filter", "Δ benign", "outage pass", "note"],
            rows,
            title=("Resilience under injected faults "
                   "(baseline = fault-free attacked headline run):"),
        )


def _outcome(
    name: str,
    result: FaultedRunResult,
    baseline_filter: float,
    baseline_benign: float,
    outage_window: Optional[Sequence[float]] = None,
    note: str = "",
) -> ScenarioOutcome:
    confusion = result.confusion
    outage_pass = None
    if outage_window is not None:
        outage_pass = result.incoming_pass_fraction(*outage_window)
    return ScenarioOutcome(
        name=name,
        attack_filter_rate=confusion.attack_filter_rate,
        benign_drop_rate=confusion.false_positive_rate,
        delta_filter_rate=confusion.attack_filter_rate - baseline_filter,
        delta_benign_rate=confusion.false_positive_rate - baseline_benign,
        outage_pass_fraction=outage_pass,
        note=note,
    )


def run_resilience(scale: ExperimentScale = SMALL) -> ResilienceResult:
    """Run every fault scenario against the attacked headline trace."""
    clean = generate_trace(scale)
    attacked = build_attack_trace(scale, clean)
    config = scale.filter_config()
    dt = scale.rotation_interval
    te = scale.expiry_timer

    def fresh(policy: FailPolicy = FailPolicy.FAIL_CLOSED):
        return build_filter(config, attacked.protected, fail_policy=policy)

    def run(injectors: Sequence[FaultInjector],
            policy: FailPolicy = FailPolicy.FAIL_CLOSED) -> FaultedRunResult:
        return run_with_faults(fresh(policy), attacked, injectors)

    # Fault-free baseline.
    base = run([])
    base_filter = base.confusion.attack_filter_rate
    base_benign = base.confusion.false_positive_rate
    baseline = ScenarioOutcome(
        name="baseline (no fault)",
        attack_filter_rate=base_filter,
        benign_drop_rate=base_benign,
        delta_filter_rate=0.0,
        delta_benign_rate=0.0,
        note="fault-free reference",
    )

    # Fault placement: the crash/gap land well before the attack so the
    # restart's warm-up grace closes before attack packets could ride it in;
    # the stall/flip/outage land mid-attack where they hurt the most.
    mid_attack = scale.attack_start + scale.attack_duration / 2.0
    crash_at = max(scale.attack_start - te - dt, 2 * dt)
    snapshot_age = dt

    scenarios: List[ScenarioOutcome] = []

    stall = RotationStall(at=mid_attack, duration=2 * dt, catch_up=True)
    scenarios.append(_outcome(
        "rotation stall 2Δt (catch-up)", run([stall]),
        base_filter, base_benign,
        note="missed rotations fire on resume",
    ))

    stall_naive = RotationStall(at=mid_attack, duration=2 * dt, catch_up=False)
    scenarios.append(_outcome(
        "rotation stall 2Δt (no catch-up)", run([stall_naive]),
        base_filter, base_benign,
        note="naive late timer stretches Te",
    ))

    # Snapshot restore only needs grace for the blind window (marks made
    # after the checkpoint and during the downtime are gone); a cold restart
    # needs the full Te because *every* mark is gone.
    crash = CrashRestart(crash_at=crash_at, downtime=2.0,
                         snapshot_age=snapshot_age,
                         warmup_grace=snapshot_age + 2.0)
    scenarios.append(_outcome(
        "crash+restore (snapshot)", run([crash], FailPolicy.FAIL_OPEN),
        base_filter, base_benign,
        outage_window=(crash_at, crash_at + 2.0),
        note=f"{snapshot_age:g}s-old checkpoint, fail-open outage",
    ))

    cold = CrashRestart(crash_at=crash_at, downtime=2.0, snapshot_age=None)
    scenarios.append(_outcome(
        "crash+cold restart", run([cold], FailPolicy.FAIL_OPEN),
        base_filter, base_benign,
        outage_window=(crash_at, crash_at + 2.0),
        note=f"no snapshot; Te={te:g}s warm-up grace",
    ))

    flips = BitFlips(at=mid_attack, fraction=BIT_FLIP_FRACTION)
    scenarios.append(_outcome(
        f"bit flips {BIT_FLIP_FRACTION:.2%}", run([flips]),
        base_filter, base_benign,
        note="random vector corruption mid-attack",
    ))

    scenarios.append(_outcome(
        "packet reordering", run([PacketReorder(fraction=0.02, max_delay=2.0)]),
        base_filter, base_benign,
        note="2% of packets up to 2s late",
    ))

    scenarios.append(_outcome(
        "packet duplication", run([PacketDuplication(fraction=0.01, delay=0.5)]),
        base_filter, base_benign,
        note="1% of packets delivered twice",
    ))

    scenarios.append(_outcome(
        "trace gap", run([TraceGap(start=crash_at, duration=2.0)]),
        base_filter, base_benign,
        note="2s of upstream loss",
    ))

    outage_start = mid_attack
    outage = 2 * dt
    for policy, name in ((FailPolicy.FAIL_CLOSED, "fail-closed outage"),
                         (FailPolicy.FAIL_OPEN, "fail-open outage")):
        result = run([Outage(at=outage_start, duration=outage,
                             warmup_grace=0.0)], policy)
        scenarios.append(_outcome(
            name, result, base_filter, base_benign,
            outage_window=(outage_start, outage_start + outage),
            note=f"{outage:g}s mid-attack outage, {policy.value}",
        ))

    return ResilienceResult(baseline=baseline, scenarios=scenarios)


def run(scale=SMALL):
    """Uniform experiment entry point (see repro.experiments.registry)."""
    return run_resilience(scale)
