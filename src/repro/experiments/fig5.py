"""Figure 5: bitmap-filter performance under the random-scan attack.

Section 4.3: random attack packets at 20x the normal packet rate (500K pps
against the 24.63K pps trace) are mixed into the clean trace from the attack
start onwards.  (a) the packets that penetrate the filter track the normal
traffic line — i.e. nearly all attack traffic is removed; (b) the attack
filtering rate averages 99.983% with the 512 KB {4 x 20}-bitmap and m = 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.report import render_comparison
from repro.attacks.scanner import RandomScanAttack, ScanConfig
from repro.core.filter_api import build_filter
from repro.core.parameters import penetration_probability
from repro.experiments.config import MEDIUM, ExperimentScale
from repro.experiments.fig2 import generate_trace
from repro.sim.metrics import FilterRunResult
from repro.traffic.trace import Trace

#: Paper's headline number.
PAPER_FILTER_RATE = 0.99983


@dataclass
class Fig5Result:
    attack_filter_rate: float
    penetration_rate: float
    predicted_penetration: float   # Eq. (1) from the measured utilization
    steady_state_utilization: float
    attack_to_normal_ratio: float
    run: FilterRunResult

    def report(self) -> str:
        paper = {
            "attack filtering rate": f"{PAPER_FILTER_RATE * 100:.3f}%",
            "attack rate / normal rate": "20x",
        }
        measured = {
            "attack filtering rate": f"{self.attack_filter_rate * 100:.3f}%",
            "attack rate / normal rate": f"{self.attack_to_normal_ratio:.1f}x",
            "penetration rate": f"{self.penetration_rate:.2e}",
            "Eq.(1) prediction from measured U": f"{self.predicted_penetration:.2e}",
            "steady-state utilization U": f"{self.steady_state_utilization:.4f}",
        }
        return render_comparison(
            "Figure 5 — bitmap filter vs the random-scan attack", paper, measured
        )


def build_attack_trace(scale: ExperimentScale, trace: Trace) -> Trace:
    """Mix the Section 4.3 random-scan attack into a clean trace."""
    attack = RandomScanAttack(
        ScanConfig(
            rate_pps=scale.attack_pps,
            start=scale.attack_start,
            duration=scale.attack_duration,
            seed=scale.seed ^ 0xA77AC4,
        ),
        trace.protected,
    ).generate()
    attack_trace = Trace(attack, trace.protected, {"duration": trace.duration})
    return trace.merged_with(attack_trace)


def run_fig5(
    scale: ExperimentScale = MEDIUM,
    trace: Optional[Trace] = None,
) -> Fig5Result:
    if trace is None:
        trace = generate_trace(scale)
    mixed = build_attack_trace(scale, trace)

    filt = build_filter(scale.bitmap_config(), trace.protected)

    # Sample utilization mid-attack by splitting the run at the midpoint.
    midpoint = scale.attack_start + scale.attack_duration / 2.0
    packets = mixed.packets
    split = int(np.searchsorted(packets.ts, midpoint))
    first = packets[:split]
    second = packets[split:]
    verdict_first = filt.process_batch(first)
    utilization = filt.utilization()
    verdict_second = filt.process_batch(second)
    verdicts = np.concatenate([verdict_first, verdict_second])

    from repro.sim.metrics import score_run

    directions = packets.directions(mixed.protected)
    incoming_mask = directions == 1
    confusion, series = score_run(packets, verdicts, incoming_mask, mixed.duration)
    run = FilterRunResult(
        verdicts=verdicts,
        incoming_mask=incoming_mask,
        confusion=confusion,
        series=series,
        filter_stats=filt.stats.as_dict(),
    )

    return Fig5Result(
        attack_filter_rate=confusion.attack_filter_rate,
        penetration_rate=confusion.penetration_rate,
        predicted_penetration=penetration_probability(
            utilization, scale.num_hashes
        ),
        steady_state_utilization=utilization,
        attack_to_normal_ratio=scale.attack_multiplier,
        run=run,
    )


def run(scale=MEDIUM):
    """Uniform experiment entry point (see repro.experiments.registry)."""
    return run_fig5(scale)
