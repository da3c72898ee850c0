"""Worm-outbreak ablation: the epidemic context of the paper's introduction.

Two parts:

1. The epidemic curve itself — a Code Red-style random-scanning worm
   sweeping its vulnerable population in hours (the motivation of Section 1,
   refs [6, 13, 21]).
2. The client-network view: the inbound worm scans a protected network
   receives over the outbreak, and the fraction a bitmap filter drops
   (the worm analogue of Fig. 5, with a *time-varying* attack rate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.analysis.report import render_comparison
from repro.attacks.worm import WormModel, WormParameters
from repro.core.filter_api import build_filter
from repro.experiments.config import SMALL, ExperimentScale
from repro.experiments.fig2 import generate_trace
from repro.sim.pipeline import run_filter_on_trace
from repro.traffic.trace import Trace


@dataclass
class WormResult:
    params: WormParameters
    time_to_half: float               # seconds for 50% infection
    final_infected: int
    inbound_scan_count: int
    scan_filter_rate: float
    curve: Tuple[np.ndarray, np.ndarray]

    def report(self) -> str:
        paper = {
            "outbreak shape": "logistic (Code Red-style)",
            "scan filtering": "90-99% (conclusion)",
        }
        measured = {
            "outbreak shape": (
                f"50% infected at t={self.time_to_half:.0f}s, "
                f"{self.final_infected} final"
            ),
            "scan filtering": f"{self.scan_filter_rate * 100:.2f}%",
            "inbound scans seen": str(self.inbound_scan_count),
        }
        return render_comparison("Worm outbreak ablation", paper, measured)


def run_worm(
    scale: ExperimentScale = SMALL,
    params: WormParameters = None,
) -> WormResult:
    if params is None:
        # Compressed outbreak so the whole epidemic fits the scaled trace:
        # a small vulnerable population scanned aggressively.
        params = WormParameters(
            vulnerable_hosts=50_000,
            scan_rate=4000.0,
            initially_infected=50,
        )
    model = WormModel(params)
    trace = generate_trace(scale)

    curve = model.infection_curve(scale.duration, step=1.0)
    time_to_half = model.time_to_fraction(0.5, step=0.25)

    scans = model.inbound_scans(
        trace.protected, duration=scale.duration, seed=scale.seed ^ 0x3042
    )
    mixed = trace.merged_with(
        Trace(scans, trace.protected, {"duration": trace.duration})
    )

    filt = build_filter(scale.filter_config(), trace.protected)
    run = run_filter_on_trace(filt, mixed)

    return WormResult(
        params=params,
        time_to_half=time_to_half,
        final_infected=int(curve[1][-1]),
        inbound_scan_count=len(scans),
        scan_filter_rate=run.confusion.attack_filter_rate,
        curve=curve,
    )


def run(scale=SMALL):
    """Uniform experiment entry point (see repro.experiments.registry)."""
    return run_worm(scale)
