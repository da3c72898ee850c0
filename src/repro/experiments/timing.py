"""Timing ablation: the (k, dt, Te) trade-offs of Section 3.4.

Two sweeps over the same clean trace + attack:

1. **Granularity sweep** — fix Te = 20 s and vary (k, dt): {2 x 10s},
   {4 x 5s} (the paper's pick), {8 x 2.5s}, {16 x 1.25s}.  More vectors
   tighten the guaranteed window toward Te (fewer over-eager expiries of
   legitimate replies) at the price of k-proportional memory and more
   frequent rotations.
2. **Expiry sweep** — fix k = 4 and vary Te: 5/10/20/40 s.  Shorter Te
   drops more delayed-but-legitimate packets (Section 3.2: Te below ~3 s
   would exceed 1% false positives) while shrinking the window an insider
   or port-reuse collision can exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.report import render_table
from repro.core.bitmap_filter import BitmapFilterConfig
from repro.core.filter_api import build_filter
from repro.experiments.config import SMALL, ExperimentScale
from repro.experiments.fig2 import generate_trace
from repro.experiments.fig5 import build_attack_trace
from repro.sim.pipeline import run_filter_on_trace
from repro.traffic.trace import Trace


@dataclass
class TimingPoint:
    num_vectors: int
    rotation_interval: float
    expiry_timer: float
    guaranteed_window: float
    false_positive_rate: float
    attack_filter_rate: float
    memory_bytes: int
    rotations: int


@dataclass
class TimingResult:
    granularity: List[TimingPoint]   # Te fixed, k varies
    expiry: List[TimingPoint]        # k fixed, Te varies

    def report(self) -> str:
        def rows(points: List[TimingPoint]) -> List[list]:
            return [
                [p.num_vectors, f"{p.rotation_interval:g}", f"{p.expiry_timer:g}",
                 f"{p.guaranteed_window:g}",
                 f"{p.false_positive_rate * 100:.2f}%",
                 f"{p.attack_filter_rate * 100:.3f}%",
                 f"{p.memory_bytes // 1024} KiB", p.rotations]
                for p in points
            ]

        headers = ["k", "dt", "Te", "guaranteed", "FP rate", "attack filtered",
                   "memory", "rotations"]
        return "\n".join([
            render_table(headers, rows(self.granularity),
                         title="Granularity sweep (Te = 20 s fixed):"),
            "",
            render_table(headers, rows(self.expiry),
                         title="Expiry sweep (k = 4 fixed):"),
        ])


def _measure(
    scale: ExperimentScale, trace: Trace, num_vectors: int, rotation_interval: float
) -> TimingPoint:
    config = BitmapFilterConfig(
        order=scale.bitmap_order,
        num_vectors=num_vectors,
        num_hashes=scale.num_hashes,
        rotation_interval=rotation_interval,
        seed=scale.seed,
    )
    filt = build_filter(config, trace.protected)
    run = run_filter_on_trace(filt, trace)
    return TimingPoint(
        num_vectors=num_vectors,
        rotation_interval=rotation_interval,
        expiry_timer=config.expiry_timer,
        guaranteed_window=config.guaranteed_window,
        false_positive_rate=run.confusion.false_positive_rate,
        attack_filter_rate=run.confusion.attack_filter_rate,
        memory_bytes=config.memory_bytes,
        rotations=filt.stats.rotations,
    )


def run_timing_ablation(
    scale: ExperimentScale = SMALL, trace: Optional[Trace] = None
) -> TimingResult:
    if trace is None:
        trace = generate_trace(scale)
    attacked = build_attack_trace(scale, trace)

    te = scale.expiry_timer  # 20 s
    granularity = [
        _measure(scale, attacked, k, te / k) for k in (2, 4, 8, 16)
    ]
    expiry = [
        _measure(scale, attacked, 4, target_te / 4)
        for target_te in (5.0, 10.0, 20.0, 40.0)
    ]
    return TimingResult(granularity=granularity, expiry=expiry)


def run(scale=SMALL):
    """Uniform experiment entry point (see repro.experiments.registry)."""
    return run_timing_ablation(scale)
