"""Hybrid verification experiment: the bitmap's false admits, driven to ~0.

The {k×n}-bitmap filter is probabilistic: a random attack packet penetrates
with probability ``U**m`` (Eq. 1), so under the Section 4.3 random-scan
attack a small but nonzero stream of false admits reaches the clients.  The
hybrid stack (:class:`~repro.core.hybrid.HybridVerifiedFilter`) confirms
every bitmap admit against the exact cuckoo flow table, which by
construction contains exactly the live outgoing flows — so on the verified
subset the false-admit rate collapses to ~0 while legitimate traffic is
untouched.

Four scenarios per run, bitmap vs hybrid on the same trace:

- **paper band** — the scale's own bitmap order (utilization in the
  paper's few-percent band) under the random-scan attack: penetrations
  are rare, the hybrid removes them entirely.
- **pressured (n-3)** — an eighth of the bitmap, the memory-constrained
  regime where U and therefore ``U**m`` is orders of magnitude worse: the
  hybrid buys back exactness for the price of the flow table, a
  Table-1-style state-vs-accuracy trade.
- **worm inbound** — the worm-outbreak analogue (time-varying inbound
  scan rate from :mod:`repro.attacks.worm`); scan flows are never
  outgoing, so the table confirms none of the bitmap's leaks.
- **insider-polluted** — a compromised inside host (Sec. 5.2) marks junk
  keys to inflate U while the external scan probes; the pollution is
  outgoing-only noise to the exact table, so verification still seals
  every scan penetration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.report import render_table
from repro.core.filter_api import build_filter
from repro.core.hybrid import VerifySpec
from repro.experiments.config import SMALL, ExperimentScale
from repro.experiments.fig2 import generate_trace
from repro.experiments.fig5 import build_attack_trace
from repro.sim.pipeline import run_filter_on_trace
from repro.traffic.trace import Trace


@dataclass
class HybridScenario:
    """Bitmap-alone vs hybrid stack on one bitmap geometry."""

    label: str
    order: int
    bitmap_false_admits: int
    hybrid_false_admits: int
    bitmap_penetration_rate: float
    hybrid_penetration_rate: float
    bitmap_fp_rate: float          # legitimate incoming wrongly dropped
    hybrid_fp_rate: float
    confirmed: int                 # hybrid lookups confirmed by the table
    denied: int                    # hybrid denials (caught false admits)
    bitmap_kib: float
    table_kib: float
    table_occupancy: int
    wall_ratio: float              # hybrid wall time / bitmap wall time


@dataclass
class HybridVerifyResult:
    scenarios: List[HybridScenario]

    def report(self) -> str:
        rows = [
            [s.label, s.order,
             s.bitmap_false_admits, s.hybrid_false_admits,
             f"{s.bitmap_penetration_rate:.2e}",
             f"{s.hybrid_penetration_rate:.2e}",
             f"{s.bitmap_fp_rate:.4f}", f"{s.hybrid_fp_rate:.4f}",
             f"{s.denied}/{s.confirmed + s.denied}",
             f"{s.bitmap_kib:.0f}", f"{s.table_kib:.0f}",
             f"{s.wall_ratio:.2f}x"]
            for s in self.scenarios
        ]
        header = (
            "Hybrid bitmap→cuckoo verification — false admits under the "
            "scan, worm, and insider attacks\n"
            "(state-vs-accuracy rows in the style of Table 1: the exact "
            "tier's KiB buys penetration ~0)"
        )
        return header + "\n" + render_table(
            ["scenario", "n", "FA bitmap", "FA hybrid", "pen bitmap",
             "pen hybrid", "FP bitmap", "FP hybrid", "denied/verified",
             "bitmap KiB", "table KiB", "wall"],
            rows,
        )


def _scenario(label: str, order: int, scale: ExperimentScale,
              mixed: Trace) -> HybridScenario:
    config = scale.bitmap_config(order=order)
    bitmap = build_filter(config, mixed.protected)
    bitmap_run = run_filter_on_trace(bitmap, mixed)

    spec = VerifySpec(initial_order=10, resize_fpr=0.01)
    hybrid = build_filter(config, mixed.protected, layers=(spec,))
    hybrid_run = run_filter_on_trace(hybrid, mixed)

    return HybridScenario(
        label=label,
        order=order,
        bitmap_false_admits=bitmap_run.confusion.attack_passed,
        hybrid_false_admits=hybrid_run.confusion.attack_passed,
        bitmap_penetration_rate=bitmap_run.confusion.penetration_rate,
        hybrid_penetration_rate=hybrid_run.confusion.penetration_rate,
        bitmap_fp_rate=bitmap_run.confusion.false_positive_rate,
        hybrid_fp_rate=hybrid_run.confusion.false_positive_rate,
        confirmed=hybrid.confirmed,
        denied=hybrid.denied,
        bitmap_kib=config.memory_bytes / 1024.0,
        table_kib=hybrid.table.memory_bytes / 1024.0,
        table_occupancy=hybrid.table.occupancy,
        wall_ratio=(hybrid_run.wall_time / bitmap_run.wall_time
                    if bitmap_run.wall_time else float("nan")),
    )


def run_hybrid_verify(
    scale: ExperimentScale = SMALL,
    trace: Optional[Trace] = None,
) -> HybridVerifyResult:
    from repro.attacks.insider import InsiderAttack
    from repro.attacks.worm import WormModel, WormParameters

    if trace is None:
        trace = generate_trace(scale)
    mixed = build_attack_trace(scale, trace)

    # Worm analogue: time-varying inbound scans (compressed outbreak, as
    # in the worm ablation) instead of the constant-rate random scan.
    worm = WormModel(WormParameters(
        vulnerable_hosts=50_000, scan_rate=4000.0, initially_infected=50))
    scans = worm.inbound_scans(
        trace.protected, duration=scale.duration, seed=scale.seed ^ 0x3042)
    worm_mixed = trace.merged_with(
        Trace(scans, trace.protected, {"duration": trace.duration}))

    # Insider-assisted (Sec. 5.2): outgoing pollution inflates U under
    # the same external scan.
    insider = InsiderAttack(
        attacker_addr=trace.protected.networks[0].host(10),
        rate_pps=scale.normal_pps * 0.5,
        start=0.0,
        duration=scale.duration,
        seed=scale.seed ^ 0x1221,
    )
    polluted = trace.merged_with(
        Trace(insider.generate(trace.protected), trace.protected,
              {"duration": trace.duration}))
    insider_mixed = build_attack_trace(scale, polluted)

    n = scale.bitmap_order
    return HybridVerifyResult(scenarios=[
        _scenario("paper band", n, scale, mixed),
        _scenario("pressured (n-3)", n - 3, scale, mixed),
        _scenario("worm inbound (n-3)", n - 3, scale, worm_mixed),
        _scenario("insider-polluted", n, scale, insider_mixed),
    ])


def run(scale=SMALL):
    """Uniform experiment entry point (see repro.experiments.registry)."""
    return run_hybrid_verify(scale)
