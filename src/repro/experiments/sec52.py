"""Section 5.2: attack from insiders — bitmap pollution and its mitigations.

An infected host inside the client network emits random outgoing tuples at
rate ``r``; each marks m bits for ~Te seconds, raising the utilization by
roughly ``m * r * Te / 2**n`` and therefore the random-packet penetration
probability ``U**m``.  The experiment measures the utilization increase
against the formula, then demonstrates both mitigations the paper proposes:
a larger bitmap (increase n) and a shorter expiry timer (reduce Te).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.analysis.report import render_table
from repro.attacks.insider import InsiderAttack
from repro.core.bitmap_filter import BitmapFilterConfig
from repro.core.filter_api import build_filter
from repro.core.parameters import insider_utilization_increase, penetration_probability
from repro.experiments.config import MEDIUM, ExperimentScale
from repro.experiments.fig2 import generate_trace
from repro.traffic.trace import Trace


@dataclass
class InsiderScenario:
    label: str
    order: int
    expiry_timer: float
    baseline_utilization: float
    attacked_utilization: float
    predicted_increase: float
    measured_increase: float
    attacked_penetration: float


@dataclass
class Sec52Result:
    attack_rate_pps: float
    scenarios: List[InsiderScenario]

    def report(self) -> str:
        rows = [
            [s.label, s.order, f"{s.expiry_timer:g}",
             f"{s.baseline_utilization:.4f}", f"{s.attacked_utilization:.4f}",
             f"{s.predicted_increase:.4f}", f"{s.measured_increase:.4f}",
             f"{s.attacked_penetration:.3e}"]
            for s in self.scenarios
        ]
        header = (
            f"Section 5.2 — insider attack at r = {self.attack_rate_pps:g} pps\n"
            "predicted increase = m*r*Te / 2^n (paper formula)"
        )
        return header + "\n" + render_table(
            ["scenario", "n", "Te", "U base", "U attacked", "dU pred", "dU meas", "p attacked"],
            rows,
        )


def _utilization_under(
    config: BitmapFilterConfig,
    trace: Trace,
    sample_time: float,
) -> float:
    """Run the trace up to ``sample_time`` and read the utilization."""
    filt = build_filter(config, trace.protected)
    packets = trace.packets
    cut = int(np.searchsorted(packets.ts, sample_time))
    filt.process_batch(packets[:cut])
    return filt.utilization()


def run_sec52(
    scale: ExperimentScale = MEDIUM,
    insider_rate_pps: float = None,
) -> Sec52Result:
    trace = generate_trace(scale)
    if insider_rate_pps is None:
        # A single compromised host scanning at half the whole network's
        # normal packet rate — loud, but keeping the predicted utilization
        # increase in the linear (uncapped) regime of the Sec. 5.2 formula.
        insider_rate_pps = scale.normal_pps * 0.5

    attacker = trace.protected.networks[0].host(10)
    insider = InsiderAttack(
        attacker_addr=attacker,
        rate_pps=insider_rate_pps,
        start=0.0,
        duration=scale.duration,
        seed=scale.seed ^ 0x1221,
    )
    polluted = trace.merged_with(
        Trace(insider.generate(trace.protected), trace.protected,
              {"duration": trace.duration})
    )

    sample_time = scale.duration * 0.8
    scenarios: List[InsiderScenario] = []
    baseline_cfg = scale.bitmap_config()

    def add_scenario(label: str, config: BitmapFilterConfig) -> None:
        base_u = _utilization_under(config, trace, sample_time)
        attacked_u = _utilization_under(config, polluted, sample_time)
        te = config.expiry_timer
        scenarios.append(
            InsiderScenario(
                label=label,
                order=config.order,
                expiry_timer=te,
                baseline_utilization=base_u,
                attacked_utilization=attacked_u,
                predicted_increase=insider_utilization_increase(
                    insider_rate_pps, config.num_hashes, config.order, te
                ),
                measured_increase=attacked_u - base_u,
                attacked_penetration=penetration_probability(
                    attacked_u, config.num_hashes
                ),
            )
        )

    add_scenario("baseline", baseline_cfg)
    add_scenario(
        "mitigation: larger bitmap (n+2)",
        BitmapFilterConfig(
            order=baseline_cfg.order + 2,
            num_vectors=baseline_cfg.num_vectors,
            num_hashes=baseline_cfg.num_hashes,
            rotation_interval=baseline_cfg.rotation_interval,
            seed=baseline_cfg.seed,
        ),
    )
    add_scenario(
        "mitigation: shorter Te (dt=1.25s, Te=5s)",
        BitmapFilterConfig(
            order=baseline_cfg.order,
            num_vectors=baseline_cfg.num_vectors,
            num_hashes=baseline_cfg.num_hashes,
            rotation_interval=baseline_cfg.rotation_interval / 4.0,
            seed=baseline_cfg.seed,
        ),
    )

    return Sec52Result(attack_rate_pps=insider_rate_pps, scenarios=scenarios)


def run(scale=MEDIUM):
    """Uniform experiment entry point (see repro.experiments.registry)."""
    return run_sec52(scale)
