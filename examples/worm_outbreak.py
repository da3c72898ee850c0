#!/usr/bin/env python3
"""A Code Red-style worm outbreak, seen from a protected client network.

Integrates the random-scanning epidemic model of the paper's motivating
references [6, 13, 21], prints an ASCII infection curve, then measures what
fraction of the worm's inbound scans a bitmap-filtered client network drops.

Run:  python examples/worm_outbreak.py
"""

import numpy as np

from repro.attacks.worm import WormModel, WormParameters
from repro.core.bitmap_filter import BitmapFilter, BitmapFilterConfig
from repro.sim.pipeline import run_filter_on_trace
from repro.traffic.generator import generate_client_trace
from repro.traffic.trace import Trace


def ascii_plot(t: np.ndarray, y: np.ndarray, height: int = 12, width: int = 64) -> str:
    """A minimal terminal line plot."""
    idx = np.linspace(0, len(y) - 1, width).astype(int)
    ys = y[idx]
    top = ys.max() or 1.0
    rows = []
    for level in range(height, 0, -1):
        threshold = top * (level - 0.5) / height
        rows.append("".join("#" if v >= threshold else " " for v in ys))
    rows.append("-" * width)
    rows.append(f"0s{' ' * (width - 12)}{t[-1]:.0f}s")
    return "\n".join(rows)


def main() -> None:
    # A compressed outbreak (small vulnerable population, aggressive scan
    # rate) so the epidemic fits inside a two-minute simulation.
    params = WormParameters(vulnerable_hosts=60_000, scan_rate=4000.0,
                            initially_infected=30, target_port=445)
    model = WormModel(params)

    print(f"worm: N={params.vulnerable_hosts} vulnerable, "
          f"s={params.scan_rate:g} scans/s/host, beta={params.beta:.4f}/s")
    t_half = model.time_to_fraction(0.5, step=0.25)
    print(f"time to 50% infection: {t_half:.0f}s\n")

    t, infected = model.infection_curve(duration=120.0, step=1.0)
    print("infected hosts over time:")
    print(ascii_plot(t, infected))

    print("\nthe client network's view:")
    trace = generate_client_trace(duration=120.0, target_pps=400.0, seed=21)
    scans = model.inbound_scans(trace.protected, duration=120.0, seed=4)
    print(f"  inbound worm scans hitting our six /24s: {len(scans)}")

    mixed = trace.merged_with(Trace(scans, trace.protected,
                                    {"duration": trace.duration}))
    filt = BitmapFilter(
        BitmapFilterConfig(order=15, num_vectors=4, num_hashes=3,
                           rotation_interval=5.0),
        trace.protected,
    )
    result = run_filter_on_trace(filt, mixed)
    print(f"  bitmap filter drops {result.confusion.attack_filter_rate * 100:.2f}% "
          f"of the worm's scans")
    print(f"  legitimate traffic falsely dropped: "
          f"{result.confusion.false_positive_rate * 100:.2f}%")


if __name__ == "__main__":
    main()
