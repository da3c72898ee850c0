"""Figure 4: packet drop rates of the SPI filter vs the bitmap filter.

The paper feeds the clean 6-hour trace to both filters — an SPI filter with
the 240 s Windows TIME_WAIT idle timeout and a {4 x 20}-bitmap (Te = 20 s,
dt = 5 s) — and scatter-plots per-window drop rates against each other: the
points hug the slope-1.0 line, with averages 1.56% (SPI) vs 1.51% (bitmap).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.analysis.report import render_comparison
from repro.core.filter_api import build_filter
from repro.experiments.config import MEDIUM, ExperimentScale
from repro.experiments.fig2 import generate_trace
from repro.sim.pipeline import run_filter_on_trace, windowed_drop_rates
from repro.spi.hashlist import HashListFilter
from repro.traffic.trace import Trace

#: Paper's measured averages.
PAPER_SPI_DROP_RATE = 0.0156
PAPER_BITMAP_DROP_RATE = 0.0151


@dataclass
class Fig4Result:
    spi_drop_rate: float
    bitmap_drop_rate: float
    window_pairs: List[Tuple[float, float]]  # (spi rate, bitmap rate) per window
    correlation: float
    fitted_slope: float

    def report(self) -> str:
        paper = {
            "SPI avg drop rate": f"{PAPER_SPI_DROP_RATE * 100:.2f}%",
            "bitmap avg drop rate": f"{PAPER_BITMAP_DROP_RATE * 100:.2f}%",
            "scatter slope": "~1.0",
        }
        measured = {
            "SPI avg drop rate": f"{self.spi_drop_rate * 100:.2f}%",
            "bitmap avg drop rate": f"{self.bitmap_drop_rate * 100:.2f}%",
            "scatter slope": f"{self.fitted_slope:.2f} (r={self.correlation:.2f})",
        }
        return render_comparison(
            "Figure 4 — SPI vs bitmap drop rates on the clean trace", paper, measured
        )


def run_fig4(
    scale: ExperimentScale = MEDIUM,
    trace: Trace = None,
    window: float = 10.0,
) -> Fig4Result:
    if trace is None:
        trace = generate_trace(scale)

    bitmap = build_filter(scale.bitmap_config(), trace.protected)
    bitmap_run = run_filter_on_trace(bitmap, trace)

    spi = HashListFilter(trace.protected, idle_timeout=scale.spi_idle_timeout)
    spi_run = run_filter_on_trace(spi, trace)

    _, bitmap_rates = windowed_drop_rates(bitmap_run, window)
    _, spi_rates = windowed_drop_rates(spi_run, window)

    # Only windows with traffic in both runs contribute scatter points.
    n = min(len(bitmap_rates), len(spi_rates))
    spi_rates, bitmap_rates = spi_rates[:n], bitmap_rates[:n]
    active = (spi_rates > 0) | (bitmap_rates > 0)
    pairs = list(zip(spi_rates[active].tolist(), bitmap_rates[active].tolist()))

    if len(pairs) >= 2 and np.std(spi_rates[active]) > 0:
        correlation = float(np.corrcoef(spi_rates[active], bitmap_rates[active])[0, 1])
        # Least-squares through the origin, matching the paper's slope line.
        slope = float(
            np.dot(spi_rates[active], bitmap_rates[active])
            / np.dot(spi_rates[active], spi_rates[active])
        )
    else:
        correlation, slope = float("nan"), float("nan")

    return Fig4Result(
        spi_drop_rate=spi_run.incoming_drop_rate,
        bitmap_drop_rate=bitmap_run.incoming_drop_rate,
        window_pairs=pairs,
        correlation=correlation,
        fitted_slope=slope,
    )


def run(scale=MEDIUM):
    """Uniform experiment entry point (see repro.experiments.registry)."""
    return run_fig4(scale)
