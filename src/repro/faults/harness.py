"""The chaos harness: replay a trace through a filter while faults fire.

:func:`run_with_faults` is the fault-injecting twin of
:func:`repro.sim.pipeline.run_filter_on_trace`: same trace in, same scored
:class:`~repro.sim.metrics.FilterRunResult` out, but with a fault schedule
applied during the replay.  Trace-level injectors transform the stream
first; filter-level injectors contribute timestamped :class:`FaultEvent`
actions, and the batch replay is split at each event's timestamp so the
action lands between exactly the right two packets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.bitmap_filter import BitmapFilter
from repro.faults.injectors import FaultInjector
from repro.sim.metrics import FilterRunResult, score_run
from repro.telemetry.profiling import Timer
from repro.telemetry.registry import get_registry
from repro.traffic.trace import Trace


def _injection_counter(registry, fault_name: str):
    """The ``repro_faults_injected_total`` counter labelled by injector name."""
    return registry.counter(
        "repro_faults_injected_total",
        "Fault injections fired (trace transforms and timed events), "
        "by injector",
        fault=fault_name,
    )


@dataclass
class FaultedRunResult:
    """A scored filter run plus the fault schedule that ran against it."""

    run: FilterRunResult
    trace: Trace                      # the (possibly transformed) trace scored
    filter: BitmapFilter              # the surviving filter instance
    fault_log: List[Tuple[float, str]] = field(default_factory=list)
    filters_swapped: int = 0          # crash/restore instance replacements

    @property
    def confusion(self):
        return self.run.confusion

    def incoming_pass_fraction(self, start: float, end: float) -> float:
        """Fraction of inbound packets in ``[start, end)`` that passed.

        The degraded-mode probe: during a fail-closed outage this is 0.0,
        during a fail-open outage it is 1.0.
        """
        ts = self.trace.packets.ts
        window = self.run.incoming_mask & (ts >= start) & (ts < end)
        total = int(window.sum())
        if not total:
            return float("nan")
        return float(self.run.verdicts[window].sum()) / total


def run_with_faults(
    filt: BitmapFilter,
    trace: Trace,
    injectors: Sequence[FaultInjector],
) -> FaultedRunResult:
    """Run ``filt`` over ``trace`` while the injectors' fault schedule fires.

    Equivalent to :func:`~repro.sim.pipeline.run_filter_on_trace` when
    ``injectors`` is empty.  Events land between segments: an event at time
    t applies before any packet with timestamp >= t.  An event's action may
    replace the filter instance (crash/restore); subsequent segments run
    against the replacement.
    """
    registry = get_registry()
    tel = registry if registry.enabled else None

    with Timer("fault_transform"):
        for injector in injectors:
            transformed = injector.transform_trace(trace)
            if tel is not None and transformed is not trace:
                _injection_counter(registry, injector.name).inc()
            trace = transformed

    events = sorted(
        ((event, injector.name)
         for injector in injectors for event in injector.events()),
        key=lambda pair: pair[0].ts,
    )

    packets = trace.packets
    ts = packets.ts
    directions = packets.directions(trace.protected)
    incoming_mask = directions == 1

    fault_log: List[Tuple[float, str]] = []
    swapped = 0
    verdict_parts: List[np.ndarray] = []
    cursor = 0

    start_wall = time.perf_counter()
    with Timer("faulted_replay"):
        for event, injector_name in events:
            boundary = int(np.searchsorted(ts, event.ts, side="left"))
            if boundary > cursor:
                verdict_parts.append(
                    filt.process_batch(packets[cursor:boundary]))
                cursor = boundary
            replacement = event.apply(filt, event.ts)
            if replacement is not None and replacement is not filt:
                filt = replacement
                swapped += 1
            fault_log.append((event.ts, event.label))
            if tel is not None:
                _injection_counter(registry, injector_name).inc()
        if cursor < len(packets):
            verdict_parts.append(filt.process_batch(packets[cursor:]))
    wall = time.perf_counter() - start_wall

    if verdict_parts:
        verdicts = np.concatenate(verdict_parts)
    else:
        verdicts = np.ones(0, dtype=bool)

    confusion, series = score_run(packets, verdicts, incoming_mask,
                                  trace.duration)
    run = FilterRunResult(
        verdicts=verdicts,
        incoming_mask=incoming_mask,
        confusion=confusion,
        series=series,
        filter_stats=filt.stats.as_dict(),
        wall_time=wall,
    )
    return FaultedRunResult(run=run, trace=trace, filter=filt,
                            fault_log=fault_log, filters_swapped=swapped)
