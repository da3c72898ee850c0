"""The benchmark's workloads: which trace, which path, which framing.

A workload fixes everything but the seed.  ``make_inputs`` turns a
workload and a seed into the packets the program receives; the program
never sees the seed itself.  README.md in this directory says why each
workload was chosen and which layers it stresses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import List

import numpy as np

from repro.core.bitmap_filter import FilterConfig
from repro.core.hybrid import VerifySpec
from repro.experiments.config import LARGE, MEDIUM, ExperimentScale
from repro.experiments.fig2 import generate_trace
from repro.experiments.fig5 import build_attack_trace
from repro.net.packet import DIRECTION_INCOMING, PacketArray, PacketLabel

STACKS = ("plain", "hybrid")


@dataclass(frozen=True)
class Workload:
    name: str
    path: str               # "offline" | "served" | "fleet"
    scale: ExperimentScale  # trace generator settings and filter geometry
    attack: bool            # mix in the Fig. 5 random scan
    frame_packets: int      # packets per process_batch call / wire frame
    window: int             # frames in flight per connection
    slice_batches: int = 0  # offline: batches replayed per repetition
    fleet_size: int = 0
    passes: int = 1         # served and fleet: times the trace is streamed


WORKLOADS = {
    w.name: w for w in (
        Workload("scan", "offline", MEDIUM, True, 2000, 1, slice_batches=50),
        Workload("clean", "offline", LARGE, False, 2000, 1, slice_batches=50),
        Workload("served-small", "served", LARGE, False, 32, 8),
        Workload("fleet", "fleet", MEDIUM, True, 2000, 4, fleet_size=2,
                 passes=2),
    )
}

#: Shrunk traces for the benchmark's own tests: every code path, seconds.
_TINY_SCALES = {
    "medium": replace(MEDIUM, name="tiny-medium", duration=40.0,
                      normal_pps=60.0, bitmap_order=12),
    "large": replace(LARGE, name="tiny-large", duration=40.0,
                     normal_pps=150.0, bitmap_order=12),
}


@dataclass
class Inputs:
    """Everything one run feeds the program, generated from the seed."""

    workload: Workload
    seed: int
    scale: ExperimentScale
    packets: PacketArray        # the whole trace, time-sorted
    protected: object           # repro.net.address.AddressSpace
    gen_s: float                # trace generation time (the load generator)
    start_time: float           # filter clock origin for the offline path
    warm: List[PacketArray]     # offline: replayed before the timed slice
    batches: List[PacketArray]  # the frames the timed region sends, in order

    @property
    def protected_cidrs(self) -> str:
        return ",".join(str(net) for net in self.protected.networks)

    def filter_config(self, stack: str) -> FilterConfig:
        scale = self.scale
        return FilterConfig(
            order=scale.bitmap_order, num_vectors=scale.num_vectors,
            num_hashes=scale.num_hashes,
            rotation_interval=scale.rotation_interval, seed=self.seed,
            layers=(VerifySpec(),) if stack == "hybrid" else ())

    def serve_args(self, stack: str) -> List[str]:
        """`repro serve` geometry flags matching :meth:`filter_config`."""
        scale = self.scale
        return ["--order", str(scale.bitmap_order),
                "--k", str(scale.num_vectors), "--m", str(scale.num_hashes),
                "--dt", str(scale.rotation_interval),
                "--hash-seed", str(self.seed),
                "--filter", "hybrid" if stack == "hybrid" else "bitmap"]


def split(packets: PacketArray, size: int) -> List[PacketArray]:
    return [packets[i:i + size] for i in range(0, len(packets), size)]


def make_inputs(workload: Workload, seed: int, *, tiny: bool = False) -> Inputs:
    scale = workload.scale
    if tiny:
        scale = _TINY_SCALES[scale.name]
    scale = replace(scale, seed=seed)
    began = perf_counter()
    trace = generate_trace(scale)
    if workload.attack:
        trace = build_attack_trace(scale, trace)
    gen_s = perf_counter() - began
    packets = trace.packets

    start_time = 0.0
    warm: List[PacketArray] = []
    if workload.path == "offline":
        # The timed slice starts where the workload's traffic does: the
        # attack onset for scan, the trace start for clean.  Marks older
        # than k*dt are cleared by rotation, so replaying only the k*dt
        # before the slice (on the same rotation grid) reproduces the
        # whole-trace filter state at the slice start.
        dt = scale.rotation_interval
        onset = scale.attack_start if workload.attack else 0.0
        onset = np.floor(onset / dt) * dt
        start_time = max(0.0, onset - scale.num_vectors * dt)
        lo, mid = np.searchsorted(packets.ts, [start_time, onset])
        size = workload.frame_packets * (
            workload.slice_batches if not tiny else 10)
        warm = split(packets[lo:mid], workload.frame_packets)
        batches = split(packets[mid:mid + size], workload.frame_packets)
    else:
        # Each further pass is the trace again, shifted k*dt past the last
        # packet of the one before (the trace runs on well past
        # ``duration``), on the same rotation grid: time only moves
        # forward, and rotation has cleared every mark of the earlier
        # pass when the next begins.
        dt = scale.rotation_interval
        last = float(packets.ts[-1]) if len(packets) else 0.0
        period = (np.floor(last / dt) + 1 + scale.num_vectors) * dt
        batches = []
        for n in range(workload.passes):
            data = packets.data.copy() if n else packets.data
            if n:
                data["ts"] += n * period
            batches += split(PacketArray(data), workload.frame_packets)
    return Inputs(workload=workload, seed=seed, scale=scale, packets=packets,
                  protected=trace.protected, gen_s=gen_s,
                  start_time=float(start_time), warm=warm, batches=batches)


def inbound_accuracy(inputs: Inputs, packets: PacketArray,
                     verdicts: np.ndarray) -> dict:
    """Eq. (1) penetration and false-positive share over judged packets."""
    inbound = packets.directions(inputs.protected) == DIRECTION_INCOMING
    attack = inbound & (packets.label == PacketLabel.ATTACK)
    normal = inbound & (packets.label == PacketLabel.NORMAL)
    return {
        "attack_inbound": int(attack.sum()),
        "attack_admitted": int((verdicts & attack).sum()),
        "normal_inbound": int(normal.sum()),
        "normal_dropped": int((~verdicts & normal).sum()),
    }


def describe(inputs: Inputs) -> dict:
    """Trace facts every result records."""
    w = inputs.workload
    timed = sum(len(b) for b in inputs.batches)
    return {
        "trace_packets": len(inputs.packets),
        "passes": w.passes,
        "timed_input_packets": timed,
        "warm_packets": sum(len(b) for b in inputs.warm),
        "frame_packets": w.frame_packets,
        "window": w.window,
        "path": w.path,
        "fleet_size": w.fleet_size,
        "loopback": w.path in ("served", "fleet"),
        "scale": inputs.scale.name,
        "bitmap_order": inputs.scale.bitmap_order,
        "start_time": inputs.start_time,
    }
