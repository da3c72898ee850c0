"""Verdict checks, made outside the timed region.

- Offline verdicts are compared with the scalar ``process()`` path, the
  paper's Algorithm 2 written out, run over the same warm-up and slice.
- Served and fleet verdicts are compared with the offline batch path of
  the same stack over the same packets, which the offline workloads in
  turn hold to the scalar reference.

A frame counts as failed when any of its verdicts differs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.filter_api import Decision, build_filter

from paths import StateSampler, frames_to_packets, offline_replay
from tracer import Tracer
from workloads import Inputs, split

REFERENCE_BATCH = 2000
#: Served and fleet runs report the hybrid state held over this many
#: packets, so the figure does not depend on how far a run got.
STATE_PACKETS = 1 << 17


def scalar_reference(inputs: Inputs, stack: str):
    """Algorithm 2 verdicts for the offline slice, one array per batch.

    Returns ``(verdicts, state)``; a hybrid stack's state is sampled after
    every batch of the slice.
    """
    filt = build_filter(inputs.filter_config(stack), inputs.protected,
                        start_time=inputs.start_time)
    for batch in inputs.warm:
        for pkt in batch:
            filt.process(pkt)
    state = StateSampler() if stack == "hybrid" else None
    verdicts = []
    for batch in inputs.batches:
        verdicts.append(np.fromiter(
            (filt.process(pkt) is Decision.PASS for pkt in batch),
            dtype=bool, count=len(batch)))
        if state is not None:
            state.sample(filt, float(batch.ts[-1]))
    return verdicts, state


def batch_reference(inputs: Inputs, stack: str, frames: Sequence,
                    owners: Optional[np.ndarray] = None,
                    tracer: Optional[Tracer] = None):
    """Offline batch verdicts over ``frames`` from fresh filters at t=0.

    With ``owners`` (a fleet's ring owner per packet), each node's share
    runs through a filter of its own, as on the node: a fleet node's
    bitmap holds only its own flows' marks, so its collisions, and with
    them its false admits, differ from one filter holding every flow.
    Returns ``(mask, replays)``, one replay per node; with a tracer the
    replays record the filter's layer spans (served and fleet take their
    filter-layer numbers from these twins).
    """
    packets = frames_to_packets(list(frames))
    if owners is None:
        owners = np.zeros(len(packets), dtype=np.int64)
    mask = np.zeros(len(packets), dtype=bool)
    replays = []
    for node in np.unique(owners):
        positions = np.flatnonzero(owners == node)
        replay = offline_replay(
            inputs, stack, split(packets[positions], REFERENCE_BATCH),
            start_time=0.0, tracer=tracer,
            state_upto=int(np.searchsorted(positions, STATE_PACKETS)))
        if replay.verdicts:
            mask[positions] = np.concatenate(replay.verdicts)
        replays.append(replay)
    return mask, replays


def mismatched_frames(verdicts: Sequence[np.ndarray],
                      reference: Sequence[np.ndarray]) -> int:
    """Frames whose verdicts differ from the reference frame by frame."""
    if len(verdicts) != len(reference):
        raise ValueError("verdict and reference frame counts differ")
    return sum(1 for got, want in zip(verdicts, reference)
               if got.shape != want.shape or not np.array_equal(got, want))


def split_like(mask: np.ndarray, frames: Sequence) -> List[np.ndarray]:
    """Cut one mask into per-frame pieces shaped like ``frames``."""
    bounds = np.cumsum([len(f) for f in frames])[:-1]
    return np.split(mask, bounds) if len(frames) else []


def self_test(reference: Sequence[np.ndarray]) -> bool:
    """One flipped verdict must be caught as exactly one failed frame."""
    frames = [np.array(r, dtype=bool, copy=True) for r in reference
              if len(r)]
    if not frames:
        return True
    frames[len(frames) // 2][0] ^= True
    return mismatched_frames(frames, [r for r in reference if len(r)]) == 1
