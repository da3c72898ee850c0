"""Host speed: a fixed probe, timed beside the measured work.

On the shared 2-vCPU VMs this benchmark runs on, single-thread speed
switches between levels up to 2x apart, and a level can hold for minutes,
across whole runs.  Packets per second measured in wall-clock seconds
then say more about the neighbours than about the program.  So the
throughputs are measured in *reference seconds*: a chunk's wall time
times the probe's rate around it, over :data:`REFERENCE_RATE`.  A run on
a host twice as fast takes half the wall time and sees twice the probe
rate, and reads the same.  A slower program still reads slower, since
the probe does not touch the program.

The probe imitates the filter's hot path on a fixed input: a Python loop
over per-packet index tuples that sets or tests bits, and a vectorized
hash of a batch of addresses.  It is timed ``PROBE_REPEATS`` times and
the fastest is kept, so an interruption of one repeat does not count.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np

#: Probe rate (probes per second) that defines one reference second:
#: roughly the rate at the slower of the two speeds of the reference VM.
REFERENCE_RATE = 2000.0
PROBE_REPEATS = 3

_PACKETS = 4096
_rng = np.random.default_rng(20240617)
_ADDRESSES = _rng.integers(0, 2**32, _PACKETS, dtype=np.uint64)
_INDEX = [tuple(row) for row in
          _rng.integers(0, 1 << 16, (_PACKETS, 3)).tolist()]
_MARK = _rng.random(_PACKETS).tolist()


def _probe_once() -> int:
    bits = bytearray(1 << 16)
    table = np.zeros(1 << 16, dtype=bool)
    passed = 0
    for (a, b, c), mark in zip(_INDEX, _MARK):
        if mark < 0.3:
            bits[a] = bits[b] = bits[c] = 1
        elif bits[a] and bits[b] and bits[c]:
            passed += 1
    hashed = (_ADDRESSES * np.uint64(2654435761)) ^ (_ADDRESSES >> np.uint64(7))
    index = (hashed & np.uint64(0xFFFF)).astype(np.intp)
    table[index] = True
    return passed + int(table[index[::2]].sum())


def _best_rate() -> float:
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        began = perf_counter()
        _probe_once()
        best = min(best, perf_counter() - began)
    return 1.0 / best


def probe_rate(all_cpus: bool = False) -> float:
    """Probes per second on this host right now.

    By default, the best of the repeats where this process runs.  With
    ``all_cpus``, the same on each CPU this process may run on, pinned
    there in turn, averaged over the CPUs: each CPU's speed moves on its
    own, and daemons spread the program's work over all of them.
    """
    if not all_cpus or not hasattr(os, "sched_setaffinity"):
        return _best_rate()
    cpus = os.sched_getaffinity(0)
    rates = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            rates.append(_best_rate())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(rates) / len(rates)


class HostClock:
    """Brackets intervals with probes and converts them to reference time."""

    def __init__(self, all_cpus: bool = False) -> None:
        self.all_cpus = all_cpus
        self.last = probe_rate(all_cpus)
        self.rates = [self.last]

    def speed(self) -> float:
        """Host speed over the interval since the last call, in references.

        The mean of the probe rates at both ends of the interval, over
        :data:`REFERENCE_RATE`.
        """
        now = probe_rate(self.all_cpus)
        self.rates.append(now)
        speed = (self.last + now) / 2 / REFERENCE_RATE
        self.last = now
        return speed
