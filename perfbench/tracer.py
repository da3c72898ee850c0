"""In-memory spans for the traced run.

A span has a name, a start, an end, a parent and a few counts (packets,
keys).  Spans stay in memory and are written once, when the run ends.
The benchmark cannot place spans inside ``src/``, so a layer's span is
recorded around a *twin* call: the benchmark calls the layer's public
function on the same input right after the real call, and records that
call as a child of the real one.  A span's self time is its duration
minus its children's durations.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, **counts: int) -> int:
        span = Span(len(self.spans), name, start, end, parent, counts)
        self.spans.append(span)
        return span.id

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None,
             **counts: int) -> Iterator[None]:
        """Time the block as one span."""
        start = perf_counter()
        try:
            yield
        finally:
            self.add(name, start, perf_counter(), parent, **counts)

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def count(self, name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in self.spans if s.name == name)

    def per(self, name: str, key: str, scale: float = 1e9) -> float:
        """Total span seconds of ``name`` per ``key`` count, times ``scale``."""
        n = self.count(name, key)
        return self.total(name) * scale / n if n else 0.0

    def self_seconds(self, name: str) -> float:
        """Summed self time of every ``name`` span."""
        children: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent] += s.seconds
        return sum(s.seconds - children[s.id]
                   for s in self.spans if s.name == name)

    def write(self, path) -> None:
        with open(path, "w") as out:
            json.dump([asdict(s) for s in self.spans], out)
