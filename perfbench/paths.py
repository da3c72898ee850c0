"""The three packet paths the benchmark drives, each with both stacks.

- offline: ``build_filter(...).process_batch`` in this process;
- served: one ``repro serve --clock packet`` daemon per stack, driven over
  TCP loopback with ``FilterClient.filter_stream``;
- fleet: one ``FleetManager`` fleet per stack, driven through
  ``FleetRouter.filter_batches``.

Every path replays in *chunks*, alternating the two stacks so that both
see the same machine conditions.  An offline chunk is one repetition of
the workload's fixed slice from a freshly built filter; a served or fleet
chunk continues the trace where the stack's previous chunk stopped (a
packet-clock daemon cannot go back in time).  In a traced run every other
chunk, the first included, records spans and twin layer calls (see
tracer.py).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import urllib.request
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro.core.bitmap import Bitmap
from repro.core.filter_api import build_filter
from repro.fleet.manager import FleetManager
from repro.fleet.router import FleetRouter
from repro.net.packet import DIRECTION_INCOMING, DIRECTION_OUTGOING, PacketArray
from repro.serve import protocol
from repro.serve.client import FilterClient
from repro.telemetry.exporters import parse_prometheus

from calibrate import HostClock
from tracer import Tracer
from workloads import STACKS, Inputs

READY_PREFIX = "REPRO-SERVE READY "
READY_TIMEOUT_S = 60.0
SETUP_TRIALS = 5
#: Served and fleet chunks stop after this long, so the stacks alternate.
CHUNK_SECONDS = 0.25
#: A fleet call streams this many windows of frames (FleetRouter.filter_batches).
FLEET_GROUP = 4


@dataclass
class Chunk:
    packets: int
    seconds: float
    latencies: List[float]
    traced: bool
    speed: float = 1.0          # host speed over the chunk (calibrate.py)

    @property
    def pps(self) -> float:
        return self.packets / self.seconds


@dataclass
class StackRun:
    """What one stack did over the timed region."""

    chunks: List[Chunk] = field(default_factory=list)
    verdicts: List[np.ndarray] = field(default_factory=list)  # per frame
    frames_attempted: int = 0
    frames_failed: int = 0      # errors, timeouts, shed or policy answers
    errors: List[str] = field(default_factory=list)
    exhausted: bool = False
    layer: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(c.seconds for c in self.chunks)


# -- the offline replay, shared by the offline path and the references -------

class Replay(NamedTuple):
    verdicts: List[np.ndarray]
    latencies: List[float]
    filter: object
    wall: float                 # the whole timed loop, probes included
    state: Optional["StateSampler"]


class StateSampler:
    """Bitmap plus cuckoo-table bytes of a hybrid stack, sampled per batch.

    ``live`` counts only table entries within their lifetime and is
    averaged over the samples; ``allocated`` is the whole table at the
    last sample.  The allocation doubles in steps whose timing shifts
    with the seed, while the live entries move smoothly with the traffic.
    """

    def __init__(self) -> None:
        self.samples: List[int] = []
        self.allocated = 0

    def sample(self, filt, now: float) -> None:
        table = filt.table
        bitmap = filt.config.memory_bytes
        slot_bytes = table.memory_bytes // table.capacity
        self.samples.append(bitmap + table.live_count(now) * slot_bytes)
        self.allocated = bitmap + table.memory_bytes

    @property
    def live(self) -> float:
        return statistics.fmean(self.samples) if self.samples else 0.0


def offline_replay(inputs: Inputs, stack: str, batches: List[PacketArray], *,
                   start_time: float, warm: List[PacketArray] = (),
                   tracer: Optional[Tracer] = None,
                   state_upto: Optional[int] = None) -> Replay:
    """Build a stack, replay ``warm`` untimed, then time each batch.

    With a tracer, each batch becomes a span and the layers under it are
    timed by twin calls inside the loop.  A hybrid stack's state is
    sampled after each batch that starts before packet ``state_upto``.
    """
    filt = build_filter(inputs.filter_config(stack), inputs.protected,
                        start_time=start_time)
    for batch in warm:
        filt.process_batch(batch)
    probe = _LayerProbe(inputs, filt, stack, start_time, warm) \
        if tracer is not None else None
    verdicts, latencies = [], []
    judged = 0
    state = StateSampler() \
        if stack == "hybrid" and state_upto is not None else None
    loop_began = perf_counter()
    for batch in batches:
        before = filt.stats.rotations
        began = perf_counter()
        mask = filt.process_batch(batch)
        ended = perf_counter()
        latencies.append(ended - began)
        verdicts.append(mask)
        if probe is not None:
            probe.after_batch(tracer, batch, began, ended,
                              filt.stats.rotations - before)
        if state is not None and judged < state_upto:
            state.sample(filt, float(batch.ts[-1]))
        judged += len(batch)
    return Replay(verdicts, latencies, filt, perf_counter() - loop_began,
                  state)


class _LayerProbe:
    """Twin calls into the filter's layers on the batch just judged."""

    def __init__(self, inputs: Inputs, filt, stack: str, start_time: float,
                 warm: List[PacketArray]):
        self.protected = inputs.protected
        self.stack = stack
        plain = filt.inner if stack == "hybrid" else filt
        self.hashes = plain.hashes
        config = plain.config
        self.scratch = Bitmap(config.num_vectors, config.order)
        self.twin = None
        if stack == "hybrid":
            # A plain filter in lockstep: the hybrid batch minus this
            # twin's batch is the cuckoo confirmation's cost.
            self.twin = build_filter(inputs.filter_config("plain"),
                                     inputs.protected, start_time=start_time)
            for batch in warm:
                self.twin.process_batch(batch)

    def after_batch(self, tracer: Tracer, batch: PacketArray, began: float,
                    ended: float, rotations: int) -> None:
        n = len(batch)
        if self.stack == "hybrid":
            parent = tracer.add("core.hybrid.batch", began, ended, packets=n)
            with tracer.span("core.hybrid.inner_twin", parent, packets=n):
                self.twin.process_batch(batch)
            return
        parent = tracer.add("core.bitmap_filter.batch", began, ended,
                            packets=n, windows=1 + rotations)
        with tracer.span("net.packet.classify", parent, packets=n):
            directions = batch.directions(self.protected)
        outgoing = directions == DIRECTION_OUTGOING
        local_addr = np.where(outgoing, batch.src, batch.dst).astype(np.uint32)
        local_port = np.where(outgoing, batch.sport, batch.dport).astype(np.uint16)
        remote_addr = np.where(outgoing, batch.dst, batch.src).astype(np.uint32)
        with tracer.span("core.hashing.indices", parent, packets=n):
            index = self.hashes.indices_vec(batch.proto, local_addr,
                                            local_port, remote_addr)
        # Scratch-bitmap probes stand apart from the batch span: the
        # window loop's own marks and tests are part of its self time.
        marks = index[:, outgoing]
        tests = index[:, directions == DIRECTION_INCOMING]
        with tracer.span("core.bitmap.mark", keys=marks.shape[1]):
            self.scratch.mark_vec(marks)
        with tracer.span("core.bitmap.test", keys=tests.shape[1]):
            self.scratch.test_current_vec(tests)
        with tracer.span("core.bitmap.rotate", rotations=1):
            self.scratch.rotate()


def filter_layer_metrics(tracer: Tracer, plain: list,
                         hybrid: list) -> Dict[str, float]:
    """Per-layer metrics of the filter stacks, from spans and counters.

    ``plain`` and ``hybrid`` hold one filter per node (one offline).
    """
    packets = tracer.count("core.bitmap_filter.batch", "packets")
    batches = sum(1 for s in tracer.spans
                  if s.name == "core.bitmap_filter.batch")
    hybrid_packets = tracer.count("core.hybrid.batch", "packets")
    confirmed = sum(f.confirmed for f in hybrid)
    lookups = confirmed + sum(f.denied for f in hybrid)
    table = [f.table.counters() for f in hybrid]
    rotate_spans = tracer.count("core.bitmap.rotate", "rotations")
    return {
        "net.packet.classify_ns": tracer.per("net.packet.classify", "packets"),
        "core.hashing.indices_ns": tracer.per("core.hashing.indices", "packets"),
        "core.bitmap.mark_ns": tracer.per("core.bitmap.mark", "keys"),
        "core.bitmap.test_ns": tracer.per("core.bitmap.test", "keys"),
        "core.bitmap.rotate_us": (tracer.total("core.bitmap.rotate") * 1e6
                                  / rotate_spans if rotate_spans else 0.0),
        "core.bitmap.rotations": max(f.stats.rotations for f in plain),
        "core.bitmap.utilization": statistics.fmean(
            f.utilization() for f in plain),
        "core.bitmap_filter.batch_ns": tracer.per("core.bitmap_filter.batch",
                                                  "packets"),
        "core.bitmap_filter.window_self_ns": (
            tracer.self_seconds("core.bitmap_filter.batch") * 1e9 / packets
            if packets else 0.0),
        "core.bitmap_filter.windows_per_batch": (
            tracer.count("core.bitmap_filter.batch", "windows") / batches
            if batches else 0.0),
        "core.hybrid.confirm_ns": (
            tracer.self_seconds("core.hybrid.batch") * 1e9 / hybrid_packets
            if hybrid_packets else 0.0),
        "core.hybrid.lookups": lookups,
        "core.hybrid.confirmed": confirmed,
        "core.hybrid.confirm_ratio": confirmed / lookups if lookups else 0.0,
        "core.cuckoo.occupancy": sum(f.table.occupancy for f in hybrid),
        "core.cuckoo.kicks": sum(c["kicks"] for c in table),
        "core.cuckoo.grows": sum(c["grows"] for c in table),
    }


# -- processes ----------------------------------------------------------------

def stop_process(process: subprocess.Popen, timeout: float = 10.0) -> None:
    """SIGTERM, then SIGKILL; returns only once the process has ended."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
    process.wait()


def _drain(process: subprocess.Popen) -> None:
    for _ in process.stdout:
        pass


def spawn_daemon(inputs: Inputs, stack: str) -> subprocess.Popen:
    command = [sys.executable, "-m", "repro", "serve",
               "--protected", inputs.protected_cidrs,
               "--port", "0", "--http-port", "0", "--clock", "packet",
               *inputs.serve_args(stack)]
    return subprocess.Popen(command, text=True, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)


def await_ready(process: subprocess.Popen) -> dict:
    timer = threading.Timer(READY_TIMEOUT_S, process.kill)
    timer.start()
    try:
        for line in process.stdout:
            if line.startswith(READY_PREFIX):
                break
        else:
            raise RuntimeError(f"daemon exited before READY "
                               f"(rc={process.poll()})")
    finally:
        timer.cancel()
    threading.Thread(target=_drain, args=(process,), daemon=True).start()
    return json.loads(line[len(READY_PREFIX):])


def scrape(base_url: str) -> Dict[str, float]:
    """The daemon counters the benchmark reports, from ``/metrics``."""
    with urllib.request.urlopen(base_url + "/metrics", timeout=10) as response:
        samples = parse_prometheus(response.read().decode())
    out = {"batch_seconds": 0.0, "batches": 0.0, "frames": 0.0, "shed": 0.0}
    for s in samples:
        if s.name == "repro_serve_batch_seconds_sum":
            out["batch_seconds"] += s.value
        elif s.name == "repro_serve_batches_total":
            out["batches"] += s.value
        elif (s.name == "repro_serve_frames_total"
              and s.labels.get("type") == "packets"):
            out["frames"] += s.value
        elif s.name == "repro_serve_shed_frames_total":
            out["shed"] += s.value
    return out


def scrape_all(urls: List[str], run: "StackRun") -> Optional[Dict[str, float]]:
    """Summed counters of every daemon, or None (noted) if one is down."""
    total: Dict[str, float] = defaultdict(float)
    for url in urls:
        try:
            for key, value in scrape(url).items():
                total[key] += value
        except OSError as exc:
            run.errors.append(f"{url}/metrics unreachable: {exc}")
            return None
    return total


def daemon_layer(run: "StackRun", before: Optional[Dict[str, float]],
                 after: Optional[Dict[str, float]], daemons: int) -> None:
    """serve.daemon.* metrics of one stack from its counters' deltas."""
    if before is None or after is None:
        return
    delta = {k: after[k] - before[k] for k in after}
    run.frames_failed += int(delta["shed"])
    latencies = [x for c in run.chunks for x in c.latencies]
    batches = delta["batches"] or 1.0
    run.layer.update({
        "serve.daemon.busy_frac": (delta["batch_seconds"]
                                   / (run.seconds * daemons)
                                   if run.seconds else 0.0),
        "serve.daemon.frames_per_batch": delta["frames"] / batches,
        "serve.daemon.wait_us": (
            (statistics.fmean(latencies) - delta["batch_seconds"] / batches)
            * 1e6 if latencies else 0.0),
    })


# -- paths --------------------------------------------------------------------

class Path:
    """Set-up, chunked replay and teardown of one path, both stacks."""

    #: Whether the host speed is probed on every CPU (calibrate.py): yes
    #: where daemons do the work, no where this process does it alone.
    ALL_CPUS = False

    def __init__(self, inputs: Inputs, workdir: str):
        self.inputs = inputs
        self.workdir = workdir
        self.runs = {stack: StackRun() for stack in STACKS}

    def setup(self) -> List[float]:
        """Set up ``SETUP_TRIALS`` times; the last one stays up."""
        times = []
        for trial in range(SETUP_TRIALS):
            if trial:
                self.close()
            times.append(self.setup_once())
        return times

    def replay(self, seconds: float, traced: bool,
               tracer: Optional[Tracer]) -> None:
        budget = seconds / len(STACKS)
        index = 0
        clock = HostClock(all_cpus=self.ALL_CPUS)
        while True:
            pending = [s for s in STACKS if not self.runs[s].exhausted
                       and self.runs[s].seconds < budget]
            if not pending:
                return
            for stack in pending:
                trace_this = traced and index % 2 == 0
                chunk = self.chunk(stack, budget - self.runs[stack].seconds,
                                   tracer if trace_this else None)
                speed = clock.speed()
                if chunk is not None and chunk.packets:
                    chunk.speed = speed
                    self.runs[stack].chunks.append(chunk)
            index += 1

    def setup_once(self) -> float:
        raise NotImplementedError

    def daemon_boot_s(self) -> float:
        """Median daemon spawn-to-READY time (0 without daemons)."""
        return 0.0

    def chunk(self, stack: str, budget: float,
              tracer: Optional[Tracer]) -> Optional[Chunk]:
        raise NotImplementedError

    def close(self) -> None:
        pass


_SETUP_PROBE = """
import json, sys
from repro.core.bitmap_filter import FilterConfig
from repro.core.filter_api import build_filter
from repro.core.hybrid import VerifySpec
from repro.net.address import AddressSpace
geometry, cidrs, start = json.loads(sys.argv[1])
protected = AddressSpace(cidrs.split(","))
for layers in ((), (VerifySpec(),)):
    build_filter(FilterConfig(**geometry, layers=layers), protected,
                 start_time=start)
print("READY", flush=True)
"""


class OfflinePath(Path):
    def __init__(self, inputs: Inputs, workdir: str):
        super().__init__(inputs, workdir)
        self.replays: Dict[str, Replay] = {}

    def setup_once(self) -> float:
        cfg = self.inputs.filter_config("plain")
        geometry = {"order": cfg.order, "num_vectors": cfg.num_vectors,
                    "num_hashes": cfg.num_hashes,
                    "rotation_interval": cfg.rotation_interval,
                    "seed": cfg.seed}
        arg = json.dumps([geometry, self.inputs.protected_cidrs,
                          self.inputs.start_time])
        began = perf_counter()
        process = subprocess.Popen([sys.executable, "-c", _SETUP_PROBE, arg],
                                   text=True, stdout=subprocess.PIPE)
        try:
            line = process.stdout.readline()
            elapsed = perf_counter() - began
        finally:
            stop_process(process)
        if line.strip() != "READY":
            raise RuntimeError("offline set-up probe failed")
        return elapsed

    def chunk(self, stack, budget, tracer):
        inputs = self.inputs
        replay = offline_replay(
            inputs, stack, inputs.batches, start_time=inputs.start_time,
            warm=inputs.warm, tracer=tracer)
        run = self.runs[stack]
        run.verdicts.extend(replay.verdicts)
        run.frames_attempted += len(replay.verdicts)
        self.replays[stack] = replay
        packets = sum(len(b) for b in inputs.batches)
        return Chunk(packets, replay.wall, replay.latencies,
                     tracer is not None)


class ServedPath(Path):
    """One packet-clock daemon per stack, driven over TCP loopback."""

    ALL_CPUS = True

    def __init__(self, inputs: Inputs, workdir: str):
        super().__init__(inputs, workdir)
        self.processes: Dict[str, subprocess.Popen] = {}
        self.clients: Dict[str, FilterClient] = {}
        self.http: Dict[str, str] = {}
        self.position = {stack: 0 for stack in STACKS}
        self.boot_s: List[float] = []

    def setup_once(self) -> float:
        began = perf_counter()
        for stack in STACKS:
            self.processes[stack] = spawn_daemon(self.inputs, stack)
        for stack in STACKS:
            info = await_ready(self.processes[stack])
            self.boot_s.append(perf_counter() - began)
            host, port = info["data"]
            self.http[stack] = "http://{}:{}".format(*info["http"])
            self.clients[stack] = FilterClient.connect(host, port)
        return perf_counter() - began

    def daemon_boot_s(self) -> float:
        return statistics.median(self.boot_s)

    def replay(self, seconds, traced, tracer):
        before = {s: scrape_all([self.http[s]], self.runs[s]) for s in STACKS}
        super().replay(seconds, traced, tracer)
        for stack in STACKS:
            run = self.runs[stack]
            daemon_layer(run, before[stack],
                         scrape_all([self.http[stack]], run), 1)

    def chunk(self, stack, budget, tracer):
        frames = self.inputs.batches
        run = self.runs[stack]
        start = self.position[stack]
        if start >= len(frames):
            run.exhausted = True
            return None
        deadline = perf_counter() + min(budget, CHUNK_SECONDS)
        window = self.inputs.workload.window
        sends: List[float] = []

        def outgoing():
            # Every chunk sends at least one frame, so a replay always ends.
            i = start
            while i < len(frames) and (i == start or perf_counter() < deadline):
                frame = frames[i]
                if tracer is not None:
                    _protocol_twin(tracer, frame)
                sends.append(perf_counter())
                yield frame
                i += 1

        latencies = []
        try:
            stream = self.clients[stack].filter_stream(outgoing(),
                                                       window=window)
            for mask in stream:
                latencies.append(perf_counter() - sends[len(latencies)])
                run.verdicts.append(mask)
                if tracer is not None:
                    _verdicts_twin(tracer, mask)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            run.errors.append(f"{type(exc).__name__}: {exc}")
            run.frames_failed += len(sends) - len(latencies)
            run.exhausted = True
        run.frames_attempted += len(sends)
        self.position[stack] = start + len(sends)
        if not latencies:
            return None
        packets = sum(len(frames[start + i]) for i in range(len(latencies)))
        seconds = sends[len(latencies) - 1] + latencies[-1] - sends[0]
        return Chunk(packets, seconds, latencies, tracer is not None)

    def close(self):
        for stack, client in list(self.clients.items()):
            try:
                client.goodbye(timeout=5.0)
            except Exception:  # noqa: BLE001 - closing anyway
                pass
            client.close()
        self.clients.clear()
        for process in self.processes.values():
            stop_process(process)
        self.processes.clear()


def _protocol_twin(tracer: Tracer, frame: PacketArray) -> None:
    n = len(frame)
    with tracer.span("serve.protocol.encode_packets", packets=n):
        wire = protocol.encode_packets(frame)
    with tracer.span("serve.protocol.decode_packets", packets=n):
        protocol.decode_packets(wire[5:])


def _verdicts_twin(tracer: Tracer, mask: np.ndarray) -> None:
    with tracer.span("serve.protocol.verdicts", packets=len(mask)):
        protocol.decode_verdicts(protocol.encode_verdicts(mask)[5:])


class FleetPath(Path):
    """One ``FleetManager`` fleet per stack behind a ``FleetRouter``."""

    ALL_CPUS = True

    def __init__(self, inputs: Inputs, workdir: str):
        super().__init__(inputs, workdir)
        self.managers: Dict[str, FleetManager] = {}
        self.routers: Dict[str, FleetRouter] = {}
        self.position = {stack: 0 for stack in STACKS}
        self.boot_s: List[float] = []
        self.specs: Dict[str, list] = {}
        self.trial = 0

    def owners(self, stack: str, packets: PacketArray) -> np.ndarray:
        """Ring owner per packet (a router does not connect until used)."""
        return FleetRouter(self.specs[stack],
                           protected=self.inputs.protected).owners(packets)

    def _manager(self, stack: str) -> FleetManager:
        scale = self.inputs.scale
        self.trial += 1
        return FleetManager(
            self.inputs.protected_cidrs, size=self.inputs.workload.fleet_size,
            workdir=os.path.join(self.workdir, f"fleet-{stack}-{self.trial}"),
            clock="packet", order=scale.bitmap_order,
            num_vectors=scale.num_vectors, num_hashes=scale.num_hashes,
            rotation_interval=scale.rotation_interval,
            hash_seed=self.inputs.seed,
            filter_kind="hybrid" if stack == "hybrid" else "bitmap",
            ready_timeout=READY_TIMEOUT_S)

    def setup_once(self) -> float:
        began = perf_counter()
        specs, errors = {}, []

        def start(stack: str, manager: FleetManager) -> None:
            try:
                specs[stack] = manager.start()
                self.boot_s.append(perf_counter() - began)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        for stack in STACKS:
            self.managers[stack] = self._manager(stack)
        threads = [threading.Thread(target=start, args=(s, m))
                   for s, m in self.managers.items()]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        self.specs = specs
        for stack in STACKS:
            self.routers[stack] = FleetRouter(specs[stack],
                                              protected=self.inputs.protected)
            self.routers[stack].fleet_config()  # connects to every node
        return perf_counter() - began

    def daemon_boot_s(self) -> float:
        # FleetManager.start() brings its nodes up one after another.
        return statistics.median(self.boot_s) / self.inputs.workload.fleet_size

    def replay(self, seconds, traced, tracer):
        urls = {s: [spec.http_url for spec in self.specs[s]] for s in STACKS}
        before = {s: scrape_all(urls[s], self.runs[s]) for s in STACKS}
        super().replay(seconds, traced, tracer)
        for stack in STACKS:
            run = self.runs[stack]
            daemon_layer(run, before[stack], scrape_all(urls[stack], run),
                         len(urls[stack]))
            registry = self.routers[stack].registry
            counts = [m.value for m in registry.metrics()
                      if m.name == "repro_fleet_packets_total"]
            policy = sum(m.value for m in registry.metrics()
                         if m.name == "repro_fleet_policy_packets_total")
            frame = self.inputs.workload.frame_packets
            run.frames_failed += -(-int(policy) // frame)
            run.layer.update({
                "fleet.router.node_skew": (max(counts) / statistics.fmean(counts)
                                           if counts and sum(counts) else 0.0),
                "fleet.router.failovers": sum(
                    m.value for m in registry.metrics()
                    if m.name == "repro_fleet_failovers_total"),
                "fleet.router.retries": sum(
                    m.value for m in registry.metrics()
                    if m.name == "repro_fleet_retries_total"),
                "fleet.router.policy_packets": policy,
            })

    def chunk(self, stack, budget, tracer):
        frames = self.inputs.batches
        run = self.runs[stack]
        router = self.routers[stack]
        start = self.position[stack]
        if start >= len(frames):
            run.exhausted = True
            return None
        deadline = perf_counter() + min(budget, CHUNK_SECONDS)
        window = self.inputs.workload.window
        latencies, packets, i = [], 0, start
        first = perf_counter()
        while i < len(frames) and (i == start or perf_counter() < deadline):
            group = frames[i:i + FLEET_GROUP * window]
            if tracer is not None:
                for frame in group:
                    with tracer.span("fleet.ring.owners", packets=len(frame)):
                        router.owners(frame)
                    _protocol_twin(tracer, frame)
            run.frames_attempted += len(group)
            began = perf_counter()
            try:
                masks = router.filter_batches(group, window=window)
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                run.errors.append(f"{type(exc).__name__}: {exc}")
                run.frames_failed += len(group)
                run.exhausted = True
                break
            latencies.append(perf_counter() - began)
            run.verdicts.extend(masks)
            if tracer is not None:
                for mask in masks:
                    _verdicts_twin(tracer, mask)
            packets += sum(len(frame) for frame in group)
            i += len(group)
        self.position[stack] = i
        if not latencies:
            return None
        return Chunk(packets, perf_counter() - first, latencies,
                     tracer is not None)

    def close(self):
        for router in self.routers.values():
            router.close()
        self.routers.clear()
        for manager in self.managers.values():
            manager.shutdown(timeout=10.0)
        self.managers.clear()


PATHS = {"offline": OfflinePath, "served": ServedPath, "fleet": FleetPath}


def frames_to_packets(frames: List[PacketArray]) -> PacketArray:
    return PacketArray.concatenate(frames) if frames else PacketArray.empty()
