"""Packet-path benchmark: offline, served and fleet; plain and hybrid stacks.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it, prefixed ``RECORD``, holds the whole
result (seed, source revision, versions, trace sizes, accuracy); it is
also written under ``.bench_build/perfbench/``.  README.md in this
directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path as FsPath

import numpy as np

ROOT = FsPath(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

LAYER_ON_PATH = {
    # Per-layer metrics of layers a path does not cross read 0 there.
    "serve.": ("served", "fleet"),
    "fleet.": ("fleet",),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunk traces, for the benchmark's own tests")
    return parser.parse_args(argv)


def source_revision() -> dict:
    """Git sha when the checkout is a repository, and a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


#: Latencies are cut in time order into groups of at least this many
#: samples, so a group's p99 has ten samples beyond it.  The reported p99
#: is the median over groups: one stalled second of a shared machine does
#: not set it.
P99_GROUP = 1000


def quantile(values, q: int) -> float:
    """The q-th percentile cut point (statistics.quantiles, n=100)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def p99(values) -> float:
    groups = max(1, len(values) // P99_GROUP)
    return statistics.median(quantile(list(g), 99)
                             for g in np.array_split(values, groups))


def throughput(chunks, reference: bool = True) -> float:
    """Packets judged per second over the chunks' replay time.

    In reference seconds (calibrate.py) by default, else in wall seconds.
    """
    seconds = sum(c.seconds * (c.speed if reference else 1.0) for c in chunks)
    return sum(c.packets for c in chunks) / seconds if seconds else 0.0


def stack_summary(run) -> dict:
    untraced = [c for c in run.chunks if not c.traced]
    traced = [c for c in run.chunks if c.traced]
    latencies = [x for c in untraced for x in c.latencies]
    return {
        "pps": throughput(untraced),
        "wall_pps": throughput(untraced, reference=False),
        "host_speed": statistics.median(c.speed for c in untraced)
        if untraced else 0.0,
        "traced_pps": throughput(traced),
        "batch_p50_ms": quantile(latencies, 50) * 1e3,
        "batch_p99_ms": p99(latencies) * 1e3,
        "latency_samples": len(latencies),
        "chunks": len(untraced),
        "chunk_pps": [round(c.pps) for c in run.chunks],
        "packets": sum(c.packets for c in run.chunks),
        "frames_attempted": run.frames_attempted,
        "frames_failed": run.frames_failed,
        "errors": run.errors[:5],
    }


def run_workload(args, bench: dict) -> dict:
    import paths
    import verify
    from tracer import Tracer
    from workloads import STACKS, WORKLOADS, describe, inbound_accuracy, \
        make_inputs

    workload = WORKLOADS[args.workload]
    inputs = make_inputs(workload, args.seed, tiny=args.tiny)
    # The load generator's heap is left out of collector passes, so its
    # size does not show up as pauses in the measured batches.
    gc.collect()
    gc.freeze()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    path = paths.PATHS[workload.path](inputs, str(workdir))
    try:
        setup_times = path.setup()
        path.replay(args.seconds, bool(args.trace), tracer)
    finally:
        path.close()
        shutil.rmtree(workdir, ignore_errors=True)

    # -- verdict checks, outside the timed region ----------------------------
    failed, self_tests, references, twins, states = 0, [], {}, {}, []
    for stack in STACKS:
        run = path.runs[stack]
        if workload.path == "offline":
            reference, state = verify.scalar_reference(inputs, stack)
            reps = len(run.verdicts) // max(1, len(reference))
            expected = reference * reps
            twins[stack] = [path.replays[stack]]
            states += [state] if state is not None else []
            judged = inputs.batches
        else:
            judged = inputs.batches[:len(run.verdicts)]
            owners = (path.owners(stack, paths.frames_to_packets(judged))
                      if workload.path == "fleet" else None)
            mask, twins[stack] = verify.batch_reference(
                inputs, stack, judged, owners, tracer)
            states += [r.state for r in twins[stack] if r.state is not None]
            expected = verify.split_like(mask, judged)
        failed += verify.mismatched_frames(run.verdicts, expected)
        failed += run.frames_failed
        self_tests.append(verify.self_test(expected))
        references[stack] = (judged, expected[:len(judged)])

    attempted = sum(path.runs[s].frames_attempted for s in STACKS)
    judged, expected = references["plain"]
    accuracy = inbound_accuracy(
        inputs, paths.frames_to_packets(list(judged)),
        np.concatenate(expected) if expected else np.zeros(0, dtype=bool))
    summaries = {stack: stack_summary(path.runs[stack]) for stack in STACKS}
    plain, hybrid = summaries["plain"], summaries["hybrid"]

    end_to_end = {
        "pps": plain["pps"],
        "batch_p50_ms": plain["batch_p50_ms"],
        "batch_p99_ms": plain["batch_p99_ms"],
        "hybrid_pps": hybrid["pps"],
        "hybrid_batch_p50_ms": hybrid["batch_p50_ms"],
        "hybrid_batch_p99_ms": hybrid["batch_p99_ms"],
        "setup_s": statistics.median(setup_times),
        "hybrid_state_kib": sum(s.live for s in states) / 1024,
    }
    quality = {
        "fail_frac": failed / attempted if attempted else 1.0,
        "attack_admit_frac": (accuracy["attack_admitted"]
                              / accuracy["attack_inbound"]
                              if accuracy["attack_inbound"] else 0.0),
        "normal_drop_frac": (accuracy["normal_dropped"]
                             / accuracy["normal_inbound"]
                             if accuracy["normal_inbound"] else 0.0),
    }

    per_layer = {}
    if tracer is not None:
        per_layer.update(paths.filter_layer_metrics(
            tracer, [r.filter for r in twins["plain"]],
            [r.filter for r in twins["hybrid"]]))
        per_layer.update(path.runs["plain"].layer)
        frames = sum(1 for s in tracer.spans
                     if s.name == "serve.protocol.encode_packets")
        protocol_s = sum(tracer.total(f"serve.protocol.{name}") for name in
                         ("encode_packets", "decode_packets", "verdicts"))
        per_layer.update({
            "serve.protocol.encode_packets_ns": tracer.per(
                "serve.protocol.encode_packets", "packets"),
            "serve.protocol.decode_packets_ns": tracer.per(
                "serve.protocol.decode_packets", "packets"),
            "serve.protocol.verdicts_ns": tracer.per(
                "serve.protocol.verdicts", "packets"),
            "serve.protocol.frame_us": protocol_s * 1e6 / frames if frames else 0.0,
            "fleet.ring.owners_ns": tracer.per("fleet.ring.owners", "packets"),
            "serve.daemon.boot_s": path.daemon_boot_s(),
            "traffic.gen_s": inputs.gen_s,
            "trace.overhead_frac": (plain["pps"] / plain["traced_pps"] - 1.0
                                    if plain["pps"] and plain["traced_pps"]
                                    else 0.0),
        })
        if workload.path == "fleet":
            per_layer["fleet.manager.boot_s"] = statistics.median(path.boot_s)
            hybrid_layer = path.runs["hybrid"].layer
            for key in ("fleet.router.failovers", "fleet.router.retries",
                        "fleet.router.policy_packets"):
                per_layer[key] += hybrid_layer.get(key, 0)
        per_layer.update(quality)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")

    correct = failed == 0 and all(self_tests) and not any(
        path.runs[s].errors for s in STACKS)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = {**end_to_end, **per_layer}
    metrics = {}
    for spec in wanted:
        name = spec["name"]
        value = values.get(name)
        if value is None:
            prefix = next((p for p in LAYER_ON_PATH if name.startswith(p)), None)
            if prefix is None or workload.path in LAYER_ON_PATH[prefix]:
                raise RuntimeError(f"metric {name} was not measured")
            value = 0.0
        metrics[name] = {"value": float(value), "unit": spec["unit"]}

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        **source_revision(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        **describe(inputs),
        "traffic.gen_s": inputs.gen_s,
        "setup_trials_s": setup_times,
        "hybrid_allocated_kib": sum(s.allocated for s in states) / 1024,
        "stacks": summaries, **quality, **accuracy,
        "self_test_caught_flip": all(self_tests),
        "end_to_end": end_to_end, "per_layer": per_layer,
    }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "record": record}


def main(argv=None) -> int:
    args = parse_args(argv)
    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not bench_file.is_file():
        print("perfbench: run from the repository root (needs src/repro and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so the daemons are stopped on the way out.
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    result = run_workload(args, bench)
    record = result.pop("record")
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**result, "record": record}, indent=1))
    for stack, s in record["stacks"].items():
        print(f"{args.workload} {stack:6s} {s['pps']:12,.0f} pkt/s "
              f"({s['wall_pps']:,.0f} wall, host speed {s['host_speed']:.2f})"
              f"  p50 {s['batch_p50_ms']:.3f} ms  p99 {s['batch_p99_ms']:.3f} ms"
              f"  ({s['latency_samples']} samples, {s['chunks']} chunks)")
    print("RECORD " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
