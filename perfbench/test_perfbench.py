"""The benchmark's own fast tests (shrunk traces; about a minute).

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calibrate  # noqa: E402
import paths  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402


def bench_run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload, trace):
    done = bench_run("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    specs = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {s["name"]: s["unit"] for s in specs}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_flipped_verdict_is_caught():
    reference = [np.array([True, False, True]), np.array([False, True])]
    assert verify.self_test(reference)
    flipped = [r.copy() for r in reference]
    flipped[1][0] = True
    assert verify.mismatched_frames(flipped, reference) == 1
    assert verify.mismatched_frames(reference, reference) == 0


@pytest.mark.parametrize("workload", ["served-small", "fleet"])
def test_streamed_frames_move_forward_in_time(workload):
    # A packet-clock daemon takes time from the packets; every pass of a
    # streamed trace must come after the one before.
    inputs = make_inputs(WORKLOADS[workload], 3, tiny=True)
    ts = np.concatenate([frame.ts for frame in inputs.batches])
    assert np.all(np.diff(ts) >= 0)
    assert len(ts) == WORKLOADS[workload].passes * len(inputs.packets)


def test_reference_seconds_cancel_host_speed():
    # The same 1000 packets: on a host twice as fast they take half the
    # wall time, and read the same in reference seconds.
    slow = paths.Chunk(1000, 1.0, [], False, speed=1.0)
    fast = paths.Chunk(1000, 0.5, [], False, speed=2.0)
    assert run.throughput([slow]) == pytest.approx(run.throughput([fast]))
    assert run.throughput([fast], reference=False) == pytest.approx(2000.0)
    assert run.throughput([slow, fast], reference=False) == \
        pytest.approx(2000 / 1.5)


def test_host_clock_measures_every_interval():
    clock = calibrate.HostClock()
    assert clock.speed() > 0 and clock.speed() > 0
    assert len(clock.rates) == 3


@pytest.mark.parametrize("workload,path_cls",
                         [("served-small", paths.ServedPath),
                          ("fleet", paths.FleetPath)])
def test_processes_stopped_when_a_run_fails(workload, path_cls, monkeypatch):
    spawned = []

    class Recording(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            spawned.append(self)

    def broken_chunk(self, stack, budget, tracer):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(subprocess, "Popen", Recording)
    monkeypatch.setattr(path_cls, "chunk", broken_chunk)
    handler = signal.getsignal(signal.SIGTERM)
    try:
        with pytest.raises(RuntimeError, match="injected failure"):
            run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                      "--tiny"])
    finally:
        signal.signal(signal.SIGTERM, handler)
    assert spawned, "the run spawned no daemon"
    assert all(p.poll() is not None for p in spawned)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench_run("--workload", "scan", "--seed", "1", "--seconds", "1",
                     cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
