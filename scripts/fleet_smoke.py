#!/usr/bin/env python
"""End-to-end smoke test for fault-tolerant fleet serving (CI: fleet-smoke).

Exercises the whole fleet surface through the public CLI, the way an
operator would:

1. ``repro route`` — consistent-hash shares for 3 nodes and the minimal
   remap proof when one is dropped.
2. ``repro replay-to --fleet 3 --verify`` — a healthy 3-daemon fleet
   must produce verdicts byte-identical to per-node offline twins
   (each node's share of the trace through a filter of its own).
3. ``repro replay-to --fleet 3 --kill-node 1 --verify`` — SIGKILL one
   daemon mid-replay; the run must complete (no client hangs) and report
   DEGRADED-CONSISTENT: divergence confined to the dead node's flows and
   equal to the fail policy's answer.

With ``--reconfig`` (CI runs this), two more zero-downtime checks:

4. ``repro replay-to --fleet 3 --reconfig-order 13 --verify`` — a
   rolling geometry rebuild mid-replay must stay byte-identical to
   per-node offline twins rebuilding at the same shared boundary.
5. ``repro replay-to --fleet 3 --add-node --verify`` — scaling out
   under load must serve the arrival warm from the snapshot store
   (nonzero restored arrivals) and at worst report DEGRADED-CONSISTENT.

Exits non-zero with a diagnostic on any failure.

Usage: ``make fleet-smoke`` or ``python scripts/fleet_smoke.py
[--reconfig]`` (needs ``repro`` importable — installed or via
``PYTHONPATH=src``).
"""

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path


def fail(message: str) -> "NoReturn":  # noqa: F821 - py<3.11 spelling
    print(f"fleet-smoke: FAIL — {message}", file=sys.stderr)
    sys.exit(1)


def run_cli(*argv: str, timeout: float = 300.0) -> str:
    result = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        text=True, capture_output=True, timeout=timeout)
    sys.stdout.write(result.stdout)
    if result.returncode != 0:
        fail(f"repro {argv[0]} exited {result.returncode}: {result.stderr}")
    return result.stdout


def check_reconfig(trace_path: Path) -> None:
    """Zero-downtime checks: rolling geometry rebuild and warm scale-out."""
    out = run_cli("replay-to", str(trace_path), "--fleet", "3",
                  "--reconfig-order", "13", "--verify")
    if "rolling reconfig: order -> 13" not in out:
        fail("rolling reconfig did not confirm the new geometry")
    if "verify: OK" not in out:
        fail("rolling reconfig broke byte-parity with the offline twin")

    out = run_cli("replay-to", str(trace_path), "--fleet", "3",
                  "--add-node", "--verify")
    if "joined warm" not in out:
        fail("scale-out node did not pre-warm from the snapshot store")
    restored = next((line for line in out.splitlines()
                     if "restored_arrivals=" in line), "")
    if restored.rstrip().endswith("restored_arrivals=0"):
        fail("scale-out node restored zero arrivals — served cold")
    if "verify: OK" not in out and "verify: DEGRADED-CONSISTENT" not in out:
        fail("scale-out replay diverged beyond the stolen share")


def main() -> None:
    from repro.traffic.generator import generate_client_trace

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reconfig", action="store_true",
                        help="also run the zero-downtime reconfig and "
                             "scale-out checks")
    args = parser.parse_args()

    workdir = Path(tempfile.mkdtemp(prefix="fleet-smoke-"))
    trace = generate_client_trace(duration=60.0, target_pps=800.0, seed=7)
    trace_path = workdir / "trace.npz"
    trace.save_npz(trace_path)
    print(f"fleet-smoke: generated {len(trace.packets):,}-packet trace")

    out = run_cli("route", "--nodes", "node0,node1,node2",
                  "--trace", str(trace_path), "--drop", "node1")
    if "(minimal remap)" not in out:
        fail("repro route --drop did not prove minimal remap")

    out = run_cli("replay-to", str(trace_path), "--fleet", "3", "--verify")
    if "verify: OK" not in out:
        fail("healthy fleet did not match its per-node offline twins")

    out = run_cli("replay-to", str(trace_path), "--fleet", "3",
                  "--kill-node", "1", "--kill-at", "0.5", "--verify")
    if "verify: DEGRADED-CONSISTENT" not in out:
        fail("node-kill replay did not degrade policy-consistently")

    summary = "minimal remap, healthy parity, policy-consistent failover"
    if args.reconfig:
        check_reconfig(trace_path)
        summary += ", zero-downtime reconfig, warm scale-out"
    print(f"fleet-smoke: PASS — {summary}")


if __name__ == "__main__":
    main()
