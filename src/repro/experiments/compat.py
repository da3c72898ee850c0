"""Section 5.1 compatibility: active-mode protocols through the filter.

The bitmap filter is transparent to client-initiated protocols (HTTP, SMTP,
POP3/IMAP, passive FTP, telnet, SSH) but breaks protocols where the *remote*
side opens a data channel — active-mode FTP and P2P.  The fix is hole
punching: before expecting the inbound connection, the client sends one
packet from the soon-to-be-listening port toward the server.

This experiment builds a population of active-FTP-style sessions on top of
the normal workload and measures, with and without hole punching:

- the inbound data-channel admission rate (broken vs fixed),
- that client-initiated traffic is untouched either way,
- that punching stays effective only within Te (a late server connect
  still fails — the paper's security argument for expiring holes).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.analysis.report import render_table
from repro.core.filter_api import build_filter
from repro.core.hole_punch import hole_punch_packet
from repro.experiments.config import SMALL, ExperimentScale
from repro.experiments.fig2 import generate_trace
from repro.net.packet import Packet, PacketArray, TcpFlags
from repro.net.protocols import IPPROTO_TCP, PORT_FTP, PORT_FTP_DATA
from repro.traffic.trace import Trace


@dataclass
class CompatResult:
    sessions: int
    data_channel_success_without_punch: float
    data_channel_success_with_punch: float
    late_connect_success_with_punch: float
    normal_fp_without_punch: float
    normal_fp_with_punch: float

    def report(self) -> str:
        rows = [
            ["inbound data channel (no punching)", f"{self.data_channel_success_without_punch * 100:.1f}%"],
            ["inbound data channel (hole punched)", f"{self.data_channel_success_with_punch * 100:.1f}%"],
            ["inbound connect > Te after punch", f"{self.late_connect_success_with_punch * 100:.1f}%"],
            ["collateral FP on normal traffic (no punching)", f"{self.normal_fp_without_punch * 100:.2f}%"],
            ["collateral FP on normal traffic (punching)", f"{self.normal_fp_with_punch * 100:.2f}%"],
        ]
        return render_table(
            ["scenario", "success/penetration"],
            rows,
            title=f"Section 5.1 compatibility — {self.sessions} active-FTP sessions:",
        )


def _active_ftp_sessions(
    protected, rng: random.Random, count: int, duration: float,
    punch: bool, expiry_timer: float, late: bool = False,
) -> Tuple[List[Packet], List[int]]:
    """Active-FTP-style sessions; returns (packets, data-SYN indices)."""
    packets: List[Packet] = []
    data_indices: List[int] = []
    clients = protected.hosts(per_network=10)
    for i in range(count):
        t0 = rng.uniform(5.0, duration * 0.6)
        client = rng.choice(clients)
        server = 0xC6336401 + i  # 198.51.100.x block, outside the client nets
        ctrl_port = 30_000 + i
        data_port = 40_000 + i
        # Control channel: client connects to server:21.
        ctrl_syn = Packet(t0, IPPROTO_TCP, client, ctrl_port, server, PORT_FTP,
                          TcpFlags.SYN, 48)
        packets.append(ctrl_syn)
        packets.append(ctrl_syn.reply(t0 + 0.03, TcpFlags.SYN | TcpFlags.ACK))
        packets.append(Packet(t0 + 0.035, IPPROTO_TCP, client, ctrl_port,
                              server, PORT_FTP, TcpFlags.ACK, 40))
        # The client announces PORT data_port; optionally punches the hole.
        if punch:
            packets.append(hole_punch_packet(t0 + 0.1, IPPROTO_TCP, client,
                                             data_port, server,
                                             random_port=50_000 + i))
        # The server's active connect from port 20, either promptly or after
        # the hole has expired (for the late-connect scenario).
        delay = expiry_timer + 8.0 if late else rng.uniform(0.2, 2.0)
        data_syn = Packet(t0 + 0.1 + delay, IPPROTO_TCP, server, PORT_FTP_DATA,
                          client, data_port, TcpFlags.SYN, 48)
        data_indices.append(len(packets))
        packets.append(data_syn)
    return packets, data_indices


def _run_scenario(
    scale: ExperimentScale, trace: Trace, punch: bool, late: bool = False,
) -> Tuple[float, float]:
    """Returns (data-channel success rate, normal-traffic FP rate)."""
    rng = random.Random(scale.seed ^ 0xF7B)
    expiry = scale.expiry_timer
    ftp_packets, data_indices = _active_ftp_sessions(
        trace.protected, rng, count=60, duration=scale.duration,
        punch=punch, expiry_timer=expiry, late=late,
    )
    ftp = PacketArray.from_packets(ftp_packets)
    mixed = trace.merged_with(Trace(ftp, trace.protected,
                                    {"duration": trace.duration}))

    # Track the data-channel SYNs through the merged ordering by key.
    data_keys = {
        (p.src, p.sport, p.dst, p.dport, round(p.ts, 6))
        for p in (ftp_packets[i] for i in data_indices)
    }
    filt = build_filter(scale.filter_config(), trace.protected)
    verdicts = filt.process_batch(mixed.packets)

    packets = mixed.packets
    is_data_syn = np.zeros(len(packets), dtype=bool)
    for i in range(len(packets)):
        key = (int(packets.src[i]), int(packets.sport[i]),
               int(packets.dst[i]), int(packets.dport[i]),
               round(float(packets.ts[i]), 6))
        if key in data_keys:
            is_data_syn[i] = True
    assert int(is_data_syn.sum()) == len(data_indices)

    success = float(verdicts[is_data_syn].mean())
    normal_incoming = (
        (packets.label == 0)
        & (packets.directions(trace.protected) == 1)
        & ~is_data_syn
    )
    fp = float((~verdicts[normal_incoming]).mean())
    return success, fp


def run_compat(scale: ExperimentScale = SMALL, trace: Trace = None) -> CompatResult:
    if trace is None:
        trace = generate_trace(scale)
    broken, fp_without = _run_scenario(scale, trace, punch=False)
    fixed, fp_with = _run_scenario(scale, trace, punch=True)
    late, _ = _run_scenario(scale, trace, punch=True, late=True)
    return CompatResult(
        sessions=60,
        data_channel_success_without_punch=broken,
        data_channel_success_with_punch=fixed,
        late_connect_success_with_punch=late,
        normal_fp_without_punch=fp_without,
        normal_fp_with_punch=fp_with,
    )


def run(scale=SMALL):
    """Uniform experiment entry point (see repro.experiments.registry)."""
    return run_compat(scale)
