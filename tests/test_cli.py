"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_experiments_registered(self):
        parser = build_parser()
        for name in ("fig2a", "fig2b", "fig2c", "table1", "capacity", "fig4",
                     "fig5", "insider", "apd", "sweep", "worm", "aggregate", "timing",
                     "compat", "robustness", "throttle", "collusion", "all"):
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_scale_choices(self):
        parser = build_parser()
        args = parser.parse_args(["fig4", "--scale", "small"])
        assert args.scale == "small"
        with pytest.raises(SystemExit):
            parser.parse_args(["fig4", "--scale", "huge"])

    def test_experiment_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExecution:
    def test_capacity_runs(self, capsys):
        assert main(["capacity"]) == 0
        out = capsys.readouterr().out
        assert "512 KB" in out
        assert "167K" in out

    def test_sweep_runs(self, capsys):
        assert main(["sweep"]) == 0
        out = capsys.readouterr().out
        assert "Eq.(2)" in out

    def test_fig2_small_runs(self, capsys):
        assert main(["fig2c", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "delay frac < 2.8 s" in out


@pytest.mark.telemetry
class TestStatsCommand:
    def test_stats_inline_sections(self, capsys):
        assert main(["stats", "--experiment", "capacity"]) == 0
        out = capsys.readouterr().out
        assert "--- prometheus ---" in out
        assert "--- jsonl ---" in out

    def test_stats_fig5_exports_per_interval_series(self, capsys, tmp_path):
        import json

        prom_path = tmp_path / "metrics.prom"
        jsonl_path = tmp_path / "series.jsonl"
        assert main(["stats", "--experiment", "fig5", "--scale", "small",
                     "--every", "50", "--prom-out", str(prom_path),
                     "--jsonl-out", str(jsonl_path)]) == 0
        out = capsys.readouterr().out
        assert "penetration" in out.lower() or "utilization" in out.lower()

        prom = prom_path.read_text()
        assert "# TYPE repro_filter_admits_total counter" in prom
        assert "# TYPE repro_filter_rotations_total counter" in prom
        assert 'repro_filter_drops_total{path="exact_batch"}' in prom
        assert "repro_filter_rotation_seconds_bucket" in prom
        for line in prom.splitlines():
            if line and not line.startswith("#"):
                float(line.rsplit(" ", 1)[1])

        rows = [json.loads(line)
                for line in jsonl_path.read_text().splitlines()]
        assert len(rows) > 10  # one row per Δt rotation tick
        assert all({"ts", "counters", "deltas", "gauges"} <= set(row)
                   for row in rows)
        admit_key = 'repro_filter_admits_total{path="exact_batch"}'
        assert sum(row["deltas"].get(admit_key, 0) for row in rows) > 0

    def test_stats_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "--experiment", "nope"])


class TestTraceTools:
    def test_trace_gen_and_info(self, capsys, tmp_path):
        out = tmp_path / "t.npz"
        assert main(["trace-gen", "--duration", "10", "--pps", "150",
                     "--seed", "3", "--out", str(out)]) == 0
        assert out.exists()
        assert main(["trace-info", str(out)]) == 0
        text = capsys.readouterr().out
        assert "packets" in text
        assert "172.16.0.0/24" in text

    def test_trace_gen_pcap_export(self, capsys, tmp_path):
        out = tmp_path / "t.npz"
        pcap = tmp_path / "t.pcap"
        assert main(["trace-gen", "--duration", "5", "--pps", "100",
                     "--out", str(out), "--pcap", str(pcap)]) == 0
        from repro.net.pcap import read_pcap, verify_checksums

        loaded = read_pcap(pcap)
        assert len(loaded) > 50
        assert verify_checksums(pcap) == len(loaded)


class TestExport:
    def test_export_writes_all_figures(self, capsys, tmp_path):
        out = tmp_path / "figs"
        assert main(["export", "--out", str(out), "--scale", "small"]) == 0
        expected = {
            "fig2a_lifetime_hist.csv", "fig2b_delay_hist.csv",
            "fig2c_delay_cdf.csv", "fig4_scatter.csv", "fig5a_series.csv",
            "fig5b_filter_rate.csv", "worm_curve.csv",
        }
        assert {p.name for p in out.iterdir()} == expected
        # CDF file is monotone and ends at 1.0.
        import csv

        with (out / "fig2c_delay_cdf.csv").open() as fh:
            rows = list(csv.reader(fh))[1:]
        ys = [float(r[1]) for r in rows]
        assert ys == sorted(ys)
        assert ys[-1] == 1.0


class TestFilterCommand:
    def test_filter_npz(self, capsys, tmp_path):
        trace_path = tmp_path / "t.npz"
        out_path = tmp_path / "filtered.npz"
        main(["trace-gen", "--duration", "10", "--pps", "200", "--seed", "2",
              "--out", str(trace_path)])
        capsys.readouterr()
        assert main(["filter", str(trace_path), "--order", "13",
                     "--out", str(out_path)]) == 0
        text = capsys.readouterr().out
        assert "incoming drop rate" in text
        from repro.traffic.trace import Trace

        filtered = Trace.load_npz(out_path)
        original = Trace.load_npz(trace_path)
        assert 0 < len(filtered) <= len(original)

    def test_filter_pcap_requires_protected(self, tmp_path):
        pcap = tmp_path / "t.pcap"
        pcap.write_bytes(b"")
        with pytest.raises(SystemExit):
            main(["filter", str(pcap)])

    def test_pcap_and_npz_paths_agree(self, capsys, tmp_path):
        """The same trace filtered from either format gives identical stats."""
        npz = tmp_path / "t.npz"
        pcap = tmp_path / "t.pcap"
        main(["trace-gen", "--duration", "10", "--pps", "200", "--seed", "2",
              "--out", str(npz), "--pcap", str(pcap)])
        capsys.readouterr()
        main(["filter", str(npz), "--order", "13"])
        npz_report = capsys.readouterr().out
        nets = ",".join(f"172.16.{i}.0/24" for i in range(6))
        main(["filter", str(pcap), "--protected", nets, "--order", "13"])
        pcap_report = capsys.readouterr().out
        pick = lambda text: [l for l in text.splitlines() if "drop rate" in l]
        assert pick(npz_report) == pick(pcap_report)


class TestStatsFromUrl:
    def test_fetches_and_summarizes_live_metrics(self, capsys):
        """`repro stats --from-url` pretty-prints a daemon's /metrics page."""
        import http.server
        import threading

        from repro.telemetry import to_prometheus
        from repro.telemetry.registry import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("repro_serve_packets_total", "Packets").inc(1234)
        reg.gauge("repro_serve_queue_depth", "Depth").set(2)
        reg.counter("other_total", "Other").inc(9)
        payload = to_prometheus(reg).encode()

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):
                assert self.path == "/metrics"
                self.send_response(200)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address
            # Bare host:port — the CLI adds the scheme and /metrics path.
            assert main(["stats", "--from-url", f"{host}:{port}",
                         "--prefix", "repro_serve_"]) == 0
        finally:
            server.shutdown()
            thread.join()
        out = capsys.readouterr().out
        assert "repro_serve_packets_total" in out and "1234" in out
        assert "other_total" not in out

    def test_requires_experiment_or_url(self):
        with pytest.raises(SystemExit, match="--experiment NAME or "
                                             "--from-url URL"):
            main(["stats"])


class TestAdvise:
    def test_prints_recommended_geometry(self, capsys):
        assert main(["advise", "-c", "15000"]) == 0
        out = capsys.readouterr().out
        assert "c=15000" in out
        assert "-bitmap" in out and "predicted" in out

    def test_honors_geometry_knobs(self, capsys):
        assert main(["advise", "-c", "500", "--te", "40", "--dt", "10"]) == 0
        out = capsys.readouterr().out
        assert "Te=40s" in out and "dt=10s" in out

    def test_connections_flag_required(self):
        with pytest.raises(SystemExit):
            main(["advise"])


class TestFleetStatsDown:
    @staticmethod
    def _metrics_server():
        import http.server
        import threading

        from repro.telemetry import to_prometheus
        from repro.telemetry.registry import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("repro_serve_packets_total", "Packets").inc(77)
        payload = to_prometheus(reg).encode()

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):
                self.send_response(200)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        return server, thread

    @staticmethod
    def _dead_port():
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            return sock.getsockname()[1]

    def test_one_down_node_is_reported_and_rest_merged(self, capsys):
        server, thread = self._metrics_server()
        try:
            host, port = server.server_address
            dead = self._dead_port()
            assert main(["fleet-stats", "--nodes",
                         f"{host}:{port},{host}:{dead}",
                         "--timeout", "2"]) == 0
        finally:
            server.shutdown()
            thread.join()
        out = capsys.readouterr().out
        assert "1 nodes scraped, 1 DOWN" in out
        assert "DOWN node1" in out
        assert "repro_serve_packets_total" in out and "77" in out

    def test_every_node_down_aborts_with_detail(self):
        dead = self._dead_port()
        with pytest.raises(SystemExit,
                           match="every node unreachable") as excinfo:
            main(["fleet-stats", "--nodes", f"127.0.0.1:{dead}",
                  "--timeout", "2"])
        assert "node0" in str(excinfo.value)


class TestFleetTwins:
    """``replay-to --fleet --verify`` checks each node against a twin of
    its own: a node's bitmap holds only its share's marks."""

    def test_per_node_twins_not_one_filter(self):
        import numpy as np

        from repro.attacks.scanner import RandomScanAttack, ScanConfig
        from repro.cli import _node_twins, _offline_reference
        from repro.core.bitmap_filter import FilterConfig
        from repro.core.filter_api import build_filter
        from repro.fleet import FleetRouter, NodeSpec
        from repro.traffic.generator import generate_client_trace
        from repro.traffic.trace import Trace

        clean = generate_client_trace(duration=30.0, target_pps=200.0, seed=3)
        scan = RandomScanAttack(ScanConfig(rate_pps=1500.0, start=10.0,
                                           duration=10.0, seed=5),
                                clean.protected).generate()
        trace = clean.merged_with(Trace(scan, clean.protected))
        packets = trace.packets.sorted_by_time()
        # n=8: a 256-bit vector per row, so marks collide often.
        config = FilterConfig(order=8, rotation_interval=5.0)
        info = {"filter": {**config.geometry(), "fail_policy": "fail_closed"},
                "protected": [str(net) for net in trace.protected.networks]}
        router = FleetRouter([NodeSpec("node0", "127.0.0.1", 1),
                              NodeSpec("node1", "127.0.0.1", 2)],
                             protected=trace.protected)
        owners = np.asarray(router.owner_names(packets))

        twins = _node_twins(owners, packets,
                            lambda share: _offline_reference(info, share))

        expected = np.zeros(len(packets), dtype=bool)
        for node in ("node0", "node1"):
            share = np.flatnonzero(owners == node)
            assert share.size
            expected[share] = build_filter(config, trace.protected) \
                .process_batch(packets[share])
        assert np.array_equal(twins, expected)
        assert not np.array_equal(twins, _offline_reference(info, packets))


class TestMultisiteCli:
    def test_runs_a_scenario_file_offline(self, capsys, tmp_path):
        scenario = tmp_path / "tiny.toml"
        scenario.write_text("""
name = "cli-tiny"
topology = "fat-tree"
sites = 2
duration = 6.0
seed = 3

[traffic]
mix = "campus"
pps = 40.0

[filter]
order = 12
rotation_interval = 2.0

[[waves]]
kind = "scan"
rate_multiplier = 4.0
site_stagger = 1.0
""")
        assert main(["multisite", "--scenario", str(scenario)]) == 0
        out = capsys.readouterr().out
        assert "scenario cli-tiny" in out
        assert "site0" in out and "site1" in out and "TOTAL" in out
        assert "p(pen)" in out and "advised" in out

    def test_unknown_preset_aborts(self):
        with pytest.raises(SystemExit, match="unknown preset"):
            main(["multisite", "--preset", "moebius/voip"])

    def test_verify_requires_online(self):
        with pytest.raises(SystemExit, match="--verify requires --online"):
            main(["multisite", "--verify"])
