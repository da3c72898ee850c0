"""Tests for repro.telemetry.exporters — Prometheus text and JSON lines.

The snapshot tests at the bottom run a real filter over a real attack trace
under a live registry and pin down the export formats: every Δt tick yields
one JSON-lines row whose counter deltas cover admits/drops/rotations for
that interval, and the Prometheus rendering parses cleanly.
"""

import io
import json
import math

import pytest

pytestmark = pytest.mark.telemetry

from repro.core.bitmap_filter import BitmapFilter
from repro.sim.pipeline import run_filter_on_trace
from repro.telemetry.exporters import (
    JsonLinesSampler,
    LiveSummarySampler,
    to_prometheus,
)
from repro.telemetry.registry import MetricsRegistry, use_registry


def make_registry():
    reg = MetricsRegistry()
    reg.counter("jobs_total", "Jobs processed").inc(3)
    reg.counter("errs_total", "Errors", kind="io").inc(1)
    reg.gauge("depth", "Queue depth").set(7)
    h = reg.histogram("latency_seconds", "Latency", bounds=[0.1, 1.0])
    h.observe(0.05)
    h.observe(0.5)
    h.observe(5.0)
    return reg


class TestPrometheusFormat:
    def test_headers_and_samples(self):
        text = to_prometheus(make_registry())
        assert "# HELP jobs_total Jobs processed" in text
        assert "# TYPE jobs_total counter" in text
        assert "jobs_total 3" in text
        assert 'errs_total{kind="io"} 1' in text
        assert "# TYPE depth gauge" in text
        assert "depth 7" in text

    def test_histogram_cumulative_buckets(self):
        text = to_prometheus(make_registry())
        assert 'latency_seconds_bucket{le="0.1"} 1' in text
        assert 'latency_seconds_bucket{le="1"} 2' in text
        assert 'latency_seconds_bucket{le="+Inf"} 3' in text
        assert "latency_seconds_sum 5.55" in text
        assert "latency_seconds_count 3" in text

    def test_every_sample_line_well_formed(self):
        for line in to_prometheus(make_registry()).splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
                continue
            name, value = line.rsplit(" ", 1)
            assert name
            float(value)  # parses as a number

    def test_empty_registry(self):
        assert to_prometheus(MetricsRegistry()) == ""


class TestJsonLinesSampler:
    def test_rows_carry_cumulative_and_deltas(self):
        reg = MetricsRegistry()
        sampler = JsonLinesSampler()
        reg.add_sampler(sampler)
        c = reg.counter("c")
        c.inc(5)
        reg.tick(1.0)
        c.inc(2)
        reg.tick(2.0)
        assert [row["ts"] for row in sampler.rows] == [1.0, 2.0]
        assert sampler.rows[0]["counters"]["c"] == 5
        assert sampler.rows[1]["counters"]["c"] == 7
        assert sampler.rows[1]["deltas"]["c"] == 2

    def test_gauges_snapshot(self):
        reg = MetricsRegistry()
        sampler = JsonLinesSampler()
        reg.add_sampler(sampler)
        reg.gauge("g").set(4.5)
        reg.tick(0.0)
        assert sampler.rows[0]["gauges"]["g"] == 4.5

    def test_streams_valid_jsonl(self):
        stream = io.StringIO()
        reg = MetricsRegistry()
        reg.add_sampler(JsonLinesSampler(stream=stream))
        reg.counter("c").inc()
        reg.tick(1.0)
        reg.tick(2.0)
        lines = stream.getvalue().strip().split("\n")
        assert len(lines) == 2
        for line in lines:
            json.loads(line)

    def test_to_jsonl_roundtrip(self):
        reg = MetricsRegistry()
        sampler = JsonLinesSampler()
        reg.add_sampler(sampler)
        reg.tick(1.0)
        for line in sampler.to_jsonl().strip().split("\n"):
            assert json.loads(line)["ts"] == 1.0


class TestLiveSummarySampler:
    def test_emits_every_n_ticks(self):
        lines = []
        reg = MetricsRegistry()
        reg.add_sampler(LiveSummarySampler(every=2, emit=lines.append))
        for ts in range(1, 6):
            reg.tick(float(ts))
        assert len(lines) == 2  # ticks 2 and 4

    def test_prefix_sums_across_labels(self):
        lines = []
        reg = MetricsRegistry()
        reg.add_sampler(LiveSummarySampler(
            every=1, watch={"hits": "hits_total"}, emit=lines.append))
        reg.counter("hits_total", path="a").inc(2)
        reg.counter("hits_total", path="b").inc(3)
        reg.tick(1.0)
        assert "hits=       5" in lines[0]

    def test_rejects_zero_interval(self):
        with pytest.raises(ValueError):
            LiveSummarySampler(every=0)


class TestFilterRunSnapshot:
    """End-to-end: a live-registry filter run exports per-Δt admissions."""

    @pytest.fixture(scope="class")
    def attacked(self, tiny_trace):
        from dataclasses import replace

        from repro.experiments.config import SMALL
        from repro.experiments.fig5 import build_attack_trace

        scale = replace(SMALL, duration=tiny_trace.duration,
                        normal_pps=300.0)
        return build_attack_trace(scale, tiny_trace)

    @pytest.fixture()
    def run(self, attacked, small_config):
        with use_registry() as registry:
            sampler = JsonLinesSampler()
            registry.add_sampler(sampler)
            filt = BitmapFilter(small_config, attacked.protected)
            run_filter_on_trace(filt, attacked)
            prom = to_prometheus(registry)
        return sampler, prom, filt

    def test_one_row_per_rotation(self, run):
        sampler, _, filt = run
        assert len(sampler.rows) == filt.stats.rotations
        # Rows are Δt apart in simulated time.
        ts = [row["ts"] for row in sampler.rows]
        dt = filt.config.rotation_interval
        assert all(b - a == pytest.approx(dt) for a, b in zip(ts, ts[1:]))

    def test_deltas_cover_admissions_per_interval(self, run):
        sampler, _, filt = run
        admit_key = 'repro_filter_admits_total{path="exact_batch"}'
        drop_key = 'repro_filter_drops_total{path="exact_batch"}'
        rot_key = "repro_filter_rotations_total"
        admits = sum(row["deltas"][admit_key] for row in sampler.rows)
        drops = sum(row["deltas"][drop_key] for row in sampler.rows)
        assert sampler.rows[-1]["counters"][rot_key] == filt.stats.rotations
        # Sampled sums can trail the final stats only by the tail interval
        # (packets after the last rotation are never sampled).
        assert 0 < admits <= filt.stats.incoming_passed
        assert 0 < drops <= filt.stats.incoming_dropped
        # At least one attack-interval row shows heavy dropping.
        assert max(row["deltas"][drop_key] for row in sampler.rows) > 100

    def test_prometheus_covers_filter_metrics(self, run):
        _, prom, filt = run
        assert f"repro_filter_rotations_total {filt.stats.rotations}" in prom
        assert ('repro_filter_admits_total{path="exact_batch"} '
                f"{filt.stats.incoming_passed}") in prom
        assert ('repro_filter_drops_total{path="exact_batch"} '
                f"{filt.stats.incoming_dropped}") in prom
        assert "repro_filter_rotation_seconds_bucket" in prom
        assert 'le="+Inf"' in prom


class TestParsePrometheus:
    """parse/summarize round-trip the exporter's own output."""

    def test_roundtrip_every_sample(self):
        from repro.telemetry.exporters import parse_prometheus

        reg = make_registry()
        samples = parse_prometheus(to_prometheus(reg))
        by_key = {(s.name, tuple(sorted(s.labels.items()))): s.value
                  for s in samples}
        assert by_key[("jobs_total", ())] == 3
        assert by_key[("errs_total", (("kind", "io"),))] == 1
        assert by_key[("depth", ())] == 7
        assert by_key[("latency_seconds_count", ())] == 3
        assert by_key[("latency_seconds_bucket", (("le", "+Inf"),))] == 3

    def test_histogram_kind_attached(self):
        from repro.telemetry.exporters import parse_prometheus

        samples = parse_prometheus(to_prometheus(make_registry()))
        kinds = {s.name: s.kind for s in samples}
        assert kinds["latency_seconds_bucket"] == "histogram"
        assert kinds["latency_seconds_sum"] == "histogram"
        assert kinds["jobs_total"] == "counter"
        assert kinds["depth"] == "gauge"

    def test_malformed_line_reports_line_number(self):
        from repro.telemetry.exporters import parse_prometheus

        with pytest.raises(ValueError, match="line 2"):
            parse_prometheus("ok_total 1\nthis is not a sample line at all\n")

    def test_summary_folds_histograms(self):
        from repro.telemetry.exporters import summarize_prometheus

        text = to_prometheus(make_registry())
        summary = summarize_prometheus(text)
        assert "jobs_total" in summary
        # Histogram series collapse to a single count/sum/mean line.
        assert summary.count("latency_seconds") == 1
        assert "count=3" in summary

    def test_summary_prefix_filter(self):
        from repro.telemetry.exporters import summarize_prometheus

        summary = summarize_prometheus(to_prometheus(make_registry()),
                                       prefix="jobs_")
        assert "jobs_total" in summary
        assert "depth" not in summary
