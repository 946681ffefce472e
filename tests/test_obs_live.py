"""Unit tests for the live telemetry plane (:mod:`repro.obs.live`).

Covers the registry/exposition layer in isolation: the counter, gauge
and bucketed-histogram primitives, labeled families, Prometheus text
escaping, the JSON render, profiler publication, dashboard
self-containment, and the structured-logging context plumbing.  The end-to-end daemon scrape
lives in :mod:`tests.test_serve_telemetry`.
"""

from __future__ import annotations

import io
import json
import logging
import math

import pytest

from repro.checks.lint import STATE_SINK_PACKAGES, _DeterminismVisitor
from repro.obs.live import (
    CONTENT_TYPE_PROMETHEUS,
    DEFAULT_LATENCY_BUCKETS,
    GAUGE_HISTORY,
    BucketHistogram,
    Counter,
    Gauge,
    LiveRegistry,
    publish_profiler,
    render_dashboard,
    render_json_text,
)
from repro.obs.logutil import (
    JsonFormatter,
    configure_logging,
    current_context,
    log_context,
)
from repro.obs.prof import SimProfiler


# ----------------------------------------------------------------------
# BucketHistogram
# ----------------------------------------------------------------------
class TestBucketHistogram:
    def test_cumulative_is_monotone_and_ends_at_count(self):
        hist = BucketHistogram("h", (0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        rows = hist.cumulative()
        assert [bound for bound, _ in rows] == [0.1, 1.0, 10.0, math.inf]
        counts = [cum for _, cum in rows]
        assert counts == sorted(counts)
        assert counts[-1] == hist.count == 5
        assert hist.total == pytest.approx(56.05)

    def test_boundary_observation_lands_in_le_bucket(self):
        hist = BucketHistogram("h", (1.0, 2.0))
        hist.observe(1.0)  # le="1.0" is inclusive
        assert hist.cumulative()[0][1] == 1

    def test_quantile_returns_bucket_upper_bound(self):
        hist = BucketHistogram("h", (0.1, 1.0, 10.0))
        for _ in range(99):
            hist.observe(0.05)
        hist.observe(5.0)
        assert hist.quantile(0.50) == 0.1
        assert hist.quantile(1.00) == 10.0
        # Rank in +Inf clamps to the largest finite bound.
        hist.observe(100.0)
        assert hist.quantile(1.00) == 10.0

    def test_empty_histogram_summary(self):
        hist = BucketHistogram("h", (1.0,))
        assert hist.summary() == {
            "count": 0.0, "sum": 0.0, "mean": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_rejects_empty_or_unsorted_bounds(self):
        with pytest.raises(ValueError, match="at least one bound"):
            BucketHistogram("h", ())
        with pytest.raises(ValueError, match="sorted"):
            BucketHistogram("h", (2.0, 1.0))


class TestMetricPrimitives:
    def test_counter_rejects_negative_and_gauge_dedupes(self):
        counter = Counter("jobs")
        counter.inc()
        counter.inc(2)
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)
        assert counter.value == 3.0

        gauge = Gauge("queue")
        gauge.set(3.0, time=0.0)
        gauge.set(3.0, time=1.0)  # consecutive duplicate: collapsed
        gauge.set(5.0, time=10.0)
        gauge.set(7.0)  # no time: last value only
        assert gauge.value == 7.0
        assert gauge.samples == [(0.0, 3.0), (10.0, 5.0)]


class TestGaugeHistoryBound:
    def test_max_samples_keeps_newest(self):
        gauge = Gauge("g", max_samples=4)
        for tick in range(10):
            gauge.set(float(tick), time=float(tick))
        assert len(gauge.samples) == 4
        assert gauge.samples[0] == (6.0, 6.0)
        assert gauge.samples[-1] == (9.0, 9.0)

    def test_unbounded_by_default(self):
        gauge = Gauge("g")
        for tick in range(GAUGE_HISTORY + 10):
            gauge.set(float(tick), time=float(tick))
        assert len(gauge.samples) == GAUGE_HISTORY + 10


# ----------------------------------------------------------------------
# LiveRegistry
# ----------------------------------------------------------------------
class TestLiveRegistry:
    def test_get_or_create_returns_same_child(self):
        reg = LiveRegistry()
        first = reg.counter("ticks_total", "ticks")
        second = reg.counter("ticks_total")
        assert first is second
        labeled = reg.counter("ticks_total_by", labels={"mode": "a"})
        assert labeled is not first
        assert reg.counter("ticks_total_by",
                           labels={"mode": "a"}) is labeled

    def test_kind_conflict_raises(self):
        reg = LiveRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError, match="is a counter"):
            reg.gauge("x_total")

    def test_labelname_conflict_raises(self):
        reg = LiveRegistry()
        reg.counter("y_total", labels={"a": "1"})
        with pytest.raises(ValueError, match="has labels"):
            reg.counter("y_total", labels={"b": "1"})

    def test_invalid_names_rejected(self):
        reg = LiveRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            reg.counter("bad-name")
        with pytest.raises(ValueError, match="invalid label name"):
            reg.counter("ok_total", labels={"bad-label": "1"})

    def test_namespace_prefix(self):
        reg = LiveRegistry(namespace="svc")
        reg.counter("ticks_total").inc()
        assert "svc_ticks_total 1" in reg.render_prometheus()


class TestPrometheusRender:
    def test_help_type_and_value_lines(self):
        reg = LiveRegistry()
        reg.counter("ticks_total", "Service ticks").inc(3)
        reg.gauge("jobs", "Jobs in flight").set(7.0)
        text = reg.render_prometheus()
        assert "# HELP repro_ticks_total Service ticks\n" in text
        assert "# TYPE repro_ticks_total counter\n" in text
        assert "repro_ticks_total 3\n" in text
        assert "# TYPE repro_jobs gauge\n" in text
        assert "repro_jobs 7\n" in text
        assert text.endswith("\n")

    def test_label_value_escaping(self):
        reg = LiveRegistry()
        reg.counter("odd_total", "odd",
                    labels={"path": 'a\\b"c\nd'}).inc()
        text = reg.render_prometheus()
        assert 'path="a\\\\b\\"c\\nd"' in text

    def test_help_escaping(self):
        reg = LiveRegistry()
        reg.counter("esc_total", "line\nbreak \\ slash").inc()
        assert ("# HELP repro_esc_total line\\nbreak \\\\ slash"
                in reg.render_prometheus())

    def test_histogram_exposition_shape(self):
        reg = LiveRegistry()
        hist = reg.histogram("lat_seconds", "latency",
                             buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        text = reg.render_prometheus()
        assert 'repro_lat_seconds_bucket{le="0.1"} 1\n' in text
        assert 'repro_lat_seconds_bucket{le="1"} 2\n' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 3\n' in text
        assert "repro_lat_seconds_sum 5.55\n" in text
        assert "repro_lat_seconds_count 3\n" in text

    def test_labeled_histogram_keeps_le_last(self):
        reg = LiveRegistry()
        reg.histogram("h_seconds", labels={"route": "/x"},
                      buckets=(1.0,)).observe(0.5)
        text = reg.render_prometheus()
        assert ('repro_h_seconds_bucket{route="/x",le="1"} 1'
                in text)

    def test_unset_gauge_renders_zero(self):
        reg = LiveRegistry()
        reg.gauge("maybe")
        assert "repro_maybe 0\n" in reg.render_prometheus()

    def test_empty_registry_renders_empty(self):
        assert LiveRegistry().render_prometheus() == ""

    def test_content_type_constant(self):
        assert CONTENT_TYPE_PROMETHEUS.startswith("text/plain")
        assert "version=0.0.4" in CONTENT_TYPE_PROMETHEUS


class TestJsonRender:
    def test_families_shape(self):
        reg = LiveRegistry()
        reg.counter("c_total", "count").inc(2)
        reg.gauge("g", "gauge").set(1.0, time=0.0)
        reg.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        doc = reg.render_json()
        by_name = {fam["name"]: fam for fam in doc["families"]}
        assert by_name["repro_c_total"]["samples"][0]["value"] == 2
        gauge_sample = by_name["repro_g"]["samples"][0]
        assert gauge_sample["value"] == 1.0
        assert gauge_sample["series"] == [[0.0, 1.0]]
        hist_sample = by_name["repro_h_seconds"]["samples"][0]
        assert hist_sample["count"] == 1
        assert hist_sample["buckets"][-1][1] == 1
        assert "p95" in hist_sample["summary"]

    def test_render_json_text_round_trips(self):
        reg = LiveRegistry()
        reg.counter("c_total").inc()
        text = render_json_text(reg)
        assert text.endswith("\n")
        assert json.loads(text)["families"][0]["name"] == "repro_c_total"


# ----------------------------------------------------------------------
# Profiler publication
# ----------------------------------------------------------------------
class TestPublishProfiler:
    def make_profiler(self):
        prof = SimProfiler()
        prof.before_step()
        for _ in range(40):
            prof.enter()
            prof.exit_event("submit")
        prof.finish(3600.0)
        for _ in range(4):
            prof.add_pass(0.01)
        prof.add_span("dispatch", 0.002)
        prof.add_span("dispatch", 0.004)
        prof.count("heap_pop", 9)
        return prof

    def test_publishes_pass_and_span_stats(self):
        reg = LiveRegistry()
        publish_profiler(reg, self.make_profiler())
        text = reg.render_prometheus()
        assert "repro_sim_events_processed 40\n" in text
        assert "repro_sim_schedule_passes 4\n" in text
        assert "repro_sim_schedule_pass_p95_seconds" in text
        assert 'repro_sim_span_calls{span="dispatch"} 2\n' in text
        assert 'repro_sim_hotpath_calls{counter="heap_pop"} 9\n' in text

    def test_republication_sets_not_increments(self):
        reg = LiveRegistry()
        prof = self.make_profiler()
        publish_profiler(reg, prof)
        publish_profiler(reg, prof)
        assert reg.gauge("sim_schedule_passes").value == 4.0
        assert reg.gauge("sim_events_processed").value == 40.0


class TestProfilerSummaries:
    def test_span_summary_percentiles(self):
        prof = SimProfiler()
        for index in range(100):
            prof.add_span("s", (index + 1) / 1000.0)
        summary = prof.span_summary()["s"]
        assert summary["count"] == 100
        assert summary["p50"] == pytest.approx(0.050)
        assert summary["p95"] == pytest.approx(0.095)
        assert summary["max"] == pytest.approx(0.100)

    def test_reservoirs_are_bounded(self):
        from repro.obs.prof import RESERVOIR_SIZE
        prof = SimProfiler()
        for _ in range(RESERVOIR_SIZE + 100):
            prof.add_pass(0.001)
        assert len(prof.pass_samples) == RESERVOIR_SIZE
        assert prof.pass_summary()["count"] == RESERVOIR_SIZE + 100


# ----------------------------------------------------------------------
# Dashboard
# ----------------------------------------------------------------------
class TestDashboard:
    def test_page_is_self_contained(self):
        reg = LiveRegistry()
        reg.gauge("jobs", "jobs").set(1.0, time=0.0)
        page = render_dashboard(reg, title="t", poll_seconds=3.0)
        assert page.startswith("<!DOCTYPE html>")
        # Zero external assets: no http(s) URLs, no external src/href.
        assert "http://" not in page and "https://" not in page
        assert "src=" not in page and 'rel="stylesheet"' not in page
        assert "<style>" in page and "<script>" in page
        assert "var POLL_MS = 3000;" in page

    def test_title_is_escaped(self):
        page = render_dashboard(LiveRegistry(), title="<svc> & co")
        assert "&lt;svc&gt; &amp; co" in page
        assert "<svc>" not in page

    def test_gauge_history_renders_chart(self):
        reg = LiveRegistry()
        gauge = reg.gauge("depth", "queue depth")
        for tick in range(5):
            gauge.set(float(tick), time=float(tick))
        assert "<svg" in render_dashboard(reg)

    def test_placeholder_without_history(self):
        assert "no gauge history yet" in render_dashboard(LiveRegistry())


# ----------------------------------------------------------------------
# Structured logging context
# ----------------------------------------------------------------------
class TestLogContext:
    def test_nested_merge_inner_wins_and_resets(self):
        assert current_context() == {}
        with log_context(tick=1, wal_segment="seg-0"):
            with log_context(tick=2, job_id="j1"):
                assert current_context() == {
                    "tick": 2, "wal_segment": "seg-0", "job_id": "j1"}
            assert current_context() == {"tick": 1,
                                         "wal_segment": "seg-0"}
        assert current_context() == {}

    def test_json_formatter_carries_context(self):
        record = logging.LogRecord("repro.serve", logging.INFO, "f", 1,
                                   "applied tick %d", (7,), None)
        with log_context(tick=7, wal_segment="wal-000001"):
            doc = json.loads(JsonFormatter().format(record))
        assert doc == {"level": "info", "logger": "repro.serve",
                       "message": "applied tick 7", "tick": 7,
                       "wal_segment": "wal-000001"}

    def test_record_fields_beat_context_on_collision(self):
        record = logging.LogRecord("repro.x", logging.INFO, "f", 1,
                                   "m", (), None)
        record.repro_context = {"message": "clobber", "tick": 1}
        doc = json.loads(JsonFormatter().format(record))
        assert doc["message"] == "m"  # setdefault keeps the real one
        assert doc["tick"] == 1

    def test_configure_logging_json_lines_parse(self):
        stream = io.StringIO()
        configure_logging("INFO", stream=stream, fmt="json")
        logger = logging.getLogger("repro.test.telemetry")
        with log_context(tick=3, job_id="job0"):
            logger.info("hello %s", "world")
        configure_logging("WARNING", stream=io.StringIO(), fmt="text")
        line = stream.getvalue().strip()
        doc = json.loads(line)
        assert doc["message"] == "hello world"
        assert doc["tick"] == 3
        assert doc["job_id"] == "job0"
        assert doc["level"] == "info"
        assert doc["logger"] == "repro.test.telemetry"


# ----------------------------------------------------------------------
# Lint scope: the live plane is state-sink code (RPR009)
# ----------------------------------------------------------------------
class TestLintScope:
    def test_obs_modules_are_rpr009_scoped(self):
        # New obs/serve modules are covered by the atomic-write rule via
        # their package, with no per-file allowlisting to keep fresh.
        assert "obs" in STATE_SINK_PACKAGES
        assert "serve" in STATE_SINK_PACKAGES
        for path in ("src/repro/obs/live.py", "src/repro/serve/daemon.py"):
            visitor = _DeterminismVisitor(path)
            assert visitor.in_state_sink, path

    def test_default_buckets_are_strictly_increasing(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(
            set(DEFAULT_LATENCY_BUCKETS))
