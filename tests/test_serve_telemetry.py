"""End-to-end telemetry tests: daemon scrape, negotiation, bit-identity.

A strict miniature Prometheus text-format parser validates a live
daemon's ``/metrics`` exposition (``# TYPE`` discipline, label-value
escaping, histogram bucket monotonicity with ``+Inf`` equal to
``_count``).  The regression half proves the zero-overhead contract:
an identical workload run with telemetry on and off produces
bit-identical commit digests and final state.
"""

from __future__ import annotations

import io
import json
import math
import re
import urllib.error
import urllib.request

import pytest

from repro.obs.audit import DecisionAudit
from repro.obs.lineage import LineageCollector
from repro.obs.live import CONTENT_TYPE_PROMETHEUS
from repro.obs.logutil import configure_logging
from repro.obs.prof import SimProfiler
from repro.serve import ServeConfig, ServeDaemon
from repro.serve.chaos import commit_digests, final_state
from repro.serve.core import SimCore
from repro.serve.jobspec import job_to_spec
from repro.traces import VENUS, TraceGenerator

CONFIG = ServeConfig(trace="venus", scheduler="fifo", jobs=20, seed=7,
                     batch=8, events_per_tick=64)
#: The acceptance workload: lucid x venus @ 120 jobs.
LUCID_CONFIG = ServeConfig(trace="venus", scheduler="lucid", jobs=120,
                           seed=7, batch=8, events_per_tick=64)

SPEC = {
    "name": "resnet50", "user": "alice", "vc": "vc01",
    "gpu_num": 1, "duration": 600.0,
    "profile": {"gpu_util": 60.0, "gpu_mem_util": 30.0,
                "gpu_mem_mb": 12000.0},
}


def make_daemon(state_dir, config=CONFIG, **kwargs):
    kwargs.setdefault("durable", False)
    kwargs.setdefault("snapshot_every", 1)
    kwargs.setdefault("telemetry_refresh", 1)
    return ServeDaemon(str(state_dir), config, **kwargs)


def submit_n(daemon, n, **overrides):
    for index in range(n):
        daemon.submit(dict(SPEC, name=f"job{index}", **overrides))


def run_to_idle(daemon, limit=500):
    ticks = 0
    while daemon.tick():
        ticks += 1
        assert ticks < limit, "service never went idle"
    return ticks


def fetch(address, path, accept=None):
    """Raw GET returning ``(status, content_type, body_text)``."""
    host, port = address
    headers = {"Accept": accept} if accept else {}
    request = urllib.request.Request(
        f"http://{host}:{port}{path}", headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=10) as resp:
            return (resp.status, resp.headers.get("Content-Type", ""),
                    resp.read().decode("utf-8"))
    except urllib.error.HTTPError as err:
        return (err.code, err.headers.get("Content-Type", ""),
                err.read().decode("utf-8"))


# ----------------------------------------------------------------------
# A strict miniature parser for Prometheus text format 0.0.4
# ----------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})? "
    r"(?P<value>[^ ]+)$")
_LABEL_RE = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"')


def _parse_labels(body):
    """Strict ``a="x",b="y"`` parsing with escape validation."""
    labels = {}
    pos = 0
    while pos < len(body):
        match = _LABEL_RE.match(body, pos)
        assert match, f"bad label syntax at {body[pos:]!r}"
        raw = match.group("value")
        for escape in re.finditer(r"\\(.)", raw):
            assert escape.group(1) in ('\\', '"', 'n'), \
                f"invalid escape \\{escape.group(1)} in {raw!r}"
        value = (raw.replace("\\n", "\n").replace('\\"', '"')
                 .replace("\\\\", "\\"))
        name = match.group("name")
        assert name not in labels, f"duplicate label {name}"
        labels[name] = value
        pos = match.end()
        if pos < len(body):
            assert body[pos] == ",", f"expected ',' at {body[pos:]!r}"
            pos += 1
    return labels


def _parse_value(text):
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)  # raises on garbage — that's the point


def parse_prometheus(text):
    """Parse + validate an exposition; returns ``{family: samples}``.

    ``samples`` maps ``(sample_name, frozenset(labelitems))`` to the
    float value.  Asserts the strict subset of format 0.0.4 the live
    plane emits: every sample preceded by its family's ``# TYPE``, one
    TYPE per family, histogram sample names limited to
    ``_bucket``/``_sum``/``_count``, and no duplicate series.
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    types, helps, families = {}, {}, {}
    for line in text.splitlines():
        assert line == line.strip(), f"stray whitespace: {line!r}"
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            assert name not in helps, f"duplicate HELP for {name}"
            assert name not in types, f"HELP after TYPE for {name}"
            helps[name] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            assert kind in ("counter", "gauge", "histogram"), kind
            assert name not in types, f"duplicate TYPE for {name}"
            types[name] = kind
            families[name] = {}
            continue
        assert not line.startswith("#"), f"unknown comment: {line!r}"
        match = _SAMPLE_RE.match(line)
        assert match, f"unparseable sample line: {line!r}"
        sample_name = match.group("name")
        labels = _parse_labels(match.group("labels") or "")
        value = _parse_value(match.group("value"))
        family = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            base = sample_name[:-len(suffix)]
            if sample_name.endswith(suffix) and types.get(base) \
                    == "histogram":
                family = base
        assert family in types, \
            f"sample {sample_name} has no preceding # TYPE"
        if types[family] == "histogram":
            assert family != sample_name, \
                f"bare histogram sample {sample_name}"
        key = (sample_name, frozenset(labels.items()))
        assert key not in families[family], f"duplicate series {key}"
        families[family][key] = value

    for name, kind in types.items():
        assert families[name], f"family {name} declared but empty"
        if kind != "histogram":
            continue
        series = {}
        for (sample_name, labelitems), value in families[name].items():
            labels = dict(labelitems)
            le = labels.pop("le", None)
            child = series.setdefault(frozenset(labels.items()),
                                      {"buckets": [], "sum": None,
                                       "count": None})
            if sample_name == f"{name}_bucket":
                assert le is not None, "bucket row without le"
                child["buckets"].append((_parse_value(le), value))
            elif sample_name == f"{name}_sum":
                child["sum"] = value
            else:
                assert sample_name == f"{name}_count"
                child["count"] = value
        for labelitems, child in series.items():
            assert child["sum"] is not None, f"{name} missing _sum"
            assert child["count"] is not None, f"{name} missing _count"
            buckets = sorted(child["buckets"])
            assert buckets, f"{name} has no buckets"
            assert buckets[-1][0] == math.inf, \
                f"{name} missing le=+Inf bucket"
            counts = [count for _, count in buckets]
            assert counts == sorted(counts), \
                f"{name} buckets not cumulative: {buckets}"
            assert counts[-1] == child["count"], \
                f"{name} +Inf bucket != _count"
    return types, families


class TestMiniParserSelfCheck:
    """The parser itself must reject malformed expositions."""

    def test_rejects_sample_without_type(self):
        with pytest.raises(AssertionError, match="no preceding"):
            parse_prometheus("orphan_metric 1\n")

    def test_rejects_non_cumulative_buckets(self):
        bad = ("# TYPE h histogram\n"
               'h_bucket{le="1"} 5\n'
               'h_bucket{le="+Inf"} 3\n'
               "h_sum 1\nh_count 3\n")
        with pytest.raises(AssertionError, match="not cumulative"):
            parse_prometheus(bad)

    def test_rejects_inf_count_mismatch(self):
        bad = ("# TYPE h histogram\n"
               'h_bucket{le="+Inf"} 3\n'
               "h_sum 1\nh_count 4\n")
        with pytest.raises(AssertionError, match="!= _count"):
            parse_prometheus(bad)

    def test_rejects_bad_escape(self):
        bad = ('# TYPE c counter\nc{x="a\\q"} 1\n')
        with pytest.raises(AssertionError, match="invalid escape"):
            parse_prometheus(bad)

    def test_round_trips_escaped_labels(self):
        good = ('# TYPE c counter\nc{x="a\\\\b\\"c\\nd"} 1\n')
        _, families = parse_prometheus(good)
        (_, labelitems), = families["c"].keys()
        assert dict(labelitems)["x"] == 'a\\b"c\nd'


# ----------------------------------------------------------------------
# Live daemon scrape
# ----------------------------------------------------------------------
class TestLiveScrape:
    @pytest.fixture
    def served(self, tmp_path):
        with make_daemon(tmp_path, http_port=0) as daemon:
            submit_n(daemon, 3)
            run_to_idle(daemon)
            yield daemon, daemon.http.address

    def test_exposition_is_valid_and_complete(self, served):
        _, address = served
        # Scrape twice so HTTP latency series from the first request
        # appear in the second exposition.
        fetch(address, "/metrics")
        code, ctype, text = fetch(address, "/metrics")
        assert code == 200
        assert ctype == CONTENT_TYPE_PROMETHEUS
        types, families = parse_prometheus(text)
        for family, kind in (
                ("repro_serve_tick_duration_seconds", "histogram"),
                ("repro_serve_wal_append_seconds", "histogram"),
                ("repro_serve_snapshot_write_seconds", "histogram"),
                ("repro_serve_recovery_replay_seconds", "histogram"),
                ("repro_serve_inbox_batch_size", "histogram"),
                ("repro_serve_inbox_poll_seconds", "histogram"),
                ("repro_serve_http_request_seconds", "histogram"),
                ("repro_serve_ticks_total", "counter"),
                ("repro_serve_wal_appended_bytes_total", "counter"),
                ("repro_serve_jobs_total", "gauge"),
                ("repro_serve_wal_segments", "gauge"),
                ("repro_serve_wal_bytes", "gauge"),
                ("repro_serve_heartbeat_age_seconds", "gauge"),
                ("repro_serve_stale", "gauge"),
                ("repro_serve_degraded", "gauge"),
                ("repro_sim_schedule_pass_p95_seconds", "gauge"),
                ("repro_sim_events_processed", "gauge"),
        ):
            assert types.get(family) == kind, (family, types.get(family))

    def test_wal_append_labeled_by_kind(self, served):
        _, address = served
        _, _, text = fetch(address, "/metrics")
        _, families = parse_prometheus(text)
        kinds = {dict(labelitems).get("kind")
                 for (name, labelitems)
                 in families["repro_serve_wal_append_seconds"]
                 if name.endswith("_count")}
        assert {"tick", "commit"} <= kinds

    def test_http_latency_labeled_by_route_and_status(self, served):
        _, address = served
        fetch(address, "/status")
        fetch(address, "/nowhere")  # unknown routes collapse to "other"
        _, _, text = fetch(address, "/metrics")
        _, families = parse_prometheus(text)
        series = [dict(items)
                  for (name, items)
                  in families["repro_serve_http_request_seconds"]
                  if name.endswith("_count")]
        assert {"route": "/status", "status": "200"} in series
        assert {"route": "other", "status": "404"} in series
        assert not any(labels["route"] == "/nowhere"
                       for labels in series)

    def test_tick_histogram_count_matches_ticks(self, served):
        daemon, address = served
        _, _, text = fetch(address, "/metrics")
        _, families = parse_prometheus(text)
        count = families["repro_serve_tick_duration_seconds"][
            ("repro_serve_tick_duration_seconds_count", frozenset())]
        assert count == daemon.metrics()["ticks_this_boot"]


class TestContentNegotiation:
    @pytest.fixture
    def served(self, tmp_path):
        with make_daemon(tmp_path, http_port=0) as daemon:
            submit_n(daemon, 1)
            daemon.tick()
            yield daemon, daemon.http.address

    def test_default_is_prometheus_text(self, served):
        _, address = served
        code, ctype, text = fetch(address, "/metrics")
        assert code == 200 and ctype == CONTENT_TYPE_PROMETHEUS
        parse_prometheus(text)

    def test_accept_json_keeps_legacy_document(self, served):
        daemon, address = served
        code, ctype, text = fetch(address, "/metrics",
                                  accept="application/json")
        assert code == 200 and ctype == "application/json"
        body = json.loads(text)
        assert body["ticks"] == 1
        for key in ("wal_segments", "wal_bytes", "store_bytes",
                    "last_snapshot_tick", "snapshot_age_ticks",
                    "snapshot_age_s", "telemetry"):
            assert key in body, key
        assert body["telemetry"] is True
        assert body["wal_segments"] >= 1
        assert body["wal_bytes"] > 0
        assert body["last_snapshot_tick"] == 1
        assert body["snapshot_age_ticks"] == 0

    def test_format_query_overrides(self, served):
        _, address = served
        code, _, text = fetch(address, "/metrics?format=json")
        assert code == 200 and json.loads(text)["ticks"] == 1
        code, _, text = fetch(address, "/metrics?format=live")
        assert code == 200
        names = {fam["name"]
                 for fam in json.loads(text)["families"]}
        assert "repro_serve_tick_duration_seconds" in names

    def test_dashboard_serves_html(self, served):
        _, address = served
        code, ctype, page = fetch(address, "/dashboard")
        assert code == 200 and ctype.startswith("text/html")
        assert page.startswith("<!DOCTYPE html>")
        assert "/metrics?format=live" in page

    def test_healthz_carries_stale_and_degraded(self, served):
        _, address = served
        code, _, text = fetch(address, "/healthz")
        body = json.loads(text)
        assert code == 200
        assert body["stale"] is False
        assert body["degraded"] is None  # the reason string when set
        assert "heartbeat_age_s" in body


class TestTelemetryDisabled:
    @pytest.fixture
    def served(self, tmp_path):
        with make_daemon(tmp_path, http_port=0,
                         telemetry=False) as daemon:
            submit_n(daemon, 1)
            daemon.tick()
            yield daemon, daemon.http.address

    def test_prometheus_is_503_json_still_works(self, served):
        daemon, address = served
        code, _, text = fetch(address, "/metrics")
        assert code == 503 and "disabled" in json.loads(text)["error"]
        code, _, text = fetch(address, "/metrics",
                              accept="application/json")
        assert code == 200
        body = json.loads(text)
        assert body["telemetry"] is False
        assert body["ticks"] == 1

    def test_dashboard_and_live_are_503(self, served):
        _, address = served
        assert fetch(address, "/dashboard")[0] == 503
        assert fetch(address, "/metrics?format=live")[0] == 503

    def test_no_observer_hooks_when_off(self, served):
        daemon, _ = served
        assert daemon.live is None
        assert daemon.profiler is None
        assert daemon.wal.on_append is None
        assert daemon.core.sim.profiler is None


# ----------------------------------------------------------------------
# Bit-identity: telemetry must not perturb scheduling
# ----------------------------------------------------------------------
class TestBitIdentity:
    def _run(self, state_dir, telemetry):
        with make_daemon(state_dir, config=LUCID_CONFIG,
                         telemetry=telemetry) as daemon:
            submit_n(daemon, 6)
            run_to_idle(daemon)
            snapshot = daemon.metrics()
        return (commit_digests(str(state_dir)),
                final_state(str(state_dir)), snapshot)

    def test_lucid_venus_digests_identical_on_vs_off(self, tmp_path):
        digests_on, final_on, metrics_on = self._run(
            tmp_path / "on", telemetry=True)
        digests_off, final_off, metrics_off = self._run(
            tmp_path / "off", telemetry=False)
        assert digests_on == digests_off
        assert final_on["digest"] == final_off["digest"]
        assert final_on["clean"] and final_off["clean"]
        assert metrics_on["jobs_finished"] == \
            metrics_off["jobs_finished"] == 6
        assert metrics_on["sim_now"] == metrics_off["sim_now"]
        assert metrics_on["events_processed"] == \
            metrics_off["events_processed"]


class TestSnapshotBytes:
    @pytest.mark.parametrize("config", [CONFIG, LUCID_CONFIG],
                             ids=["fifo", "lucid"])
    def test_blob_identical_with_telemetry_on(self, config):
        plain = SimCore.genesis(config)
        observed = SimCore.genesis(config)
        # The observers the daemon attaches when telemetry is on, plus
        # an attributing decision audit.
        collector = LineageCollector()
        audit = DecisionAudit(attribution=True)
        observed.sim.observe(SimProfiler())
        observed.sim.observe(collector)
        observed.sim.observe(audit)
        for tick in range(10):
            for core in (plain, observed):
                core.admit_specs([dict(SPEC, name=f"job{tick}")],
                                 [f"{tick:04d}.json"])
                core.advance()
        assert collector.events, "the collector observed nothing"
        if config is LUCID_CONFIG:
            assert audit.records, "the audit folded no decision"
        assert observed.to_blob() == plain.to_blob()
        assert observed.sim._tracing and observed.sim.attributing
        assert observed.sim.profiler is not None


class TestObserversAttachedAfterBegin:
    def test_lucid_daemon_publishes_refit_span_and_wall_time(self,
                                                             tmp_path):
        """The daemon's profiler joins a begun engine, and still sees
        the refits, the run's wall time and its events."""
        jobs = TraceGenerator(VENUS.with_jobs(120).with_seed(7)).generate()
        with make_daemon(tmp_path, config=LUCID_CONFIG,
                         inbox_capacity=len(jobs)) as daemon:
            for job in jobs:
                daemon.submit(job_to_spec(job))
            run_to_idle(daemon)
            assert daemon.core.sim.scheduler.update_engine.refits >= 1
            _, families = parse_prometheus(daemon.prometheus())
        span = "repro_sim_span_calls"
        refits = families[span][(span, frozenset({("span",
                                                   "lucid.refit")}))]
        assert refits == daemon.core.sim.scheduler.update_engine.refits
        wall = "repro_sim_wall_seconds"
        assert families[wall][(wall, frozenset())] > 0
        events = "repro_sim_events_processed"
        assert families[events][(events, frozenset())] == \
            daemon.profiler.events_processed > 0


class TestDroppedEvents:
    def test_collector_cap_drops_raise_the_counter(self, tmp_path):
        def dropped(daemon):
            _, families = parse_prometheus(daemon.prometheus())
            name = "repro_tracer_dropped_events_total"
            return families[name][(name, frozenset())]

        daemon = make_daemon(tmp_path)
        daemon.collector = LineageCollector(max_events=8)
        with daemon:
            assert dropped(daemon) == 0
            submit_n(daemon, 3)
            run_to_idle(daemon)
            assert dropped(daemon) == daemon.collector.n_dropped > 0


# ----------------------------------------------------------------------
# Correlated structured logs
# ----------------------------------------------------------------------
class TestCorrelatedLogs:
    def test_tick_records_carry_correlation_ids(self, tmp_path):
        stream = io.StringIO()
        configure_logging("debug", stream=stream, fmt="json")
        try:
            with make_daemon(tmp_path) as daemon:
                submit_n(daemon, 2)
                run_to_idle(daemon)
        finally:
            configure_logging("warning", fmt="text")
        lines = [json.loads(line)
                 for line in stream.getvalue().splitlines()]
        assert lines, "debug run produced no log lines"
        ticked = [line for line in lines if "tick" in line]
        assert ticked, "no log line carried a tick correlation id"
        assert any("wal_segment" in line for line in ticked)
        assert all(isinstance(line["tick"], int) for line in ticked)

    def test_recovery_replay_logs_are_correlated(self, tmp_path):
        # snapshot_every high enough that the crashed tick lives only
        # in the WAL — recovery must actually replay it.
        with make_daemon(tmp_path, snapshot_every=100) as daemon:
            submit_n(daemon, 2)
            daemon.tick()
            daemon.wal.close()
            daemon.store.close()
            daemon._started = False  # crash: no clean shutdown
        stream = io.StringIO()
        configure_logging("debug", stream=stream, fmt="json")
        try:
            with make_daemon(tmp_path,
                             snapshot_every=100) as revived:
                assert revived.recovery.replayed_ticks >= 1
        finally:
            configure_logging("warning", fmt="text")
        lines = [json.loads(line)
                 for line in stream.getvalue().splitlines()]
        replayed = [line for line in lines
                    if "wal_segment" in line
                    and line["logger"].endswith("recovery")]
        assert replayed, "recovery replay emitted no correlated lines"


# ----------------------------------------------------------------------
# serve-status CLI
# ----------------------------------------------------------------------
class TestServeStatusCli:
    def test_against_live_daemon(self, tmp_path, capsys):
        from repro import cli
        with make_daemon(tmp_path, http_port=0) as daemon:
            submit_n(daemon, 2)
            run_to_idle(daemon)
            host, port = daemon.http.address
            url = f"http://{host}:{port}"
            code = cli.main(["serve-status", "--url", url])
            out = capsys.readouterr().out
            assert code == 0
            assert "healthy" in out
            assert "WAL" in out and "dashboard" in out
            code = cli.main(["serve-status", "--url", url,
                             "--format", "json"])
            doc = json.loads(capsys.readouterr().out)
            assert code == 0
            assert doc["healthy"] is True
            assert doc["metrics"]["telemetry"] is True

    def test_unreachable_is_exit_2(self, capsys):
        from repro import cli
        code = cli.main(["serve-status",
                         "--url", "http://127.0.0.1:1",
                         "--timeout", "0.5"])
        assert code == 2
        assert "cannot scrape" in capsys.readouterr().err
