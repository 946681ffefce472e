"""Tests for the run-report generator and the report/why CLI."""

import json
import os
import re

import pytest

from repro.cli import main
from repro.obs import (
    DecisionAudit,
    REPORT_SCHEMA,
    RingBufferTracer,
    SeriesCollector,
    SimProfiler,
    build_report,
    load_report,
    render_html,
    validate_report,
    write_report,
)
from repro.sim import Simulator
from repro.traces import TraceGenerator, TraceSpec

SPEC = TraceSpec(name="tiny", n_nodes=4, n_vcs=2, n_jobs=40,
                 full_n_jobs=40, mean_duration=1500.0, span_days=0.25,
                 n_users=6, seed=21)


def _observed_run(scheduler_name="lucid", observers=()):
    """One fully observed run: profiler + series + attribution audit,
    next to ``observers``."""
    from repro import make_scheduler

    generator = TraceGenerator(SPEC)
    cluster = generator.build_cluster()
    history = generator.generate_history()
    jobs = generator.generate()
    audit = DecisionAudit(attribution=True)
    profiler = SimProfiler()
    series = SeriesCollector(interval=600.0)
    result = Simulator(cluster, jobs, make_scheduler(scheduler_name, history),
                       observers=[profiler, series, audit,
                                  *observers]).run()
    return result, profiler, series, audit


@pytest.fixture(scope="module")
def lucid_report():
    result, profiler, series, audit = _observed_run()
    document = build_report(result, scheduler="lucid", trace="tiny",
                            jobs=SPEC.n_jobs, seed=SPEC.seed,
                            profiler=profiler, series=series, audit=audit,
                            created="2026-01-01T00:00:00")
    return document, audit


class TestBuildReport:
    def test_document_validates(self, lucid_report):
        document, _ = lucid_report
        validate_report(document)
        assert document["schema"] == REPORT_SCHEMA
        assert document["run"] == {"scheduler": "lucid", "trace": "tiny",
                                   "jobs": SPEC.n_jobs,
                                   "seed": SPEC.seed}
        assert document["summary"]["n_jobs"] == float(SPEC.n_jobs)

    def test_attribution_coverage_criterion(self, lucid_report):
        """>= 95% of audited main-cluster placements carry an
        attribution, and every recorded attribution is additive."""
        document, audit = lucid_report
        coverage = document["attributions"]["coverage"]
        assert coverage["decisions"] > 0
        assert coverage["rate"] >= 0.95
        assert document["attributions"]["additive"] == \
            coverage["with_attribution"]
        decisions, with_attr = audit.attribution_coverage()
        assert (coverage["decisions"], coverage["with_attribution"]) == \
            (decisions, with_attr)

    def test_top_features_are_mean_magnitudes(self, lucid_report):
        document, _ = lucid_report
        top = document["attributions"]["top_features"]
        assert top, "expected at least one attributed feature"
        scores = [score for _, score in top]
        assert scores == sorted(scores, reverse=True)
        assert all(score >= 0 for score in scores)

    def test_series_and_profile_sections(self, lucid_report):
        document, _ = lucid_report
        assert document["series"]["samples"], "series not collected"
        assert document["profile"]["events_processed"] > 0
        assert document["audit"]["decisions"] > 0

    def test_optional_sections_default_none(self):
        result, _, _, _ = _observed_run("fifo")
        document = build_report(result, scheduler="fifo", trace="tiny",
                                jobs=SPEC.n_jobs, seed=SPEC.seed)
        validate_report(document)
        assert document["series"] is None
        assert document["profile"] is None
        assert document["attributions"] is None
        assert document["audit"] is None
        assert document["faults"] is None
        assert "bench_diff" not in document


class TestValidateReport:
    def test_wrong_schema_rejected(self, lucid_report):
        document = dict(lucid_report[0], schema="repro-bench/v1")
        with pytest.raises(ValueError, match="unsupported report schema"):
            validate_report(document)

    def test_missing_key_rejected(self, lucid_report):
        document = dict(lucid_report[0])
        del document["summary"]
        with pytest.raises(ValueError, match="misses keys"):
            validate_report(document)

    def test_bad_run_section_rejected(self, lucid_report):
        document = dict(lucid_report[0], run={"scheduler": "lucid"})
        with pytest.raises(ValueError, match="'run' section misses"):
            validate_report(document)

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError):
            validate_report(["not", "a", "report"])


class TestRenderHtml:
    def test_self_contained_no_external_assets(self, lucid_report):
        page = render_html(lucid_report[0])
        # Only the SVG xmlns declaration may mention a URL; no fetched
        # scripts, stylesheets, images or fonts.
        refs = re.findall(r'(?:src|href)\s*=\s*["\'][^"\']+', page)
        assert refs == []
        assert "<script" not in page
        urls = re.findall(r'https?://[^"\s<]+', page)
        assert all("www.w3.org" in u for u in urls)

    def test_sections_present(self, lucid_report):
        page = render_html(lucid_report[0])
        for heading in ("Summary", "Cluster time series",
                        "Interpretability", "Decision audit",
                        "Simulator profile", "Faults"):
            assert f"<h2>{heading}</h2>" in page
        assert "<svg" in page
        assert "coverage:" in page

    def test_missing_sections_render_placeholders(self):
        result, _, _, _ = _observed_run("fifo")
        document = build_report(result, scheduler="fifo", trace="tiny",
                                jobs=SPEC.n_jobs, seed=SPEC.seed)
        page = render_html(document)
        assert "no time series collected" in page
        assert "attribution disabled" in page
        assert "profiler not attached" in page

    def test_retired_bench_diff_key_still_renders(self, lucid_report):
        # Documents written while reports carried a ``bench_diff``
        # section stay valid under the same schema tag.
        document = dict(lucid_report[0], bench_diff=None)
        validate_report(document)
        assert "<h2>Summary</h2>" in render_html(document)

    def test_invalid_document_rejected(self):
        with pytest.raises(ValueError):
            render_html({"schema": "nope"})


class TestWriteReport:
    def test_round_trip_and_atomicity(self, lucid_report, tmp_path):
        out = tmp_path / "nested" / "out"
        os.makedirs(out)
        html_path, json_path = write_report(lucid_report[0], str(out))
        assert os.path.exists(html_path) and os.path.exists(json_path)
        assert not os.path.exists(html_path + ".tmp")
        assert not os.path.exists(json_path + ".tmp")
        reloaded = load_report(json_path)
        assert reloaded == json.loads(
            json.dumps(lucid_report[0], sort_keys=True))


class TestZeroOverheadBitIdentity:
    """Attribution and reporting are observers: scheduling is
    bit-identical with the whole stack on or off."""

    @pytest.mark.parametrize("name", ["fifo", "tiresias", "lucid"])
    def test_observed_run_matches_plain_run(self, name):
        plain = self._records(name, observed=False)
        observed = self._records(name, observed=True)
        assert plain == observed

    @staticmethod
    def _records(name, observed):
        from repro import make_scheduler

        generator = TraceGenerator(SPEC)
        cluster = generator.build_cluster()
        history = generator.generate_history()
        jobs = generator.generate()
        observers = ([SimProfiler(), SeriesCollector(interval=600.0),
                      DecisionAudit(attribution=True)]
                     if observed else [])
        result = Simulator(cluster, jobs, make_scheduler(name, history),
                           observers=observers).run()
        return (tuple(sorted(result.summary().items())),
                tuple((r.job_id, r.jct, r.queue_delay, r.preemptions)
                      for r in result.records))


class TestReportCLI:
    def test_report_command_writes_both_files(self, tmp_path, capsys):
        out = tmp_path / "report-out"
        code = main(["report", "--trace", "venus", "--jobs", "60",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "attribution coverage:" in captured
        document = load_report(str(out / "report.json"))
        assert document["run"]["scheduler"] == "lucid"
        assert document["attributions"]["coverage"]["rate"] >= 0.95
        page = (out / "report.html").read_text()
        assert page.startswith("<!DOCTYPE html>")
        # The event log beside the page rebuilds the report's audit.
        rebuilt = DecisionAudit.from_jsonl(str(out / "events.jsonl"))
        coverage = document["attributions"]["coverage"]
        assert rebuilt.attribution_coverage() == \
            (coverage["decisions"], coverage["with_attribution"])

    def test_fifo_report_has_no_audit(self, tmp_path):
        out = tmp_path / "fifo-out"
        code = main(["report", "--trace", "venus", "--jobs", "40",
                     "--seed", "7", "--scheduler", "fifo",
                     "--out", str(out)])
        assert code == 0
        document = load_report(str(out / "report.json"))
        assert document["audit"] is None
        assert document["attributions"] is None
        assert (out / "timeline.json").exists()

    def test_bench_command_and_against_flag_are_gone(self, tmp_path):
        events = str(tmp_path / "events.jsonl")
        for argv in (["bench", "--quick"],
                     ["report", "--out", str(tmp_path / "o"),
                      "--against", str(tmp_path / "b.json")],
                     ["trace", "--jobs", "10"],
                     ["explain", "201", "--jobs", "10"],
                     ["explain", "201", "--audit", events],
                     ["simulate", "--jobs", "10",
                      "--trace-out", str(tmp_path / "t")]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2


class TestExplainCLI:
    """``repro why`` explains a job's placement decisions after its JCT
    decomposition, live or from an exported event log."""

    def test_unknown_job_exits_1(self, capsys):
        code = main(["why", "424242", "--trace", "venus",
                     "--jobs", "60", "--seed", "7"])
        assert code == 1
        assert "no lineage recorded" in capsys.readouterr().err

    def test_json_format_lists_decisions(self, capsys):
        code = main(["why", "201", "--trace", "venus", "--jobs", "60",
                     "--seed", "7", "--format", "json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["decomposition"]["job_id"] == 201
        assert document["decisions"]
        assert all(d["job_id"] == 201 for d in document["decisions"])
        assert any("attribution" in d for d in document["decisions"])
        assert document["counterfactual"] is None

    def test_what_if_probe(self, capsys):
        code = main(["why", "201", "--trace", "venus", "--jobs", "60",
                     "--seed", "7", "--what-if", "gpu_num=8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "placement decisions (" in out
        assert "with gpu_num=8" in out
        assert out.index("placement decisions (") < out.index("gpu_num=8")

    def test_what_if_json_carries_the_counterfactual(self, capsys):
        code = main(["why", "201", "--trace", "venus", "--jobs", "60",
                     "--seed", "7", "--what-if", "gpu_num=8",
                     "--format", "json"])
        assert code == 0
        probe = json.loads(capsys.readouterr().out)["counterfactual"]
        assert probe["job_id"] == 201 and probe["which"] == "duration"
        assert probe["overrides"] == {"gpu_num": 8.0}

    def test_bad_what_if_spec_exits_2(self, capsys):
        code = main(["why", "201", "--trace", "venus", "--jobs", "60",
                     "--seed", "7", "--what-if", "gpu_num=lots"])
        assert code == 2
        assert "bad --what-if" in capsys.readouterr().err

    def test_unknown_feature_exits_2(self, capsys):
        code = main(["why", "201", "--trace", "venus", "--jobs", "60",
                     "--seed", "7", "--what-if", "flux_capacitor=1"])
        assert code == 2
        assert "counterfactual failed" in capsys.readouterr().err

    def test_audit_file_source(self, tmp_path, capsys):
        """Offline, one events.jsonl feeds the lineage and the audit."""
        path = tmp_path / "deep" / "events.jsonl"
        with RingBufferTracer(sink=str(path)) as tracer:
            _, _, _, audit = _observed_run(observers=[tracer])
        job_id = audit.records[-1].job_id
        code = main(["why", str(job_id), "--trace", str(path),
                     "--format", "json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["source"] == str(path)
        assert document["decisions"] == [d.to_dict() for d in
                                          audit.for_job(job_id)]

    def test_what_if_rejected_with_audit_file(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        with RingBufferTracer(sink=str(path)) as tracer:
            _observed_run(observers=[tracer])
        code = main(["why", "1", "--trace", str(path),
                     "--what-if", "gpu_num=8"])
        assert code == 2
        assert "live run" in capsys.readouterr().err

    def test_scheduler_without_decisions_exits_0(self, capsys):
        """A scheduler that emits no decisions still gets its lineage."""
        code = main(["why", "201", "--trace", "venus", "--jobs", "60",
                     "--seed", "7", "--scheduler", "fifo"])
        assert code == 0
        out = capsys.readouterr().out
        assert "JCT" in out
        assert "no placement decisions recorded for job 201" in out
