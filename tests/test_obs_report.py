"""Tests for the run-report generator and the report/explain CLI."""

import json
import os
import re

import pytest

from repro.cli import main
from repro.core import LucidScheduler
from repro.obs import (
    DecisionAudit,
    REPORT_SCHEMA,
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


def _observed_run(scheduler_name="lucid"):
    """One fully observed run: profiler + series + attribution audit."""
    from repro import make_scheduler

    generator = TraceGenerator(SPEC)
    cluster = generator.build_cluster()
    history = generator.generate_history()
    jobs = generator.generate()
    if scheduler_name == "lucid":
        audit = DecisionAudit(attribution=True)
        scheduler = LucidScheduler(history, audit=audit)
    else:
        audit = None
        scheduler = make_scheduler(scheduler_name, history)
    profiler = SimProfiler()
    series = SeriesCollector(interval=600.0)
    result = Simulator(cluster, jobs, scheduler, profile=profiler,
                       series=series).run()
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
        if name == "lucid" and observed:
            scheduler = LucidScheduler(
                history, audit=DecisionAudit(attribution=True))
        else:
            scheduler = make_scheduler(name, history)
        kwargs = {}
        if observed:
            kwargs = {"profile": SimProfiler(),
                      "series": SeriesCollector(interval=600.0)}
        result = Simulator(cluster, jobs, scheduler, **kwargs).run()
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

    def test_bench_command_and_against_flag_are_gone(self, tmp_path):
        for argv in (["bench", "--quick"],
                     ["report", "--out", str(tmp_path / "o"),
                      "--against", str(tmp_path / "b.json")]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2


class TestExplainCLI:
    def test_unknown_job_exits_1(self, capsys):
        code = main(["explain", "424242", "--trace", "venus",
                     "--jobs", "60", "--seed", "7"])
        assert code == 1
        assert "no recorded decisions" in capsys.readouterr().err

    def test_json_format_lists_decisions(self, capsys):
        code = main(["explain", "201", "--trace", "venus", "--jobs", "60",
                     "--seed", "7", "--format", "json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["job_id"] == 201
        assert document["decisions"]
        assert all(d["job_id"] == 201 for d in document["decisions"])

    def test_what_if_probe(self, capsys):
        code = main(["explain", "201", "--trace", "venus", "--jobs", "60",
                     "--seed", "7", "--what-if", "gpu_num=8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "with gpu_num=8" in out

    def test_bad_what_if_spec_exits_2(self, capsys):
        code = main(["explain", "201", "--trace", "venus", "--jobs", "60",
                     "--seed", "7", "--what-if", "gpu_num=lots"])
        assert code == 2

    def test_unknown_feature_exits_2(self, capsys):
        code = main(["explain", "201", "--trace", "venus", "--jobs", "60",
                     "--seed", "7", "--what-if", "flux_capacitor=1"])
        assert code == 2
        assert "counterfactual failed" in capsys.readouterr().err

    def test_audit_file_source(self, tmp_path, capsys):
        result, _, _, audit = _observed_run()
        path = tmp_path / "deep" / "audit.jsonl"
        audit.to_jsonl(str(path))
        job_id = audit.records[0].job_id
        code = main(["explain", str(job_id), "--audit", str(path)])
        assert code == 0
        assert f"job {job_id}" in capsys.readouterr().out

    def test_what_if_rejected_with_audit_file(self, tmp_path, capsys):
        _, _, _, audit = _observed_run()
        path = tmp_path / "audit.jsonl"
        audit.to_jsonl(str(path))
        code = main(["explain", "1", "--audit", str(path),
                     "--what-if", "gpu_num=8"])
        assert code == 2

    def test_non_audited_scheduler_exits_2(self, capsys):
        code = main(["explain", "201", "--trace", "venus", "--jobs", "60",
                     "--seed", "7", "--scheduler", "fifo"])
        assert code == 2
        assert "no decision audit" in capsys.readouterr().err
