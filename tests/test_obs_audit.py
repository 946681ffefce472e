"""Tests for the scheduler decision audit."""

import json

import pytest

from repro.core import LucidConfig, LucidScheduler, UpdateEngine
from repro.obs import (
    BinderVerdict,
    DecisionAudit,
    PlacementDecision,
    RingBufferTracer,
)
from repro.sim import Simulator
from repro.traces import VENUS, TraceGenerator, TraceSpec


def _lucid_run(tracer=None, audit=None, **config_changes):
    spec = TraceSpec(name="tiny", n_nodes=4, n_vcs=2, n_jobs=40,
                     full_n_jobs=40, mean_duration=1500.0, span_days=0.25,
                     n_users=6, seed=21)
    generator = TraceGenerator(spec)
    cluster = generator.build_cluster()
    history = generator.generate_history()
    jobs = generator.generate()
    config = LucidConfig(**config_changes)
    scheduler = LucidScheduler(history, config=config, audit=audit)
    sim = Simulator(cluster, jobs, scheduler, tracer=tracer)
    return sim.run(), scheduler, sim


class TestLucidAudit:
    def test_every_start_has_exactly_one_matching_record(self):
        # Profiler off: each job starts exactly once, via the orchestrator.
        tracer = RingBufferTracer()
        result, scheduler, _ = _lucid_run(tracer=tracer,
                                          enable_profiler=False,
                                          instability_rate=0.0)
        audit = result.telemetry.audit
        assert audit is scheduler.audit and audit is not None

        starts = tracer.of_kind("start")
        assert len(starts) == len(result.records)  # one start per job
        assert len(audit) == len(starts)
        for event in starts:
            decisions = audit.for_job(event.job_id)
            assert len(decisions) == 1
            # The audited GPU set is the engine's gpus_of at start time.
            assert list(decisions[0].gpu_ids) == event.data["gpus"]
            assert list(decisions[0].node_ids) == event.data["nodes"]
            assert decisions[0].mode in ("shared", "exclusive", "relaxed",
                                         "shared-fallback")

    def test_profiler_runs_are_audited_too(self):
        tracer = RingBufferTracer()
        result, _, _ = _lucid_run(tracer=tracer)
        audit = result.telemetry.audit
        starts = tracer.of_kind("start")
        assert len(audit) == len(starts)
        profiled = [e for e in starts if e.data["profiling"]]
        assert profiled, "tiny trace should profile some jobs"
        for event in profiled:
            modes = [d.mode for d in audit.for_job(event.job_id)]
            assert "profiling" in modes

    def test_explicit_audit_without_tracer(self):
        audit = DecisionAudit()
        result, scheduler, _ = _lucid_run(audit=audit,
                                          enable_profiler=False)
        assert result.telemetry is None  # untraced run stays untraced
        assert len(audit) == len(result.records)
        text = audit.explain(result.records[0].job_id)
        assert "priority" in text

    def test_decisions_mirrored_as_trace_events(self):
        tracer = RingBufferTracer()
        result, _, _ = _lucid_run(tracer=tracer, enable_profiler=False)
        decisions = tracer.of_kind("decision")
        assert len(decisions) == len(result.telemetry.audit)

    def test_audit_jsonl_export(self, tmp_path):
        tracer = RingBufferTracer()
        result, _, _ = _lucid_run(tracer=tracer, enable_profiler=False)
        path = str(tmp_path / "audit.jsonl")
        written = result.telemetry.audit.to_jsonl(path)
        lines = [json.loads(line) for line in open(path)]
        assert len(lines) == written == len(result.telemetry.audit) + \
            len(result.telemetry.audit.refits)
        assert all("mode" in line or line.get("kind") == "refit"
                   for line in lines)


def test_no_placement_carries_a_verdict_from_an_earlier_pass():
    """A verdict belongs to the pass whose binder search made it.  In
    ``fallback`` mode an exclusive placement runs no search before it
    lands, and in ``off`` mode no search runs at all, so those
    decisions carry no verdict; the contended venus@400 replay used to
    attach five verdicts noted minutes before."""
    generator = TraceGenerator(VENUS.with_jobs(400))
    audit = DecisionAudit(attribution=True)
    scheduler = LucidScheduler(generator.generate_history(),
                               LucidConfig(seed=7), audit=audit)
    Simulator(generator.build_cluster(), generator.generate(),
              scheduler).run()
    searchless = [d for d in audit.records
                  if d.mode in ("exclusive", "relaxed")
                  and d.sharing_mode in ("fallback", "off")]
    assert searchless
    assert [d for d in searchless if d.binder is not None] == []
    assert any(d.binder is not None for d in audit.records)


class TestBinderVerdict:
    def test_accept_and_decline_render(self):
        accept = BinderVerdict(job_id=1, mate_id=2, mode="DEFAULT",
                               gss_capacity=2, job_score=1, mate_score=1,
                               candidates=3)
        assert accept.accepted
        assert "mate 2" in accept.reason_text()

        decline = BinderVerdict(job_id=1, mate_id=None, mode="DEFAULT",
                                gss_capacity=2, job_score=2, candidates=4,
                                rejections={"gss_budget": 3, "memory": 1})
        assert not decline.accepted
        assert "gss_budget x3" in decline.reason_text()

        disabled = BinderVerdict(job_id=1, mate_id=None, mode="DISABLED",
                                 gss_capacity=0)
        assert "sharing disabled" in disabled.reason_text()

    def test_packed_decision_explanation(self):
        verdict = BinderVerdict(job_id=42, mate_id=17, mode="DEFAULT",
                                gss_capacity=2, job_score=1, mate_score=1,
                                candidates=5)
        decision = PlacementDecision(
            time=120.0, job_id=42, mode="shared", gpu_ids=(4, 5),
            node_ids=(0, 0), priority=3600.0, estimated_duration=1800.0,
            sharing_mode="eager", mate_id=17, binder=verdict)
        text = decision.explain()
        assert "packed with job 17" in text
        assert "binder accepted mate 17" in text


class TestRefitAudit:
    class _StubEstimator:
        def __init__(self):
            self.updates = 0
            self.refit_calls = 0

        def update(self, record):
            self.updates += 1

        def refit(self):
            self.refit_calls += 1

    class _Record:
        pass

    def test_refit_recorded(self):
        audit = DecisionAudit()
        estimator = self._StubEstimator()
        engine = UpdateEngine(estimator, interval=100.0, min_new_records=2)
        engine.audit = audit
        engine.collect(self._Record(), now=0.0)
        engine.collect(self._Record(), now=1.0)
        assert not engine.maybe_refit(50.0)
        assert engine.maybe_refit(150.0)
        assert len(audit.refits) == 1
        assert audit.refits[0].new_records == 2
        assert audit.refits[0].model == "workload_estimate"

    class _QualityEstimator(_StubEstimator):
        def fit_quality(self):
            return 0.75, 42

    def test_refit_quality_recorded(self):
        audit = DecisionAudit()
        estimator = self._QualityEstimator()
        engine = UpdateEngine(estimator, interval=100.0, min_new_records=1)
        engine.audit = audit
        engine.collect(self._Record(), now=0.0)
        assert engine.maybe_refit(150.0)
        record = audit.refits[0]
        assert record.r2 == 0.75
        assert record.samples == 42
        assert record.wall_seconds is None  # unprofiled run
        exported = record.to_dict()
        assert exported["r2"] == 0.75 and exported["samples"] == 42
        assert "wall_seconds" not in exported

    def test_refit_wall_time_via_profiler_span(self):
        from repro.obs import SimProfiler

        engine = UpdateEngine(self._StubEstimator(), interval=100.0,
                              min_new_records=1)
        engine.profiler = SimProfiler()
        engine.audit = DecisionAudit()
        engine.collect(self._Record(), now=0.0)
        assert engine.maybe_refit(150.0)
        wall = engine.audit.refits[0].wall_seconds
        assert wall is not None and wall >= 0.0
        assert engine.profiler.span_counts.get("lucid.refit") == 1


class TestAtomicJsonlExport:
    def _audit_with_one_decision(self):
        audit = DecisionAudit()
        audit.record(PlacementDecision(
            time=1.0, job_id=7, mode="exclusive", gpu_ids=(0,),
            node_ids=(0,), priority=10.0, estimated_duration=100.0,
            sharing_mode="off"))
        return audit

    def test_creates_parent_directories(self, tmp_path):
        audit = self._audit_with_one_decision()
        path = tmp_path / "deeply" / "nested" / "audit.jsonl"
        assert audit.to_jsonl(str(path)) == 1
        assert path.exists()

    def test_no_tmp_file_left_behind(self, tmp_path):
        audit = self._audit_with_one_decision()
        path = tmp_path / "audit.jsonl"
        audit.to_jsonl(str(path))
        leftovers = [p.name for p in tmp_path.iterdir()]
        assert leftovers == ["audit.jsonl"]

    def test_round_trip_preserves_attributions(self, tmp_path):
        audit = DecisionAudit(attribution=True)
        result, scheduler, _ = _lucid_run(audit=audit,
                                          enable_profiler=False)
        assert any(d.attribution is not None for d in audit.records)
        path = str(tmp_path / "audit.jsonl")
        audit.to_jsonl(path)
        reloaded = DecisionAudit.from_jsonl(path)
        assert len(reloaded) == len(audit)
        assert len(reloaded.refits) == len(audit.refits)
        for before, after in zip(audit.records, reloaded.records):
            assert after.to_dict() == before.to_dict()
            if before.attribution is not None:
                assert after.attribution is not None
                assert after.attribution.terms == before.attribution.terms


class TestCounterfactual:
    def _audited_packing_model(self):
        from repro.core import PackingAnalyzeModel
        from repro.workloads import InterferenceModel, ResourceProfile

        model = PackingAnalyzeModel().fit(InterferenceModel())
        audit = DecisionAudit(attribution=True)
        audit.bind_vector_attributor("sharing", model.attribute_vector)
        profile = ResourceProfile(95.0, 60.0, 9000.0, False)
        verdict = BinderVerdict(job_id=5, mate_id=None, mode="DEFAULT",
                                gss_capacity=2, job_score=2,
                                attribution=model.attribute(profile))
        audit.record(PlacementDecision(
            time=1.0, job_id=5, mode="exclusive", gpu_ids=(0,),
            node_ids=(0,), priority=10.0, estimated_duration=100.0,
            sharing_mode="eager", binder=verdict))
        return audit, model

    def test_sharing_counterfactual_reruns_frozen_model(self):
        audit, model = self._audited_packing_model()
        probe = audit.counterfactual(5, which="sharing", gpu_util=5.0)
        assert probe.which == "sharing"
        assert probe.overrides == {"gpu_util": 5.0}
        # A near-idle GPU should score no higher than the busy baseline.
        assert probe.probe.predicted <= probe.baseline.predicted
        assert probe.delta == probe.probe.predicted - \
            probe.baseline.predicted
        assert "with gpu_util=5" in probe.render()

    def test_unknown_kind_raises_keyerror(self):
        audit, _ = self._audited_packing_model()
        with pytest.raises(KeyError, match="no frozen model"):
            audit.counterfactual(5, which="weather")

    def test_unknown_feature_raises_valueerror(self):
        audit, _ = self._audited_packing_model()
        with pytest.raises(ValueError, match="unknown feature"):
            audit.counterfactual(5, which="sharing", flux=1.0)

    def test_job_without_attribution_raises_keyerror(self):
        audit, _ = self._audited_packing_model()
        with pytest.raises(KeyError, match="no recorded"):
            audit.counterfactual(999, which="sharing")
