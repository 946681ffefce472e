"""Tests for the scheduler decision audit."""

import pytest

from repro.core import LucidConfig, LucidScheduler, UpdateEngine
from repro.obs import (
    BinderVerdict,
    DecisionAudit,
    PlacementDecision,
    RingBufferTracer,
    read_jsonl,
)
from repro.sim import Simulator
from repro.traces import VENUS, TraceGenerator, TraceSpec


def _lucid_run(observers=(), n_jobs=40, span_days=0.25, **config_changes):
    spec = TraceSpec(name="tiny", n_nodes=4, n_vcs=2, n_jobs=n_jobs,
                     full_n_jobs=n_jobs, mean_duration=1500.0,
                     span_days=span_days, n_users=6, seed=21)
    generator = TraceGenerator(spec)
    cluster = generator.build_cluster()
    history = generator.generate_history()
    jobs = generator.generate()
    config = LucidConfig(**config_changes)
    scheduler = LucidScheduler(history, config=config)
    sim = Simulator(cluster, jobs, scheduler, observers=observers)
    return sim.run(), scheduler, sim


class TestLucidAudit:
    def test_every_start_has_exactly_one_matching_record(self):
        # Profiler off: each job starts exactly once, via the orchestrator.
        tracer, audit = RingBufferTracer(), DecisionAudit()
        result, scheduler, _ = _lucid_run([tracer, audit],
                                          enable_profiler=False,
                                          instability_rate=0.0)
        assert not hasattr(scheduler, "audit")

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
        tracer, audit = RingBufferTracer(), DecisionAudit()
        _lucid_run([tracer, audit])
        starts = tracer.of_kind("start")
        assert len(audit) == len(starts)
        profiled = [e for e in starts if e.data["profiling"]]
        assert profiled, "tiny trace should profile some jobs"
        for event in profiled:
            modes = [d.mode for d in audit.for_job(event.job_id)]
            assert "profiling" in modes

    def test_explicit_audit_without_tracer(self):
        """An audit alone is the stream: attaching it enables the
        decisions, and nothing else listens."""
        audit = DecisionAudit()
        result, scheduler, sim = _lucid_run([audit],
                                            enable_profiler=False)
        assert sim.tracer is audit
        assert len(audit) == len(result.records)
        text = audit.explain(result.records[0].job_id)
        assert "priority" in text

    def test_decisions_mirrored_as_trace_events(self):
        tracer, audit = RingBufferTracer(), DecisionAudit()
        _lucid_run([tracer, audit], enable_profiler=False)
        decisions = tracer.of_kind("decision")
        assert len(decisions) == len(audit)

    def test_audit_jsonl_export(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        audit = DecisionAudit()
        with RingBufferTracer(sink=path) as tracer:
            _lucid_run([tracer, audit], enable_profiler=False)
        lines = [line for line in read_jsonl(path)
                 if line["kind"] in ("decision", "refit")]
        assert len(lines) == len(audit) + len(audit.refits)
        assert all("mode" in line or line["kind"] == "refit"
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
                               LucidConfig(seed=7))
    Simulator(generator.build_cluster(), generator.generate(),
              scheduler, observers=[audit]).run()
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
        engine.collect(self._Record(), now=0.0)
        engine.collect(self._Record(), now=1.0)
        assert not engine.maybe_refit(50.0, tracer=audit)
        assert engine.maybe_refit(150.0, tracer=audit)
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
        engine.collect(self._Record(), now=0.0)
        assert engine.maybe_refit(150.0, tracer=audit)
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
        profiler, audit = SimProfiler(), DecisionAudit()
        engine.collect(self._Record(), now=0.0)
        assert engine.maybe_refit(150.0, profiler, audit)
        wall = audit.refits[0].wall_seconds
        assert wall is not None and wall >= 0.0
        assert profiler.span_counts.get("lucid.refit") == 1


class TestAtomicJsonlExport:
    """The decisions reach disk through the event log's sink."""

    def _export_one_decision(self, path):
        with RingBufferTracer(sink=str(path)) as tracer:
            PlacementDecision(
                time=1.0, job_id=7, mode="exclusive", gpu_ids=(0,),
                node_ids=(0,), priority=10.0, estimated_duration=100.0,
                sharing_mode="off").emit(tracer)

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deeply" / "nested" / "events.jsonl"
        self._export_one_decision(path)
        assert len(DecisionAudit.from_jsonl(str(path))) == 1

    def test_no_tmp_file_left_behind(self, tmp_path):
        self._export_one_decision(tmp_path / "events.jsonl")
        leftovers = [p.name for p in tmp_path.iterdir()]
        assert leftovers == ["events.jsonl"]

    def test_round_trip_preserves_attributions(self, tmp_path):
        """The audit rebuilt from ``events.jsonl`` is the live one,
        records and refits both."""
        audit = DecisionAudit(attribution=True)
        path = str(tmp_path / "events.jsonl")
        with RingBufferTracer(sink=path) as tracer:
            _lucid_run([tracer, audit], n_jobs=120, span_days=0.5,
                       enable_profiler=False, update_interval=3600.0)
        assert any(d.attribution is not None for d in audit.records)
        assert audit.refits
        reloaded = DecisionAudit.from_jsonl(path)
        assert reloaded.records == audit.records
        assert reloaded.refits == audit.refits
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
        PlacementDecision(
            time=1.0, job_id=5, mode="exclusive", gpu_ids=(0,),
            node_ids=(0,), priority=10.0, estimated_duration=100.0,
            sharing_mode="eager", binder=verdict).emit(audit)
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


def _venus_run(observers=(), late=()):
    """Lucid on venus@120 (seed 7); ``late`` observers join right after
    ``begin()``."""
    generator = TraceGenerator(VENUS.with_jobs(120).with_seed(7))
    scheduler = LucidScheduler(generator.generate_history(),
                               LucidConfig(seed=7))
    sim = Simulator(generator.build_cluster(), generator.generate(),
                    scheduler, observers=observers)
    sim.begin()
    for observer in late:
        sim.observe(observer)
    while sim.step_batch():
        pass
    sim.finalize()


class TestLateAttach:
    """Lucid emits on whatever stream is attached when it decides, so an
    observer that joins after ``begin()`` (as the serve daemon's do)
    sees what a constructor-attached one sees."""

    def test_late_stream_observer_gets_decisions_and_refits(self):
        early, late = RingBufferTracer(), RingBufferTracer()
        _venus_run([early])
        _venus_run(late=[late])
        counts = early.counts_by_kind()
        assert counts["decision"] > 0 and counts["refit"] > 0
        assert late.counts_by_kind() == counts

    def test_late_audit_matches_early_audit(self):
        early = DecisionAudit(attribution=True)
        late = DecisionAudit(attribution=True)
        _venus_run([early])
        _venus_run(late=[late])
        assert early.records and early.refits
        assert any(d.attribution is not None for d in early.records)
        assert late.records == early.records
        assert late.refits == early.refits

    def test_counterfactual_uses_the_schedulers_models(self):
        """An attributing audit attached before ``begin()`` re-runs the
        models ``begin()`` trained."""
        audit = DecisionAudit(attribution=True)
        _lucid_run([audit], enable_profiler=False)
        job_id = next(d.job_id for d in audit.records
                      if d.attribution is not None)
        probe = audit.counterfactual(job_id, gpu_num=8)
        assert probe.overrides == {"gpu_num": 8.0}
        assert probe.baseline.predicted != probe.probe.predicted
