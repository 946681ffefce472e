"""Tests for the SLO/deadline extension (paper §6)."""

import numpy as np
import pytest

from repro import Simulator, TraceGenerator
from repro.core import LucidScheduler
from repro.core.slo_lucid import SLOLucidScheduler
from repro.traces import TraceSpec
from repro.traces.slo import assign_deadlines, slo_report

from conftest import make_job

SPEC = TraceSpec(
    name="slo", n_nodes=6, n_vcs=2, n_jobs=400, full_n_jobs=400,
    mean_duration=2200.0, span_days=0.4, n_users=16, seed=911,
)


def run(scheduler_cls, fraction=0.3, slack=(1.3, 2.5)):
    generator = TraceGenerator(SPEC)
    cluster = generator.build_cluster()
    history = generator.generate_history()
    jobs = generator.generate()
    assign_deadlines(jobs, fraction=fraction, slack_range=slack, seed=1)
    scheduler = scheduler_cls(history)
    return Simulator(cluster, jobs, scheduler).run()


class TestAssignDeadlines:
    def test_fraction_and_slack(self):
        jobs = [make_job(i, duration=100.0, submit_time=float(i))
                for i in range(1, 401)]
        count = assign_deadlines(jobs, fraction=0.5, slack_range=(2.0, 3.0),
                                 seed=7)
        assert 140 < count < 260  # ~50%
        for job in jobs:
            if job.deadline is not None:
                slack = (job.deadline - job.submit_time) / job.duration
                assert 2.0 <= slack <= 3.0

    def test_zero_fraction(self):
        jobs = [make_job(1)]
        assert assign_deadlines(jobs, fraction=0.0) == 0
        assert jobs[0].deadline is None

    def test_validation(self):
        with pytest.raises(ValueError):
            assign_deadlines([], fraction=1.5)
        with pytest.raises(ValueError):
            assign_deadlines([], slack_range=(0.5, 2.0))

    def test_deterministic(self):
        a = [make_job(i, submit_time=float(i)) for i in range(1, 51)]
        b = [make_job(i, submit_time=float(i)) for i in range(1, 51)]
        assign_deadlines(a, seed=3)
        assign_deadlines(b, seed=3)
        assert [j.deadline for j in a] == [j.deadline for j in b]


class TestSLOReport:
    def test_report_fields(self):
        result = run(LucidScheduler)
        report = slo_report(result)
        assert report["n_slo_jobs"] > 0
        assert 0.0 <= report["attainment"] <= 1.0
        assert report["best_effort_jct_hrs"] > 0.0

    def test_met_deadline_property(self):
        job = make_job(1, duration=100.0, submit_time=0.0)
        job.deadline = 150.0
        job.finish_time = 120.0
        from repro.workloads.job import JobRecord
        record = JobRecord.from_job(job)
        assert record.met_deadline is True
        job2 = make_job(2, duration=100.0, submit_time=0.0)
        job2.deadline = 110.0
        job2.finish_time = 120.0
        assert JobRecord.from_job(job2).met_deadline is False

    def test_best_effort_jobs_excluded(self):
        job = make_job(1, duration=100.0)
        job.finish_time = 100.0
        from repro.workloads.job import JobRecord
        assert JobRecord.from_job(job).met_deadline is None


class TestSLOLucid:
    def test_runs_and_reports(self):
        result = run(SLOLucidScheduler)
        assert result.n_jobs == SPEC.n_jobs
        report = slo_report(result)
        assert report["attainment"] > 0.5

    def test_improves_attainment_over_plain_lucid(self):
        slo = slo_report(run(SLOLucidScheduler))
        plain = slo_report(run(LucidScheduler))
        assert slo["attainment"] >= plain["attainment"]

    def test_best_effort_cost_is_bounded(self):
        slo = slo_report(run(SLOLucidScheduler))
        plain = slo_report(run(LucidScheduler))
        # SLO prioritization may delay best-effort jobs, but not wreck them.
        assert slo["best_effort_jct_hrs"] <= \
            plain["best_effort_jct_hrs"] * 1.5 + 0.1

    def test_urgent_jobs_skip_packing(self):
        generator = TraceGenerator(SPEC)
        history = generator.generate_history()
        scheduler = SLOLucidScheduler(history, slack_guard=0.5)

        class _Engine:
            now = 0.0

        engine = _Engine()  # the scheduler refers to it weakly
        scheduler.engine = engine
        urgent = make_job(1, duration=1000.0, submit_time=0.0)
        urgent.estimated_duration = 1000.0
        urgent.deadline = 1100.0  # slack 100 < guard 500
        assert scheduler._is_urgent(urgent)
        assert scheduler._find_mate(urgent) is None

    def test_relaxed_job_keeps_lucid_priority(self):
        generator = TraceGenerator(SPEC)
        history = generator.generate_history()
        scheduler = SLOLucidScheduler(history, slack_guard=0.5)

        class _Engine:
            now = 0.0

        engine = _Engine()  # the scheduler refers to it weakly
        scheduler.engine = engine
        scheduler.estimator = object()  # estimator-enabled priority path
        relaxed = make_job(1, duration=1000.0, submit_time=0.0, gpu_num=2)
        relaxed.estimated_duration = 1000.0
        relaxed.deadline = 10_000.0  # plenty of slack
        assert not scheduler._is_urgent(relaxed)
        assert scheduler._priority(relaxed) == pytest.approx(2 * 1000.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SLOLucidScheduler([make_job(1)], slack_guard=-1.0)
