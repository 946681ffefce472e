"""Tests for the Resource Orchestrator, System Tuner and Update Engine."""

import numpy as np
import pytest

from repro.core.estimator import WorkloadEstimateModel
from repro.core.orchestrator import ResourceOrchestrator
from repro.core.tuner import SystemTuner
from repro.core.update_engine import UpdateEngine
from repro.traces import TraceGenerator, VENUS
from repro.workloads.job import JobRecord

from conftest import make_job
from test_binder import engine_with_running


def no_mate(job):
    return None


class TestOrchestrator:
    def test_priority_order_respected(self):
        """Lower priority (gpu x estimate) starts first under scarcity."""
        running = make_job(1, gpu_num=8)
        running.sharing_score = 2
        short = make_job(2, gpu_num=8, duration=100.0)
        long = make_job(3, gpu_num=8, duration=100.0)
        sim = engine_with_running([running] * 0 or [running],
                                  extra=[short, long])
        # Cluster: 4 nodes of 8 -> 3 free nodes; both fit, order via priority.
        orchestrator = ResourceOrchestrator()
        estimates = {2: 100.0, 3: 50_000.0}
        placed = orchestrator.schedule(
            sim, [long, short],
            priority_fn=lambda j: j.gpu_num * estimates[j.job_id],
            find_mate=no_mate, sharing_mode="off")
        assert [j.job_id for j in placed] == [2, 3]

    def test_skips_unplaceable(self):
        running = make_job(1, gpu_num=8)
        big = make_job(2, gpu_num=32)  # cluster has 3 free nodes = 24 GPUs
        small = make_job(3, gpu_num=1)
        sim = engine_with_running([running], extra=[big, small])
        orchestrator = ResourceOrchestrator()
        placed = orchestrator.schedule(
            sim, [big, small], priority_fn=lambda j: 0.0,
            find_mate=no_mate, sharing_mode="off")
        assert [j.job_id for j in placed] == [3]

    def test_eager_packs_before_exclusive(self):
        mate = make_job(1, gpu_util=10.0)
        mate.sharing_score = 0
        job = make_job(2, gpu_util=10.0)
        job.sharing_score = 0
        sim = engine_with_running([mate], extra=[job])
        orchestrator = ResourceOrchestrator()
        placed = orchestrator.schedule(
            sim, [job], priority_fn=lambda j: 0.0,
            find_mate=lambda j: mate, sharing_mode="eager")
        assert placed == [job]
        assert sim.mate_ids(job) == (mate.job_id,)

    def test_fallback_prefers_exclusive(self):
        mate = make_job(1, gpu_util=10.0)
        mate.sharing_score = 0
        job = make_job(2, gpu_util=10.0)
        job.sharing_score = 0
        sim = engine_with_running([mate], extra=[job])
        orchestrator = ResourceOrchestrator()
        placed = orchestrator.schedule(
            sim, [job], priority_fn=lambda j: 0.0,
            find_mate=lambda j: mate, sharing_mode="fallback")
        assert placed == [job]
        assert sim.mate_ids(job) == ()  # free GPUs existed -> exclusive

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            ResourceOrchestrator().schedule(None, [], lambda j: 0,
                                            no_mate, sharing_mode="bogus")


class TestSystemTuner:
    def test_t_prof_tracks_distribution(self):
        durations = [30.0] * 45 + [10_000.0] * 55
        # With 45% of jobs at 30 s, a 40% target needs only the floor ...
        low = SystemTuner.recommend_t_prof(durations, target_finish_rate=0.40)
        assert low == 60.0
        # ... while a 50% target runs into the long mass and clamps high.
        high = SystemTuner.recommend_t_prof(durations, target_finish_rate=0.50)
        assert high == 600.0

    def test_t_prof_bounds_clamped(self):
        assert SystemTuner.recommend_t_prof([1.0] * 10) == 60.0
        assert SystemTuner.recommend_t_prof([1e6] * 10) == 600.0

    def test_t_prof_validation(self):
        with pytest.raises(ValueError):
            SystemTuner.recommend_t_prof([])
        with pytest.raises(ValueError):
            SystemTuner.recommend_t_prof([1.0], target_finish_rate=1.5)

    def test_profiler_nodes_scale_with_demand(self):
        light = [make_job(i, duration=100.0, gpu_num=1) for i in range(10)]
        heavy = [make_job(i, duration=10_000.0, gpu_num=8)
                 for i in range(500)]
        span = 86_400.0
        assert (SystemTuner.recommend_profiler_nodes(heavy, 200.0, span)
                > SystemTuner.recommend_profiler_nodes(light, 200.0, span))

    def test_profiler_nodes_at_least_one(self):
        assert SystemTuner.recommend_profiler_nodes([], 200.0, 86_400.0) == 1

    def test_threshold_grid_valid(self):
        grid = SystemTuner.binder_threshold_grid()
        assert all(m < t for m, t in grid)
        assert (0.85, 0.95) in grid

    def test_monotonic_constraint_helper(self):
        gen = TraceGenerator(VENUS.with_jobs(300))
        history = gen.generate_history(1.0)
        estimator = WorkloadEstimateModel(random_state=0).fit(history)
        SystemTuner.apply_monotonic_constraints(estimator)  # must not raise


class TestUpdateEngine:
    def _record(self, i, duration=100.0):
        return JobRecord(job_id=i, name=f"t{i}", user="u", vc="v",
                         submit_time=0.0, duration=duration, gpu_num=1,
                         jct=duration, queue_delay=0.0, preemptions=0,
                         finished_in_profiler=False)

    class _SpyEstimator:
        def __init__(self):
            self.updates = 0
            self.refits = 0

        def update(self, record):
            self.updates += 1

        def refit(self):
            self.refits += 1

    def test_collect_updates_immediately(self):
        spy = self._SpyEstimator()
        engine = UpdateEngine(spy, interval=100.0, min_new_records=1)
        engine.collect(self._record(1), now=0.0)
        assert spy.updates == 1

    def test_refit_after_interval(self):
        spy = self._SpyEstimator()
        engine = UpdateEngine(spy, interval=100.0, min_new_records=1)
        engine.collect(self._record(1), now=0.0)
        assert not engine.maybe_refit(50.0)
        assert engine.maybe_refit(150.0)
        assert spy.refits == 1

    def test_no_refit_without_enough_data(self):
        spy = self._SpyEstimator()
        engine = UpdateEngine(spy, interval=100.0, min_new_records=10)
        engine.collect(self._record(1), now=0.0)
        assert not engine.maybe_refit(500.0)

    def test_static_mode(self):
        spy = self._SpyEstimator()
        engine = UpdateEngine(spy, interval=None)
        engine.collect(self._record(1), now=0.0)
        assert not engine.maybe_refit(1e9)
        assert spy.refits == 0

    def test_none_estimator_tolerated(self):
        engine = UpdateEngine(None, interval=100.0)
        engine.collect(self._record(1), now=0.0)
        assert not engine.maybe_refit(1e9)
