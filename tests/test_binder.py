"""Tests for the Affine-Jobpair Binder (§3.3)."""

import numpy as np
import pytest

from repro.cluster import Cluster, find_consolidated
from repro.core.binder import AffineJobpairBinder, PackingMode
from repro.schedulers.base import Scheduler
from repro.sim import Simulator
from repro.workloads import GPU_MEMORY_MB

from conftest import make_job


class _Harness(Scheduler):
    """Starts jobs exclusively as told; exposes the engine for the binder."""

    def schedule(self, now):
        pass


def engine_with_running(jobs, extra=()):
    """Build an engine with ``jobs`` started exclusively.

    ``extra`` jobs are registered with the engine (so they may be packed
    later by a test) but not started.
    """
    from repro.workloads.job import JobStatus

    cluster = Cluster.homogeneous(4, vc_name="vc1")
    sim = Simulator(cluster, list(jobs) + list(extra), _Harness())
    sim.scheduler.attach(sim)
    for job in jobs:
        job.status = JobStatus.PENDING
        gpus = find_consolidated(cluster, job.gpu_num, vc=job.vc)
        sim.start_job(job, gpus)
    return sim


def const_estimate(value=3600.0):
    return lambda job: value


@pytest.fixture
def binder():
    return AffineJobpairBinder()


class TestGSSBudget:
    def test_tiny_plus_jumbo_allowed(self, binder):
        mate = make_job(1, gpu_util=90.0)
        mate.sharing_score = 2
        sim = engine_with_running([mate])
        job = make_job(2, gpu_util=10.0)
        job.sharing_score = 0
        assert binder.find_mate(sim, job, const_estimate()) is mate

    def test_medium_plus_jumbo_blocked(self, binder):
        mate = make_job(1, gpu_util=90.0)
        mate.sharing_score = 2
        sim = engine_with_running([mate])
        job = make_job(2, gpu_util=50.0)
        job.sharing_score = 1
        assert binder.find_mate(sim, job, const_estimate()) is None

    def test_apathetic_mode_tightens_budget(self, binder):
        mate = make_job(1, gpu_util=50.0)
        mate.sharing_score = 1
        sim = engine_with_running([mate])
        job = make_job(2, gpu_util=50.0)
        job.sharing_score = 1
        # M+M is allowed in Default mode (sum == GSS capacity 2) ...
        binder.mode = PackingMode.DEFAULT
        assert binder.find_mate(sim, job, const_estimate()) is mate
        # ... but not in Apathetic mode (capacity 1).
        binder.mode = PackingMode.APATHETIC
        assert binder.find_mate(sim, job, const_estimate()) is None

    def test_disabled_mode(self, binder):
        mate = make_job(1, gpu_util=10.0)
        mate.sharing_score = 0
        sim = engine_with_running([mate])
        job = make_job(2, gpu_util=10.0)
        job.sharing_score = 0
        binder.mode = PackingMode.DISABLED
        assert binder.find_mate(sim, job, const_estimate()) is None


class TestPackingRules:
    def test_rule2_different_gpu_demand_blocked(self, binder):
        mate = make_job(1, gpu_num=2, gpu_util=10.0)
        mate.sharing_score = 0
        sim = engine_with_running([mate])
        job = make_job(2, gpu_num=1, gpu_util=10.0)
        job.sharing_score = 0
        assert binder.find_mate(sim, job, const_estimate()) is None

    def test_rule3_no_third_resident(self, binder):
        mate = make_job(1, gpu_util=5.0)
        mate.sharing_score = 0
        first = make_job(2, gpu_util=5.0)
        first.sharing_score = 0
        sim = engine_with_running([mate], extra=[first])
        sim.start_job(first, sim.gpus_of(mate))  # pack a pair
        job = make_job(3, gpu_util=5.0)
        job.sharing_score = 0
        assert binder.find_mate(sim, job, const_estimate()) is None

    def test_rule1_memory_limit(self, binder):
        mate = make_job(1, gpu_util=10.0, mem_mb=GPU_MEMORY_MB * 0.7)
        mate.sharing_score = 0
        sim = engine_with_running([mate])
        job = make_job(2, gpu_util=10.0, mem_mb=GPU_MEMORY_MB * 0.5)
        job.sharing_score = 0
        assert binder.find_mate(sim, job, const_estimate()) is None

    def test_rule5_distributed_not_packed(self, binder):
        mate = make_job(1, gpu_num=16, gpu_util=10.0)
        mate.sharing_score = 0
        sim = engine_with_running([mate])
        job = make_job(2, gpu_num=16, gpu_util=10.0)
        job.sharing_score = 0
        assert binder.find_mate(sim, job, const_estimate()) is None

    def test_unprofiled_job_not_packed(self, binder):
        mate = make_job(1, gpu_util=10.0)
        mate.sharing_score = 0
        sim = engine_with_running([mate])
        job = make_job(2, gpu_util=10.0)
        job.sharing_score = None
        assert binder.find_mate(sim, job, const_estimate()) is None

    def test_vc_isolation(self, binder):
        mate = make_job(1, gpu_util=10.0, vc="vc1")
        mate.sharing_score = 0
        sim = engine_with_running([mate])
        job = make_job(2, gpu_util=10.0, vc="vc2")
        job.sharing_score = 0
        assert binder.find_mate(sim, job, const_estimate()) is None


class TestTimeAwareness:
    def test_nearly_finished_mate_rejected(self, binder):
        mate = make_job(1, gpu_util=10.0)
        mate.sharing_score = 0
        sim = engine_with_running([mate])
        job = make_job(2, gpu_util=10.0)
        job.sharing_score = 0
        estimates = {1: 60.0, 2: 3600.0}  # mate almost done
        assert binder.find_mate(sim, job,
                                lambda j: estimates[j.job_id]) is None

    def test_short_job_rides_long_mate(self, binder):
        """A short job packing onto a long-running light mate is exactly
        the profitable case Indolent Packing wants (no imbalance veto)."""
        mate = make_job(1, gpu_util=10.0)
        mate.sharing_score = 0
        sim = engine_with_running([mate])
        job = make_job(2, gpu_util=10.0)
        job.sharing_score = 0
        estimates = {1: 100 * 3600.0, 2: 120.0}
        assert binder.find_mate(sim, job,
                                lambda j: estimates[j.job_id]) is mate


class TestMateSelection:
    def test_prefers_lowest_interference_mate(self, binder):
        tiny = make_job(1, gpu_util=8.0)
        tiny.sharing_score = 0
        medium = make_job(2, gpu_util=50.0)
        medium.sharing_score = 1
        sim = engine_with_running([tiny, medium])
        job = make_job(3, gpu_util=30.0)
        job.sharing_score = 1
        assert binder.find_mate(sim, job, const_estimate()) is tiny

    def test_pass_index_consistency(self, binder):
        mate = make_job(1, gpu_util=10.0)
        mate.sharing_score = 0
        job = make_job(2, gpu_util=10.0)
        job.sharing_score = 0
        sim = engine_with_running([mate], extra=[job])
        binder.begin_pass(sim)
        assert binder.find_mate(sim, job, const_estimate()) is mate
        # After the mate gets packed, the stale index entry is re-checked.
        sim.start_job(job, sim.gpus_of(mate))
        other = make_job(3, gpu_util=10.0)
        other.sharing_score = 0
        assert binder.find_mate(sim, other, const_estimate()) is None
        binder.end_pass()


class TestDynamicStrategy:
    def test_mode_transitions(self, binder):
        assert binder.update_mode(0.1, 0.1, queue_pressure=0) \
            is PackingMode.DISABLED
        assert binder.update_mode(0.5, 0.4, queue_pressure=2) \
            is PackingMode.APATHETIC
        assert binder.update_mode(1.2, 1.5, queue_pressure=30) \
            is PackingMode.DEFAULT

    def test_burst_forecast_keeps_sharing_on(self, binder):
        """No queue now, but a burst is coming: stay ready to pack."""
        mode = binder.update_mode(0.2, 2.0, queue_pressure=0)
        assert mode is not PackingMode.DISABLED

    def test_validation(self):
        with pytest.raises(ValueError):
            AffineJobpairBinder(gss_capacity=3)


class TestInstability:
    def test_unstable_pairs_detected(self, binder, rng):
        a = make_job(1, gpu_util=10.0)
        a.sharing_score = 0
        b = make_job(2, gpu_util=10.0)
        b.sharing_score = 0
        sim = engine_with_running([a], extra=[b])
        sim.start_job(b, sim.gpus_of(a))
        evicted = binder.unstable_pairs(sim, rng, instability_rate=1.0)
        assert [j.job_id for j in evicted] == [2]  # later arrival evicted

    def test_zero_rate_no_evictions(self, binder, rng):
        a = make_job(1, gpu_util=10.0)
        sim = engine_with_running([a])
        assert binder.unstable_pairs(sim, rng, instability_rate=0.0) == []
