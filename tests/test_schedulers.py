"""Behavioural tests for the baseline schedulers."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.schedulers import (
    FIFOScheduler,
    HorusScheduler,
    QSSFScheduler,
    SJFScheduler,
    TiresiasScheduler,
)
from repro.schedulers.qssf import HistoryDurationModel
from repro.sim import Simulator
from repro.traces import TraceGenerator, VENUS

from conftest import make_job


def run(jobs, scheduler, nodes=1):
    cluster = Cluster.homogeneous(nodes, vc_name="vc1")
    return Simulator(cluster, jobs, scheduler).run()


def by_id(result):
    return {r.job_id: r for r in result.records}


class TestFIFO:
    def test_arrival_order_strict(self):
        # Node has 8 GPUs; job 1 takes all; jobs 2 (big) and 3 (small)
        # queue. FIFO must run 2 before 3 even though 3 would fit earlier.
        jobs = [
            make_job(1, duration=1000.0, gpu_num=8, submit_time=0.0),
            make_job(2, duration=100.0, gpu_num=8, submit_time=1.0),
            make_job(3, duration=100.0, gpu_num=1, submit_time=2.0),
        ]
        records = by_id(run(jobs, FIFOScheduler()))
        assert records[3].jct > records[2].jct  # 3 waited behind 2

    def test_vc_queues_independent(self):
        cluster = Cluster({"a": 1, "b": 1})
        jobs = [
            make_job(1, duration=1000.0, gpu_num=8, vc="a", submit_time=0.0),
            make_job(2, duration=100.0, gpu_num=8, vc="a", submit_time=1.0),
            make_job(3, duration=100.0, gpu_num=1, vc="b", submit_time=2.0),
        ]
        result = Simulator(cluster, jobs, FIFOScheduler()).run()
        records = by_id(result)
        assert records[3].queue_delay == pytest.approx(0.0)  # b unaffected


class TestSJF:
    def test_shortest_first(self):
        jobs = [
            make_job(1, duration=1000.0, gpu_num=8, submit_time=0.0),
            make_job(2, duration=5000.0, gpu_num=8, submit_time=1.0),
            make_job(3, duration=100.0, gpu_num=8, submit_time=2.0),
        ]
        records = by_id(run(jobs, SJFScheduler()))
        # Job 3 (shortest) runs before job 2 once job 1 finishes.
        finish = lambda r: r.submit_time + r.jct
        assert finish(records[3]) < finish(records[2])

    def test_beats_fifo_on_avg_jct(self, tiny_spec):
        def run_sched(scheduler):
            gen = TraceGenerator(tiny_spec)
            cluster = gen.build_cluster()
            return Simulator(cluster, gen.generate(), scheduler).run()

        assert run_sched(SJFScheduler()).avg_jct <= \
            run_sched(FIFOScheduler()).avg_jct


class TestQSSF:
    @pytest.fixture(scope="class")
    def data(self):
        gen = TraceGenerator(VENUS.with_jobs(400))
        return gen.generate_history(1.0), gen.generate()

    def test_duration_model_learns_recurrence(self, data):
        history, jobs = data
        model = HistoryDurationModel().fit(history)
        errors = []
        for job in jobs[:150]:
            pred = model.predict(job)
            errors.append(abs(np.log(pred) - np.log(job.duration)))
        assert np.median(errors) < 1.5  # within ~4.5x for half the jobs

    def test_requires_history(self):
        with pytest.raises(ValueError):
            HistoryDurationModel().fit([])

    def test_scheduler_orders_by_service(self, data):
        history, _ = data
        scheduler = QSSFScheduler(history)
        cluster = Cluster.homogeneous(1, vc_name="vc1")
        blocker = make_job(1, duration=500.0, gpu_num=8, submit_time=0.0,
                           vc="vc1")
        jobs = [blocker,
                make_job(2, duration=50.0, gpu_num=8, submit_time=1.0,
                         vc="vc1", name=history[0].name, user=history[0].user)]
        result = Simulator(cluster, jobs, scheduler).run()
        assert result.n_jobs == 2


#: One contended QSSF replay; prints its state digest and queuing delay.
_QSSF_REPLAY = """
from repro.core.factory import make_scheduler
from repro.serve.core import state_digest
from repro.sim.engine import Simulator
from repro.traces.generator import TraceGenerator
from repro.traces.spec import VENUS
gen = TraceGenerator(VENUS.with_jobs(400))
cluster = gen.build_cluster()
history = gen.generate_history()
sim = Simulator(cluster, gen.generate(), make_scheduler("qssf", history))
result = sim.run()
print(state_digest(sim), result.avg_queue_delay)
"""


def test_qssf_decisions_independent_of_hash_seed():
    """QSSF buckets job names; a salted ``hash(str)`` made its decisions
    (and a recovering serve daemon's) differ between processes."""
    import repro
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run([sys.executable, "-c", _QSSF_REPLAY], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(done.stdout.split())
    (digest_a, queue_a), (digest_b, _) = outputs
    assert float(queue_a) > 0  # contended: ordering decisions matter
    assert digest_a == digest_b


class TestTiresias:
    def test_preempts_long_job_for_newcomers(self):
        # One node: a long job hogs it; a newcomer forces preemption at the
        # next reshuffle because the long job has more attained service.
        jobs = [
            make_job(1, duration=50_000.0, gpu_num=8, submit_time=0.0),
            make_job(2, duration=100.0, gpu_num=8, submit_time=30_000.0),
        ]
        result = run(jobs, TiresiasScheduler())
        records = by_id(result)
        assert records[1].preemptions >= 1
        # Short job finishes long before the long one.
        finish = lambda r: r.submit_time + r.jct
        assert finish(records[2]) < finish(records[1])

    def test_preemption_costs_queue_time(self):
        jobs = [
            make_job(1, duration=50_000.0, gpu_num=8, submit_time=0.0),
            make_job(2, duration=100.0, gpu_num=8, submit_time=30_000.0),
        ]
        records = by_id(run(jobs, TiresiasScheduler()))
        # 62 s restore overhead shows up as queue delay on resume.
        assert records[1].queue_delay >= 62.0

    def test_no_preemption_when_capacity_suffices(self):
        jobs = [make_job(i, duration=500.0, gpu_num=1, submit_time=0.0)
                for i in range(1, 5)]
        result = run(jobs, TiresiasScheduler())
        assert result.total_preemptions() == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            TiresiasScheduler(queue_threshold=-1)


class TestHorus:
    def test_packs_light_jobs(self):
        jobs = [
            make_job(1, duration=800.0, gpu_num=8, gpu_util=20.0,
                     submit_time=0.0),
            make_job(2, duration=800.0, gpu_num=8, gpu_util=20.0,
                     submit_time=1.0),
        ]
        result = run(jobs, HorusScheduler())
        assert result.utilization.gpu_shared > 0.0
        # Packing avoided serialization: both done well before 1600 s.
        assert result.makespan < 1200.0

    def test_respects_util_target(self):
        jobs = [
            make_job(1, duration=500.0, gpu_num=8, gpu_util=90.0,
                     submit_time=0.0),
            make_job(2, duration=500.0, gpu_num=8, gpu_util=90.0,
                     submit_time=1.0),
        ]
        result = run(jobs, HorusScheduler(util_target=100.0))
        # 90 + 90 > 100: no packing; jobs serialize on the single node.
        assert result.utilization.gpu_shared == 0.0
        assert result.makespan > 950.0

    def test_validation(self):
        with pytest.raises(ValueError):
            HorusScheduler(util_target=0.0)
