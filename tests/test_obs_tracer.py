"""Tests for the structured-event tracer and its engine wiring."""

import json

import pytest

from repro import quick_simulation
from repro.cluster import Cluster
from repro.obs import (
    NULL_TRACER,
    RingBufferTracer,
    TraceEvent,
    events_from_dicts,
    read_jsonl,
)
from repro.obs.tracer import FAULT_KINDS, RELEASE_KINDS, TRACE_KINDS
from repro.schedulers import FIFOScheduler
from repro.sim import Simulator
from repro.traces import TraceGenerator, TraceSpec

from conftest import make_job


def _spec(n_jobs=60, seed=11):
    return TraceSpec(name="tiny", n_nodes=4, n_vcs=2, n_jobs=n_jobs,
                     full_n_jobs=n_jobs, mean_duration=1200.0,
                     span_days=0.25, n_users=8, seed=seed)


def _run_fifo(observers=(), n_jobs=60):
    generator = TraceGenerator(_spec(n_jobs=n_jobs))
    cluster = generator.build_cluster()
    jobs = generator.generate()
    sim = Simulator(cluster, jobs, FIFOScheduler(), observers=observers)
    return sim.run(), sim


class TestRingBufferTracer:
    def test_emits_and_queries(self):
        tracer = RingBufferTracer(capacity=10)
        tracer.emit(1.0, "submit", 7, vc="vc1")
        tracer.emit(2.0, "start", 7, gpus=[0, 1])
        assert tracer.n_emitted == 2
        assert [e.kind for e in tracer.events_of(7)] == ["submit", "start"]
        assert tracer.counts_by_kind() == {"submit": 1, "start": 1}

    def test_ring_eviction(self):
        tracer = RingBufferTracer(capacity=3)
        for i in range(5):
            tracer.emit(float(i), "submit", i)
        assert tracer.n_emitted == 5
        assert [e.job_id for e in tracer.events] == [2, 3, 4]

    def test_drop_count_on_overflow(self):
        tracer = RingBufferTracer(capacity=5)
        for i in range(3):
            tracer.emit(float(i), "submit", i)
        assert tracer.n_dropped == 0
        for i in range(3, 8):
            tracer.emit(float(i), "submit", i)
        # 8 emitted into a 5-slot ring: the 3 oldest were dropped.
        assert tracer.n_dropped == 3
        assert tracer.n_emitted == 8
        assert len(tracer.events) == 5

    def test_jsonl_sink_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with RingBufferTracer(sink=path) as tracer:
            tracer.emit(0.5, "submit", 1, vc="vc1")
            tracer.emit(1.5, "start", 1, gpus=[3], nodes=[0])
        records = read_jsonl(path)
        assert len(records) == 2
        events = events_from_dicts(records)
        assert events[0] == TraceEvent(0.5, "submit", 1, {"vc": "vc1"})
        assert events[1].data["gpus"] == [3]

    def test_sink_creates_parent_dirs_and_renames_atomically(self,
                                                             tmp_path):
        path = tmp_path / "deep" / "nested" / "events.jsonl"
        tracer = RingBufferTracer(sink=str(path))
        tracer.emit(0.5, "submit", 1)
        # Mid-run the data lives in the temp file, not the final path.
        assert not path.exists()
        assert path.with_name(path.name + ".tmp").exists()
        tracer.close()
        assert path.exists()
        assert not path.with_name(path.name + ".tmp").exists()
        assert len(read_jsonl(str(path))) == 1

    def test_unused_sink_writes_nothing(self, tmp_path):
        path = tmp_path / "events.jsonl"
        tracer = RingBufferTracer(sink=str(path))
        tracer.close()  # no emits: neither file should appear
        assert list(tmp_path.iterdir()) == []


class TestEngineTracing:
    def test_fifo_round_trip_and_ordering(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        tracer = RingBufferTracer(sink=path)
        result, _ = _run_fifo([tracer])
        tracer.close()

        records = read_jsonl(path)
        assert len(records) == tracer.n_emitted
        # JSONL preserves emission order, which is time-ordered.
        times = [r["t"] for r in records]
        assert times == sorted(times)

        # Every job's lifecycle is ordered submit -> sched_submit ->
        # start -> finish, and every finished job is fully covered.
        by_job = {}
        for record in records:
            if "job_id" in record:
                by_job.setdefault(record["job_id"], []).append(record["kind"])
        assert len(by_job) == len(result.records)
        for kinds in by_job.values():
            assert kinds.index("submit") < kinds.index("start")
            assert kinds.index("start") < kinds.index("finish")
            assert kinds[-1] in ("finish", "sched_finish")

        # Event counts agree with the simulation outcome.
        counts = tracer.counts_by_kind()
        assert counts["submit"] == len(result.records)
        assert counts["finish"] == len(result.records)
        assert counts["start"] >= len(result.records)

    def test_start_events_carry_gpu_sets(self):
        tracer = RingBufferTracer()
        result, sim = _run_fifo([tracer])
        for event in tracer.of_kind("start"):
            assert len(event.data["gpus"]) >= 1
            assert len(event.data["gpus"]) == len(event.data["nodes"])

    def test_disabled_tracer_changes_no_result_field(self):
        tracer = RingBufferTracer()
        baseline, plain = _run_fifo()
        nulled, nulled_sim = _run_fifo([NULL_TRACER])
        traced, traced_sim = _run_fifo([tracer])

        for other in (nulled, traced):
            assert other.makespan == baseline.makespan
            assert other.utilization == baseline.utilization
            assert len(other.records) == len(baseline.records)
            for a, b in zip(baseline.records, other.records):
                assert (a.job_id, a.jct, a.queue_delay, a.preemptions) == \
                       (b.job_id, b.jct, b.queue_delay, b.preemptions)
        # The determinism guard: a disabled observer takes no stream.
        assert plain.tracer is NULL_TRACER and not plain._tracing
        assert nulled_sim.tracer is NULL_TRACER and not nulled_sim._tracing
        assert traced_sim.tracer is tracer

    def test_dropped_events_are_counted(self):
        # A roomy buffer loses nothing; a tiny one counts its losses.
        roomy = RingBufferTracer()
        _run_fifo([roomy])
        assert roomy.n_dropped == 0
        tight = RingBufferTracer(capacity=16)
        _run_fifo([tight])
        assert tight.n_dropped == tight.n_emitted - len(tight.events)
        assert tight.n_dropped > 0


class TestMaxEventsCounting:
    """The livelock valve counts every dispatched event (satellite fix)."""

    class _Greedy(FIFOScheduler):
        name = "greedy"

        def schedule(self, now):
            for job in list(self.queue):
                if self.try_place_exclusive(job):
                    self.queue.remove(job)

    def _jobs(self, n=10):
        # All submitted simultaneously: the seed engine drained them in
        # the inner loop and counted the whole batch as ONE event.
        return [make_job(i, duration=100.0 * i, submit_time=0.0)
                for i in range(1, n + 1)]

    def test_counts_every_dispatch(self):
        cluster = Cluster({"vc1": 2})  # 16 GPUs: all 10 jobs fit at once
        sim = Simulator(cluster, self._jobs(), self._Greedy())
        sim.run()
        # 10 submits (one simultaneous batch) + 10 distinct finishes.
        assert sim._events_processed == 20

    def test_valve_sees_batched_events(self):
        cluster = Cluster({"vc1": 2})
        sim = Simulator(cluster, self._jobs(), self._Greedy(),
                        max_events=15)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run()


#: Node, profiler, crash and straggler faults; a one-retry budget makes
#: some jobs crash and retry and others fail for good.
_FAULTS = ("seed=3,node_mtbf=43200,node_mttr=1200,profiler_mtbf=43200,"
           "crash_rate=0.5,slowdown_rate=0.2,retry_limit=1")


@pytest.fixture(scope="module")
def emitted_kinds():
    """Trace kinds of faulted venus replays, per scheduler.

    Lucid covers the profiler, decisions, refits and sharing speed
    changes; FIFO the plain engine path; Tiresias adds preemption.
    """
    kinds = {}
    for scheduler, n_jobs in (("lucid", 300), ("fifo", 120),
                              ("tiresias", 300)):
        tracer = RingBufferTracer()
        result = quick_simulation("venus", scheduler, n_jobs=n_jobs,
                                  seed=7, observers=[tracer],
                                  faults=_FAULTS)
        assert result.faults.jobs_failed > 0  # retry budget exhausted
        assert tracer.n_dropped == 0
        kinds[scheduler] = set(tracer.counts_by_kind())
    return kinds


class TestTraceKinds:
    @pytest.mark.parametrize("scheduler", ["lucid", "fifo", "tiresias"])
    def test_every_emitted_kind_is_a_table_row(self, emitted_kinds,
                                               scheduler):
        assert emitted_kinds[scheduler] <= set(TRACE_KINDS)

    def test_every_table_row_is_emitted(self, emitted_kinds):
        assert set().union(*emitted_kinds.values()) == set(TRACE_KINDS)

    def test_derived_sets(self):
        # Exactly lineage's former release set and the timeline's former
        # fault track, so lineage DAGs and fault instants are unchanged.
        assert RELEASE_KINDS == {"stop", "preempt", "finish", "crash",
                                 "job_failed"}
        assert FAULT_KINDS == {"node_fail", "node_recover", "crash",
                               "retry", "job_failed", "slowdown",
                               "slowdown_end"}
