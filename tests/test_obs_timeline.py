"""Tests for the Chrome trace-event timeline exporter."""

import json

from repro.faults import FaultScriptEntry, FaultSpec
from repro.obs import (
    RingBufferTracer,
    TraceEvent,
    build_chrome_trace,
    events_from_dicts,
    read_jsonl,
    write_chrome_trace,
)
from repro.schedulers import TiresiasScheduler
from repro.sim import Simulator
from repro.traces import TraceGenerator, TraceSpec

from conftest import make_job
from test_faults import run_sim


def _synthetic_events():
    return [
        TraceEvent(0.0, "submit", 1, {}),
        TraceEvent(0.0, "sched_submit", 1, {"queue_depth": 1}),
        TraceEvent(10.0, "sched_finish", 1, {"queue_depth": 0}),
        TraceEvent(10.0, "start", 1,
                   {"name": "resnet", "gpus": [0, 1], "nodes": [0, 0],
                    "speed": 1.0, "mates": [], "profiling": False}),
        TraceEvent(20.0, "start", 2,
                   {"gpus": [3], "nodes": [1], "speed": 1.0, "mates": [],
                    "profiling": True}),
        TraceEvent(50.0, "speed", 1, {"speed": 0.8}),
        TraceEvent(90.0, "finish", 1, {}),
        TraceEvent(100.0, "decision", 3, {"mode": "shared"}),
    ]


class TestBuildChromeTrace:
    def test_lanes_instants_and_metadata(self):
        doc = build_chrome_trace(_synthetic_events())
        events = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"

        complete = [e for e in events if e["ph"] == "X"]
        # Job 1 spans two GPU lanes; job 2 (never closed) is closed at
        # end-of-trace with outcome "running" on its one profiler lane.
        job1 = [e for e in complete if e["args"]["job_id"] == 1]
        assert len(job1) == 2
        assert {e["tid"] for e in job1} == {0, 1}
        assert all(e["pid"] == 0 for e in job1)
        assert all(e["ts"] == 10.0e6 and e["dur"] == 80.0e6 for e in job1)
        assert all(e["args"]["outcome"] == "finish" for e in job1)
        # The mid-run speed event updated the annotation.
        assert all(e["args"]["speed"] == 0.8 for e in job1)

        job2 = [e for e in complete if e["args"]["job_id"] == 2]
        assert len(job2) == 1
        assert job2[0]["pid"] == 10_000 + 1  # profiler lanes get own pids
        assert job2[0]["args"]["outcome"] == "running"

        instants = [e for e in events if e["ph"] == "i"]
        assert {e["name"] for e in instants} == {"submit job 1",
                                                "shared job 3"}
        counters = [e for e in events if e["ph"] == "C"]
        assert [(c["ts"], c["args"]["jobs"]) for c in counters] == \
            [(0.0, 1), (10.0e6, 0)]

        labels = {(e["pid"], e["tid"]): e["args"]["name"]
                  for e in events if e["ph"] == "M"
                  if e["name"] == "thread_name"}
        assert labels[(0, 0)] == "gpu 0"
        process_names = {e["args"]["name"] for e in events
                         if e["ph"] == "M" and e["name"] == "process_name"}
        assert {"node 0", "profiler node 1", "scheduler"} <= process_names

    def test_empty_input(self):
        doc = build_chrome_trace([])
        assert doc["traceEvents"] == []

    @staticmethod
    def _tiresias_run(tracer):
        spec = TraceSpec(name="tiny", n_nodes=4, n_vcs=2, n_jobs=50,
                         full_n_jobs=50, mean_duration=1500.0,
                         span_days=0.25, n_users=8, seed=5)
        generator = TraceGenerator(spec)
        sim = Simulator(generator.build_cluster(), generator.generate(),
                        TiresiasScheduler(), tracer=tracer)
        return sim.run()

    def test_real_run_round_trip(self, tmp_path):
        tracer = RingBufferTracer()
        result = self._tiresias_run(tracer)

        path = str(tmp_path / "timeline.json")
        n = write_chrome_trace(path, tracer.events)
        doc = json.loads(open(path).read())
        assert len(doc["traceEvents"]) == n

        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        # Every finished job appears, on exactly gpu_num lanes per run.
        jobs_seen = {e["args"]["job_id"] for e in complete}
        assert jobs_seen == {r.job_id for r in result.records}
        assert all(e["dur"] >= 0.0 for e in complete)
        # Tiresias preempts: some runs must end in preemption.
        outcomes = {e["args"]["outcome"] for e in complete}
        assert "finish" in outcomes
        # Queue-depth counter track present.
        assert any(e["ph"] == "C" for e in doc["traceEvents"])

    def test_queue_depth_track_rebuilt_from_the_event_log(self, tmp_path):
        """The event log alone carries the queue-depth track: one
        counter point per ``sched_*`` event, at its time and depth."""
        log = str(tmp_path / "events.jsonl")
        with RingBufferTracer(sink=log) as tracer:
            self._tiresias_run(tracer)
        events = events_from_dicts(read_jsonl(log))
        sched = [e for e in events if e.kind.startswith("sched_")]
        assert sched
        counters = [e for e in build_chrome_trace(events)["traceEvents"]
                    if e["ph"] == "C"]
        assert all(e["name"] == "queue depth" for e in counters)
        assert sorted((c["ts"], c["args"]["jobs"]) for c in counters) == \
            sorted((e.time * 1e6, e.data["queue_depth"]) for e in sched)


class TestFaultsTrack:
    """Fault-injection events render on their own synthetic process."""

    _FAULT_PID = 88_888

    def _fault_events(self):
        return [
            TraceEvent(0.0, "submit", 1, {}),
            TraceEvent(5.0, "start", 1,
                       {"gpus": [0], "nodes": [0], "speed": 1.0,
                        "mates": [], "profiling": False}),
            TraceEvent(30.0, "node_fail", None, {"node": 2}),
            TraceEvent(40.0, "crash", 1, {"node": 0}),
            TraceEvent(55.0, "retry", 1, {"attempt": 1}),
            TraceEvent(70.0, "node_recover", None, {"node": 2}),
        ]

    def test_fault_instants_on_fault_pid(self):
        doc = build_chrome_trace(self._fault_events())
        instants = [e for e in doc["traceEvents"]
                    if e["ph"] == "i" and e["pid"] == self._FAULT_PID]
        assert [e["name"] for e in instants] == [
            "node_fail (node 2)",
            "crash job 1 (node 0)",
            "retry job 1",
            "node_recover (node 2)",
        ]
        assert all(e["cat"] == "fault" for e in instants)
        # Job-scoped fault instants carry the job id in args.
        crash = next(e for e in instants if e["name"].startswith("crash"))
        assert crash["args"]["job_id"] == 1
        assert crash["ts"] == 40.0e6

    def test_crash_closes_the_gpu_lane(self):
        doc = build_chrome_trace(self._fault_events())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == 1
        lane = complete[0]
        assert lane["args"]["outcome"] == "crash"
        assert lane["ts"] == 5.0e6
        assert lane["dur"] == 35.0e6  # start 5s, crash 40s

    def test_permanent_failure_closes_the_gpu_lane(self):
        # Job 1 crashes at t=100 with no retry budget; job 2 runs to
        # t=500, so a lane left open would close there as "running".
        spec = FaultSpec(
            retry_limit=0,
            script=(FaultScriptEntry(time=100.0, kind="job_crash", job=1),))
        tracer = RingBufferTracer()
        run_sim([make_job(1, duration=1000.0),
                 make_job(2, duration=500.0)], faults=spec, tracer=tracer)
        doc = build_chrome_trace(tracer.events)
        lanes = [e for e in doc["traceEvents"]
                 if e["ph"] == "X" and e["args"]["job_id"] == 1]
        assert len(lanes) == 1
        assert lanes[0]["args"]["outcome"] == "job_failed"
        assert lanes[0]["ts"] + lanes[0]["dur"] == 100.0e6

    def test_faults_process_named(self):
        doc = build_chrome_trace(self._fault_events())
        names = {e["pid"]: e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert names[self._FAULT_PID] == "faults"

    def test_no_fault_process_without_fault_events(self):
        doc = build_chrome_trace(_synthetic_events())
        assert not any(e["pid"] == self._FAULT_PID
                       for e in doc["traceEvents"])

