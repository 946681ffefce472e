"""Tests for the causal event lineage and exact JCT decomposition.

Covers the ISSUE-10 acceptance properties: every component of every
completed job's decomposition is non-negative and the components sum
to the job's JCT within 1e-9 (fifo / tiresias / lucid on venus@120,
faults on and off); attaching a :class:`LineageCollector` as the
tracer leaves the simulation bit-identical to an untraced run; the
offline trace-reconstruction path (``lineage_from_trace``) reproduces
the live DAG node for node, and no main-cluster start cites a
profiling-stage release; main-queue waits name blockers; the critical
path is a causally ordered chain ending at the terminal event; and the
``repro why`` / filtered ``repro trace`` / ``repro explain`` CLI
surfaces behave as documented.
"""

from __future__ import annotations

import json
import math

import pytest

from repro import quick_simulation
from repro.cli import main
from repro.obs import RingBufferTracer
from repro.obs.lineage import (
    COMPONENTS,
    LineageCollector,
    blame_table,
    critical_path,
    decompose,
    decompose_all,
    lineage_from_trace,
)
from repro.obs.tracer import events_from_dicts, read_jsonl
from repro.sim.events import EventKind

FAULTS = "node_mtbf=43200,node_mttr=1800,crash_rate=0.3,seed=7"

#: Memoized venus@120 runs — the property matrix reuses them freely.
_RUNS = {}


def run_with_lineage(scheduler, faults=None, seed=1, n_jobs=120):
    key = (scheduler, faults, seed, n_jobs)
    if key not in _RUNS:
        collector = LineageCollector()
        result = quick_simulation(trace="venus", scheduler=scheduler,
                                  n_jobs=n_jobs, seed=seed,
                                  faults=faults, tracer=collector)
        _RUNS[key] = (collector, result)
    return _RUNS[key]


class TestDecompositionProperties:
    @pytest.mark.parametrize("scheduler", ["fifo", "tiresias", "lucid"])
    @pytest.mark.parametrize("faults", [None, FAULTS])
    def test_components_nonneg_and_sum_to_jct(self, scheduler, faults):
        collector, result = run_with_lineage(scheduler, faults)
        decompositions = decompose_all(collector)
        assert decompositions, "no completed jobs decomposed"
        for record in result.records:
            dec = decompositions.get(record.job_id)
            if dec is None or dec.outcome != "finished":
                continue
            for name, value in dec.components().items():
                assert value >= -1e-9, (
                    f"{scheduler}/{faults}: job {record.job_id} "
                    f"component {name} negative: {value}")
            assert dec.total() == pytest.approx(dec.jct, abs=1e-9)
            assert dec.jct == pytest.approx(record.jct, abs=1e-9)

    @pytest.mark.parametrize("scheduler", ["fifo", "lucid"])
    def test_every_completed_job_is_decomposable(self, scheduler):
        collector, result = run_with_lineage(scheduler)
        completed = set(collector.completed_job_ids())
        finished = {rec.job_id for rec in result.records}
        assert finished <= completed

    def test_blockers_partition_main_queue_wait(self):
        # venus@120 is uncontended; 300 jobs force main-queue waits.
        collector, _ = run_with_lineage("fifo", n_jobs=300)
        saw_blocked = False
        for dec in decompose_all(collector).values():
            attributed = math.fsum(dec.blockers.values())
            assert attributed + dec.unattributed_wait == pytest.approx(
                dec.pending_main, abs=1e-6)
            if dec.pending_main > 1.0 and dec.blockers:
                saw_blocked = True
                assert all(v > 0 for v in dec.blockers.values())
                assert dec.job_id not in dec.blockers
        assert saw_blocked, "contended fifo run named no blockers"

    def test_blame_table_aggregates_blockers(self):
        collector, _ = run_with_lineage("fifo", n_jobs=300)
        decs = decompose_all(collector)
        rows = blame_table(decs, top=5)
        assert rows, "no blame rows on a contended run"
        induced = [row.induced_wait for row in rows]
        assert induced == sorted(induced, reverse=True)
        for row in rows:
            assert row.n_victims >= 1
            total = math.fsum(d.blockers.get(row.job_id, 0.0)
                              for d in decs.values())
            assert row.induced_wait == pytest.approx(total)


class TestBitIdentity:
    def test_lineage_off_is_bit_identical(self):
        base = quick_simulation(trace="venus", scheduler="lucid",
                                n_jobs=120, seed=3, tracer=None)
        observed = quick_simulation(trace="venus", scheduler="lucid",
                                    n_jobs=120, seed=3,
                                    tracer=LineageCollector())
        assert base.makespan == observed.makespan
        assert len(base.records) == len(observed.records)
        for lhs, rhs in zip(base.records, observed.records):
            assert lhs.job_id == rhs.job_id
            assert lhs.jct == rhs.jct
            assert lhs.queue_delay == rhs.queue_delay
            assert lhs.preemptions == rhs.preemptions

    def test_bit_identical_under_faults(self):
        base = quick_simulation(trace="venus", scheduler="tiresias",
                                n_jobs=120, seed=3, faults=FAULTS)
        observed = quick_simulation(trace="venus", scheduler="tiresias",
                                    n_jobs=120, seed=3, faults=FAULTS,
                                    tracer=LineageCollector())
        assert base.makespan == observed.makespan
        assert [(r.job_id, r.jct, r.preemptions) for r in base.records] \
            == [(r.job_id, r.jct, r.preemptions)
                for r in observed.records]


#: Lucid with profiler-cluster faults: profiling runs crash and fail
#: permanently, so profiler GPU ids (which overlap main-cluster ids)
#: show up in release events.
PROFILER_FAULTS = ("node_mtbf=3600,crash_rate=2,profiler_mtbf=1800,"
                   "retry_limit=1,seed=7")


class TestOfflineParity:
    def test_trace_roundtrip_matches_live(self, tmp_path):
        live, _ = run_with_lineage("lucid", faults=PROFILER_FAULTS,
                                   seed=7, n_jobs=400)
        path = str(tmp_path / "events.jsonl")
        with RingBufferTracer(capacity=1, sink=path) as tracer:
            quick_simulation(trace="venus", scheduler="lucid", n_jobs=400,
                             seed=7, faults=PROFILER_FAULTS, tracer=tracer)
        offline = lineage_from_trace(events_from_dicts(read_jsonl(path)))
        assert any(e.kind == "job_failed" and e.data["profiling"]
                   for e in live.events), "no profiling-stage failure"
        assert len(offline.events) == len(live.events)
        for lhs, rhs in zip(live.events, offline.events):
            assert (rhs.event_id, rhs.time, rhs.kind, rhs.job_id,
                    rhs.causes, rhs.data) == \
                (lhs.event_id, lhs.time, lhs.kind, lhs.job_id,
                 lhs.causes, lhs.data)
        assert decompose_all(offline).keys() == decompose_all(live).keys()

    def test_main_starts_never_cite_profiling_releases(self):
        # Profiler GPU ids overlap main-cluster ids, so a release that
        # ended a profiling run must never be named as what freed the
        # GPUs of a main-cluster start.  Whether a run was profiling is
        # read off its start node, not off the release's own payload.
        collector, _ = run_with_lineage("lucid", faults=PROFILER_FAULTS,
                                        seed=7, n_jobs=400)
        events = collector.events
        for event in events:
            if event.kind != "start" or event.data["profiling"]:
                continue
            for cause_id in event.causes:
                cause = run_start = events[cause_id]
                if cause.job_id in (None, event.job_id):
                    continue
                while run_start.kind != "start":
                    run_start = events[run_start.causes[0]]
                assert not run_start.data["profiling"], \
                    (event.job_id, cause.kind, cause.job_id)


class TestCriticalPath:
    def test_path_is_ordered_and_terminal(self):
        collector, _ = run_with_lineage("lucid")
        job_id = collector.completed_job_ids()[0]
        chain = critical_path(collector, job_id)
        assert chain, "empty critical path"
        times = [e.time for e in chain]
        assert times == sorted(times)
        assert chain[-1].job_id == job_id
        assert chain[-1].kind in ("finish", "job_failed")
        for parent, child in zip(chain, chain[1:]):
            assert parent.event_id in child.causes

    def test_unknown_job_raises(self):
        collector, _ = run_with_lineage("lucid")
        with pytest.raises(KeyError):
            decompose(collector, 10**9)

    def test_non_terminal_job_raises(self):
        collector = LineageCollector()
        collector.emit(0.0, "submit", 1, gpu_num=1, vc="vc1")
        with pytest.raises(ValueError):
            decompose(collector, 1)


class TestCauseSchema:
    def test_schema_covers_every_event_kind(self):
        # The cause story is declared on each member (sim/events.py).
        assert all(isinstance(k.cause, str) and k.cause for k in EventKind)

    def test_event_dicts_are_json_clean(self):
        collector, _ = run_with_lineage("lucid")
        event = collector.events[0]
        payload = json.loads(json.dumps(event.as_dict()))
        assert payload["id"] == event.event_id
        assert payload["kind"] == event.kind
        assert payload["causes"] == list(event.causes)


class TestDropSafety:
    def test_cap_refuses_new_nodes_and_counts(self):
        collector = LineageCollector(max_events=4)
        result = quick_simulation(trace="venus", scheduler="fifo",
                                  n_jobs=40, seed=2, tracer=collector)
        assert len(collector.events) == 4
        # The first nodes are kept: the cap refuses, it never evicts.
        assert [e.kind for e in collector.events[:2]] == \
            ["submit", "sched_pass"]
        assert collector.n_dropped > 0
        assert result.telemetry.dropped_events == collector.n_dropped


class TestWhyCli:
    def test_why_text_output(self, capsys):
        code = main(["why", "370", "--trace", "venus", "--jobs", "120",
                     "--scheduler", "lucid", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        for name in COMPONENTS:
            assert name in out
        assert "total" in out
        assert "critical path" in out

    def test_why_json_sums_to_jct(self, capsys):
        code = main(["why", "370", "--trace", "venus", "--jobs", "120",
                     "--scheduler", "lucid", "--seed", "1",
                     "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        total = math.fsum(doc["decomposition"]["components"].values())
        assert total == pytest.approx(doc["decomposition"]["jct"],
                                      abs=1e-9)
        assert doc["source"] == "lucid × venus"
        assert doc["critical_path"]

    def test_why_offline_from_export(self, tmp_path, capsys):
        code = main(["trace", "--trace", "venus", "--jobs", "60",
                     "--scheduler", "lucid", "--seed", "1",
                     "--out", str(tmp_path)])
        assert code == 0
        events = str(tmp_path / "events.jsonl")
        capsys.readouterr()
        collector = lineage_from_trace(
            events_from_dicts(read_jsonl(events)))
        job_id = collector.completed_job_ids()[0]
        code = main(["why", str(job_id), "--trace", events,
                     "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["source"] == events
        total = math.fsum(doc["decomposition"]["components"].values())
        assert total == pytest.approx(doc["decomposition"]["jct"],
                                      abs=1e-9)

    def test_why_unknown_id_suggests(self, capsys):
        code = main(["why", "371", "--trace", "venus", "--jobs", "60",
                     "--scheduler", "fifo", "--seed", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "did you mean" in err


class TestTraceFilters:
    def test_job_and_kind_filters(self, tmp_path, capsys):
        code = main(["trace", "--trace", "venus", "--jobs", "40",
                     "--scheduler", "fifo", "--seed", "3",
                     "--out", str(tmp_path / "a"),
                     "--job", "201", "--kind", "start",
                     "--kind", "finish"])
        assert code == 0
        out = capsys.readouterr().out
        assert "retained events match" in out
        assert "job=201" in out

    def test_filter_with_no_matches_reports_zero(self, tmp_path,
                                                 capsys):
        code = main(["trace", "--trace", "venus", "--jobs", "40",
                     "--scheduler", "fifo", "--seed", "3",
                     "--out", str(tmp_path / "b"),
                     "--job", "999999"])
        assert code == 0
        assert "0 of" in capsys.readouterr().out


class TestExplainSuggestions:
    def test_unknown_id_offers_nearest(self, capsys):
        code = main(["explain", "2011", "--trace", "venus",
                     "--jobs", "40", "--scheduler", "lucid",
                     "--seed", "3"])
        assert code != 0
        assert "did you mean" in capsys.readouterr().err
