"""Tests for the fault-injection subsystem (:mod:`repro.faults`)."""

import json

import pytest

from repro import Simulator
from repro.cluster import Cluster
from repro.faults import (FaultInjector, FaultScriptEntry, FaultSpec,
                          FaultSpecError, RetryPolicy)
from repro.obs import RingBufferTracer
from repro.obs.timeline import build_chrome_trace
from repro.schedulers.base import Scheduler
from repro.sim import SimulationError
from repro.workloads import JobStatus

from conftest import make_job


class GreedyScheduler(Scheduler):
    """Places every pending job exclusively, in submit order."""

    name = "greedy"

    def schedule(self, now):
        for job in sorted(self.queue, key=lambda j: j.submit_time):
            if self.try_place_exclusive(job):
                self.queue.remove(job)


def run_sim(jobs, faults=None, nodes=2, tracer=None, scheduler=None):
    cluster = Cluster.homogeneous(nodes, vc_name="vc1")
    kwargs = {}
    if tracer is not None:
        kwargs["tracer"] = tracer
    sim = Simulator(cluster, jobs, scheduler or GreedyScheduler(),
                    faults=faults, **kwargs)
    return sim.run()


def fingerprint(result):
    """Everything that must be bit-identical between two runs."""
    return (result.makespan,
            [(r.job_id, r.jct, r.queue_delay, r.restarts, r.failed)
             for r in result.records],
            result.faults)


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(backoff_base=30.0, backoff_factor=2.0,
                             backoff_cap=100.0)
        assert policy.backoff(1) == 30.0
        assert policy.backoff(2) == 60.0
        assert policy.backoff(3) == 100.0  # capped, not 120

    def test_checkpoint_rollback_floors_to_interval(self):
        policy = RetryPolicy(checkpoint_interval=600.0)
        assert policy.checkpointed_progress(1234.0) == 1200.0
        assert policy.checkpointed_progress(599.9) == 0.0

    def test_zero_interval_disables_checkpointing(self):
        policy = RetryPolicy(checkpoint_interval=0.0)
        assert policy.checkpointed_progress(5000.0) == 0.0


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------
class TestFaultSpecParsing:
    def test_inline_kv(self):
        spec = FaultSpec.parse("node_mtbf=3600,crash_rate=0.5,seed=7")
        assert spec.node_mtbf == 3600.0
        assert spec.crash_rate == 0.5
        assert spec.seed == 7 and isinstance(spec.seed, int)
        assert spec.enabled

    def test_inline_json_with_script(self):
        spec = FaultSpec.parse(json.dumps({
            "retry_limit": 1,
            "script": [{"time": 50.0, "kind": "node_fail", "node": 0}],
        }))
        assert spec.retry_limit == 1
        assert spec.script[0].kind == "node_fail"

    def test_json_file(self, tmp_path):
        path = tmp_path / "faults.json"
        path.write_text(json.dumps({"crash_rate": 1.5}))
        assert FaultSpec.parse(str(path)).crash_rate == 1.5

    def test_default_spec_is_disabled(self):
        assert not FaultSpec().enabled

    @pytest.mark.parametrize("text", [
        "bogus_key=1",
        "node_mtbf=abc",
        "node_mtbf",
        "",
        '{"script": [{"time": -5, "kind": "node_fail", "node": 0}]}',
        '{"script": [{"time": 5, "kind": "meteor"}]}',
        '{"script": [{"time": 5, "kind": "slowdown", "node": 0,'
        ' "factor": 1.5}]}',
        '{"slowdown_factor": 0.0}',
        '{"retry_limit": -1}',
        '{not json',
    ])
    def test_bad_specs_raise(self, text):
        with pytest.raises(FaultSpecError):
            FaultSpec.parse(text)

    def test_missing_file_raises(self):
        with pytest.raises(FaultSpecError, match="not found"):
            FaultSpec.parse("/no/such/faults.json")


# ----------------------------------------------------------------------
# Zero-fault regression: faults off must be bit-identical to no faults
# ----------------------------------------------------------------------
class TestZeroFaultRegression:
    def _jobs(self):
        return [make_job(i, duration=400.0 + 100.0 * i, gpu_num=2,
                         submit_time=50.0 * i) for i in range(1, 9)]

    def test_disabled_spec_is_bit_identical(self):
        baseline = run_sim(self._jobs())
        disabled = run_sim(self._jobs(), faults=FaultSpec())
        assert baseline.makespan == disabled.makespan
        assert [(r.job_id, r.jct, r.queue_delay)
                for r in baseline.records] == \
            [(r.job_id, r.jct, r.queue_delay) for r in disabled.records]
        assert disabled.faults is None  # disabled spec arms nothing

    def test_disabled_spec_hides_fault_summary_keys(self):
        result = run_sim(self._jobs(), faults=FaultSpec())
        assert "node_failures" not in result.summary()
        assert "goodput" not in result.summary()


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    SPEC = FaultSpec(seed=11, node_mtbf=4000.0, node_mttr=300.0,
                     crash_rate=2.0, slowdown_rate=1.0,
                     backoff_base=20.0, checkpoint_interval=200.0)

    def _jobs(self):
        return [make_job(i, duration=900.0, gpu_num=1, submit_time=30.0 * i)
                for i in range(1, 13)]

    def test_same_seed_bit_identical(self):
        first = run_sim(self._jobs(), faults=self.SPEC, nodes=3)
        second = run_sim(self._jobs(), faults=self.SPEC, nodes=3)
        assert fingerprint(first) == fingerprint(second)
        assert first.faults.job_crashes > 0  # faults actually fired

    def test_spec_object_and_injector_agree(self):
        """Passing a pre-built injector equals passing the raw spec."""
        by_spec = run_sim(self._jobs(), faults=self.SPEC, nodes=3)
        by_injector = run_sim(self._jobs(),
                              faults=FaultInjector(self.SPEC), nodes=3)
        assert fingerprint(by_spec) == fingerprint(by_injector)


# ----------------------------------------------------------------------
# Scripted faults: exact behavioural checks
# ----------------------------------------------------------------------
class TestScriptedFaults:
    def test_node_failure_kills_and_requeues(self):
        """Both nodes fail at t=100; the job retries after recovery."""
        spec = FaultSpec(
            backoff_base=30.0, checkpoint_interval=600.0,
            script=(
                FaultScriptEntry(time=100.0, kind="node_fail", node=0,
                                 duration=200.0),
                FaultScriptEntry(time=100.0, kind="node_fail", node=1,
                                 duration=200.0),
            ))
        result = run_sim([make_job(1, duration=1000.0)], faults=spec)
        record = result.records[0]
        # Crash at 100 with progress 100 < one checkpoint: restart from 0.
        # The whole cluster is down until t=300, then the job reruns fully.
        assert record.restarts == 1
        assert not record.failed
        assert result.makespan == pytest.approx(1300.0)
        assert result.faults.node_failures == 2
        assert result.faults.node_recoveries == 2
        assert result.faults.lost_gpu_hours == pytest.approx(100.0 / 3600.0)
        assert result.faults.mttr == pytest.approx(200.0)

    def test_repairs_in_flight_at_sim_end_are_censored(self):
        """A node still down when the run ends must not drag MTTR low.

        Node 1 (idle) fails at t=500 and would recover at t=10500 —
        long after the only job finishes at t=1000.  Its truncated
        500 s downtime is a censored observation: excluded from
        ``mttr`` and surfaced through ``censored_repairs`` /
        ``censored_repair_hours`` instead.
        """
        spec = FaultSpec(script=(
            FaultScriptEntry(time=100.0, kind="node_fail", node=0,
                             duration=50.0),
            FaultScriptEntry(time=500.0, kind="node_fail", node=1,
                             duration=10_000.0),
        ))
        result = run_sim([make_job(1, duration=1000.0)], faults=spec)
        stats = result.faults
        assert stats.node_failures == 2
        assert stats.node_recoveries == 1
        # Only node 0's completed 50 s repair feeds the mean; naively
        # folding in node 1's open window would have yielded 275 s.
        assert stats.mttr == pytest.approx(50.0)
        assert stats.censored_repairs == 1
        makespan = result.makespan
        assert stats.censored_repair_hours == pytest.approx(
            (makespan - 500.0) / 3600.0)
        assert result.summary()["censored_repairs"] == 1.0

    def test_crash_resumes_from_last_checkpoint(self):
        spec = FaultSpec(
            backoff_base=50.0, checkpoint_interval=300.0,
            script=(FaultScriptEntry(time=700.0, kind="job_crash", job=1),))
        result = run_sim([make_job(1, duration=1000.0)], faults=spec)
        record = result.records[0]
        # Crash at 700 rolls back to checkpoint 600 (lost 100); the retry
        # fires at 750 and the remaining 400s of work finish at 1150.
        assert record.restarts == 1
        assert record.jct == pytest.approx(1150.0)
        assert result.faults.lost_gpu_hours == pytest.approx(100.0 / 3600.0)

    def test_retry_budget_exhaustion_fails_permanently(self):
        spec = FaultSpec(
            retry_limit=0,
            script=(FaultScriptEntry(time=100.0, kind="job_crash", job=1),))
        result = run_sim([make_job(1, duration=1000.0),
                          make_job(2, duration=500.0, submit_time=0.0)],
                         faults=spec)
        by_id = {r.job_id: r for r in result.records}
        assert by_id[1].failed and by_id[1].restarts == 0
        assert not by_id[2].failed
        assert result.faults.jobs_failed == 1
        # Useful work: job 2's 500 GPU-s; wasted: job 1's 100 GPU-s.
        assert result.faults.goodput == pytest.approx(500.0 / 600.0)
        assert [r.job_id for r in result.failed_jobs()] == [1]

    def test_crash_against_idle_job_fizzles(self):
        spec = FaultSpec(
            script=(FaultScriptEntry(time=5000.0, kind="job_crash", job=1),))
        result = run_sim([make_job(1, duration=1000.0)], faults=spec)
        assert result.faults.job_crashes == 0
        assert result.records[0].restarts == 0

    def test_slowdown_halves_execution_speed(self):
        spec = FaultSpec(
            script=(FaultScriptEntry(time=100.0, kind="slowdown", node=0,
                                     duration=100_000.0, factor=0.5),))
        result = run_sim([make_job(1, duration=1000.0)], faults=spec,
                         nodes=1)
        # 100s at full speed + 900s of work at half speed = 1900s.
        assert result.makespan == pytest.approx(1900.0)
        assert result.faults.slowdowns == 1

    def test_profiler_fault_on_baseline_scheduler_is_inert(self):
        spec = FaultSpec(
            script=(FaultScriptEntry(time=10.0, kind="node_fail", node=0,
                                     target="profiler"),))
        result = run_sim([make_job(1, duration=500.0)], faults=spec)
        assert result.faults.node_failures == 0
        assert result.makespan == pytest.approx(500.0)


# ----------------------------------------------------------------------
# Fault events in telemetry
# ----------------------------------------------------------------------
class TestFaultTelemetry:
    def _traced_run(self):
        spec = FaultSpec(
            backoff_base=30.0,
            script=(
                FaultScriptEntry(time=100.0, kind="node_fail", node=0,
                                 duration=200.0),
                FaultScriptEntry(time=100.0, kind="node_fail", node=1,
                                 duration=200.0),
                FaultScriptEntry(time=2000.0, kind="slowdown", node=0,
                                 duration=100.0, factor=0.5),
            ))
        tracer = RingBufferTracer()
        result = run_sim([make_job(1, duration=1000.0)], faults=spec,
                         tracer=tracer)
        return result, tracer

    def test_tracer_records_fault_lifecycle(self):
        _, tracer = self._traced_run()
        kinds = tracer.counts_by_kind()
        assert kinds.get("node_fail") == 2
        assert kinds.get("node_recover") == 2
        assert kinds.get("crash") == 1
        assert kinds.get("retry") == 1
        crash = tracer.of_kind("crash")[0]
        assert crash.job_id == 1
        assert crash.data["cause"] == "node_fail"

    def test_chrome_timeline_gets_a_faults_track(self):
        _, tracer = self._traced_run()
        document = build_chrome_trace(tracer.events)
        faults = [e for e in document["traceEvents"]
                  if e.get("cat") == "fault"]
        assert any(e["name"].startswith("node_fail") for e in faults)
        names = [e for e in document["traceEvents"]
                 if e.get("name") == "process_name"]
        assert any(m["args"]["name"] == "faults" for m in names)

    def test_summary_carries_fault_keys(self):
        result, _ = self._traced_run()
        summary = result.summary()
        assert summary["node_failures"] == 2
        assert summary["restarts"] == 1
        assert 0.0 < summary["goodput"] <= 1.0
        assert result.total_restarts() == 1


# ----------------------------------------------------------------------
# Lucid graceful degradation
# ----------------------------------------------------------------------
class TestLucidDegradation:
    SPEC_KW = dict(name="faulty", n_nodes=6, n_vcs=2, n_jobs=60,
                   full_n_jobs=60, mean_duration=1500.0, span_days=0.3,
                   n_users=10, seed=77)

    def _run_lucid(self, faults):
        from repro.core import LucidScheduler
        from repro.traces import TraceGenerator, TraceSpec

        generator = TraceGenerator(TraceSpec(**self.SPEC_KW))
        cluster = generator.build_cluster()
        history = generator.generate_history()
        jobs = generator.generate()
        scheduler = LucidScheduler(history)
        result = Simulator(cluster, jobs, scheduler, faults=faults).run()
        return result, scheduler

    def test_profiler_outage_degrades_to_direct_admission(self):
        """With every profiler node dead, Lucid still finishes all jobs
        by admitting them unprofiled (no packing, estimator fallback)."""
        script = tuple(
            FaultScriptEntry(time=0.0, kind="node_fail", node=index,
                             target="profiler", duration=10_000_000.0)
            for index in range(6))
        result, _ = self._run_lucid(FaultSpec(script=script))
        assert len(result.records) == self.SPEC_KW["n_jobs"]
        assert not any(r.failed for r in result.records)
        # Nothing can finish inside a dead profiler.
        assert result.profiler_finish_rate() == 0.0

    def test_lucid_survives_stochastic_faults(self):
        """Mixed node/crash/straggler faults: the run completes and the
        failure accounting is consistent."""
        spec = FaultSpec(seed=5, node_mtbf=30_000.0, node_mttr=600.0,
                         profiler_mtbf=30_000.0, profiler_mttr=600.0,
                         crash_rate=1.0, slowdown_rate=0.5)
        result, _ = self._run_lucid(spec)
        stats = result.faults
        assert len(result.records) == self.SPEC_KW["n_jobs"]
        assert stats.node_failures >= stats.node_recoveries >= 0
        assert stats.job_crashes == stats.restarts + stats.jobs_failed
        assert 0.0 <= stats.goodput <= 1.0
        finished = [r for r in result.records if not r.failed]
        assert len(finished) == self.SPEC_KW["n_jobs"] - stats.jobs_failed


# ----------------------------------------------------------------------
# Engine error reporting
# ----------------------------------------------------------------------
class TestSimulationError:
    def test_require_state_names_the_job(self):
        cluster = Cluster.homogeneous(1, vc_name="vc1")
        job = make_job(1, name="alpha")
        sim = Simulator(cluster, [job], GreedyScheduler())
        with pytest.raises(SimulationError, match=r"job 1 .*'alpha'.*not"
                                                  r" running"):
            sim._require_state(job)

    def test_simulation_error_is_a_runtime_error(self):
        assert issubclass(SimulationError, RuntimeError)


# ----------------------------------------------------------------------
# CLI robustness
# ----------------------------------------------------------------------
class TestCliErrors:
    def test_bad_fault_spec_exits_2(self, capsys):
        from repro.cli import main
        assert main(["simulate", "--jobs", "5",
                     "--faults", "bogus=1"]) == 2
        assert "invalid --faults" in capsys.readouterr().err

    def test_missing_trace_file_exits_2(self, capsys):
        from repro.cli import main
        assert main(["simulate", "--trace", "/no/such/trace.csv"]) == 2
        assert "file not found" in capsys.readouterr().err

    def test_fault_summary_printed(self, capsys):
        from repro.cli import main
        assert main(["simulate", "--jobs", "10", "--seed", "3",
                     "--faults", "crash_rate=2.0,seed=1"]) == 0
        assert "goodput" in capsys.readouterr().out
