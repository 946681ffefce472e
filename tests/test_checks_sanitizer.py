"""SimSanitizer tests: deliberate state corruption + determinism contract.

Each test corrupts a live engine's state in one precise way and asserts
the sanitizer raises :class:`SanitizerError` with a message naming the
violated invariant.  A second group guards the zero-overhead contract:
disabled by default, and bit-identical results when enabled.
"""

from __future__ import annotations

import pytest

from repro import Simulator, TraceGenerator, make_scheduler
from repro.checks import SanitizerError
from repro.checks.sanitizer import ALLOWED_TRANSITIONS, SimSanitizer
from repro.cluster import Cluster
from repro.faults import FaultSpec
from repro.schedulers import FIFOScheduler
from repro.serve.core import state_digest
from repro.sim.events import EventKind
from repro.traces import TraceSpec
from repro.workloads import JobStatus

from conftest import make_job


def sanitizers(sanitize=True):
    """The observer list of a sanitized (or plain) run."""
    return [SimSanitizer()] if sanitize else []


def fresh_sim(jobs=None, sanitize=True):
    cluster = Cluster.homogeneous(1, vc_name="vc1")
    jobs = jobs if jobs is not None else [make_job(1, gpu_num=2)]
    return Simulator(cluster, jobs, FIFOScheduler(),
                     observers=sanitizers(sanitize))


def started_sim():
    """An engine with job 1 legally RUNNING on two GPUs, sweeps clean."""
    sim = fresh_sim()
    job = sim.jobs[1]
    job.status = JobStatus.PENDING
    sim.sanitizer.after_step()           # SUBMITTED -> PENDING
    sim.start_job(job, sim.cluster.gpus[:2])
    sim.sanitizer.after_step()           # PENDING -> RUNNING
    return sim, job


class TestCleanState:
    def test_clean_sweeps_pass(self):
        sim, _ = started_sim()
        before = sim.sanitizer.checks_run
        sim.sanitizer.after_step()
        assert sim.sanitizer.checks_run == before + 1

    def test_after_dispatch_context_names_event(self):
        sim, _ = started_sim()
        sim.now = -1.0  # rewind so the failure carries the event context
        event = sim.events.push(0.0, EventKind.TICK, job_id=None)
        with pytest.raises(SanitizerError, match="after tick event"):
            sim.sanitizer.after_event(event)

    def test_summary_line(self):
        sim, _ = started_sim()
        assert "invariant sweeps, all clean" in sim.sanitizer.summary()


class TestClockInvariant:
    def test_rewound_clock_detected(self):
        sim, _ = started_sim()
        sim.now = 50.0
        sim.sanitizer.after_step()
        sim.now = 10.0
        with pytest.raises(SanitizerError, match="event clock rewound"):
            sim.sanitizer.after_step()

    def test_forward_clock_fine(self):
        sim, _ = started_sim()
        sim.now = 50.0
        sim.sanitizer.after_step()
        sim.now = 60.0
        sim.sanitizer.after_step()


class TestAllocationInvariants:
    def test_double_bound_gpu_detected(self):
        sim, _ = started_sim()
        state = sim.run_states[1]
        state.gpus.append(state.gpus[0])
        with pytest.raises(SanitizerError, match="double-binds GPU"):
            sim.sanitizer.after_step()

    def test_unattached_gpu_claim_detected(self):
        sim, _ = started_sim()
        sim.run_states[1].gpus[1] = sim.cluster.gpus[5]  # free device
        with pytest.raises(SanitizerError, match="not attached"):
            sim.sanitizer.after_step()

    def test_wrong_gpu_count_detected(self):
        sim, _ = started_sim()
        lost = sim.run_states[1].gpus.pop()
        lost.detach(1)
        with pytest.raises(SanitizerError, match="requested 2"):
            sim.sanitizer.after_step()

    def test_leaked_allocation_detected(self):
        sim, _ = started_sim()
        del sim.run_states[1]  # GPUs still host job 1
        with pytest.raises(SanitizerError, match="leaked allocation"):
            sim.sanitizer.after_step()

    def test_resident_cap_breach_detected(self):
        sim, _ = started_sim()
        gpu = sim.cluster.gpus[0]
        gpu._residents[90] = 1.0
        gpu._residents[91] = 1.0
        with pytest.raises(SanitizerError, match=r"\(max 2\)"):
            sim.sanitizer.after_step()

    def test_memory_oversubscription_detected(self):
        sim, _ = started_sim()
        gpu = sim.cluster.gpus[0]
        gpu._residents[1] = gpu.memory_mb * 2
        with pytest.raises(SanitizerError, match="memory oversubscribed"):
            sim.sanitizer.after_step()


class TestOccupancyCounters:
    """Counters kept by GPU.attach/detach and Node.set_health must equal
    a rescan; corruption behind their back is named by counter."""

    def test_resident_added_behind_counters_detected(self):
        sim, _ = started_sim()
        sim.cluster.gpus[5]._residents[1] = 100.0  # job 1 is running
        with pytest.raises(SanitizerError,
                           match="occupancy counter n_residents of GPU 5"):
            sim.sanitizer.after_step()

    def test_reservation_rewritten_behind_counters_detected(self):
        sim, _ = started_sim()
        sim.cluster.gpus[0]._residents[1] = 123.0
        with pytest.raises(SanitizerError,
                           match="occupancy counter memory_used_mb of GPU 0"):
            sim.sanitizer.after_step()

    def test_health_flipped_behind_counters_detected(self):
        sim = fresh_sim()
        node = sim.cluster.nodes[0]
        node.healthy = False  # flags stay coherent, the count goes stale
        for gpu in node.gpus:
            gpu.healthy = False
        with pytest.raises(SanitizerError,
                           match="occupancy counter n_free_gpus of node 0"):
            sim.sanitizer.after_step()

    def test_set_health_keeps_counters(self):
        sim, _ = started_sim()
        node = sim.cluster.nodes[0]
        sim.stop_job(sim.jobs[1])
        node.set_health(False)
        assert node.n_free_gpus == 0
        sim.sanitizer.after_step()
        node.set_health(True)
        assert node.n_free_gpus == node.n_gpus
        sim.sanitizer.after_step()

    @pytest.mark.parametrize("counter", ["n_busy_gpus", "n_shared_gpus"])
    def test_cluster_count_drift_detected(self, counter):
        sim, _ = started_sim()
        setattr(sim.cluster, counter, getattr(sim.cluster, counter) + 1)
        with pytest.raises(SanitizerError,
                           match=f"occupancy counter {counter} is"):
            sim.sanitizer.after_step()

    def test_memory_capacity_drift_detected(self):
        sim, _ = started_sim()
        sim.cluster.gpus[3].memory_mb += 1.0
        with pytest.raises(SanitizerError, match="memory_total_mb"):
            sim.sanitizer.after_step()


class TestLifecycleInvariants:
    def test_illegal_transition_detected(self):
        sim = fresh_sim()
        sim.jobs[1].status = JobStatus.RUNNING  # SUBMITTED may only -> PENDING
        with pytest.raises(SanitizerError,
                           match="illegal SUBMITTED -> RUNNING transition"):
            sim.sanitizer.after_step()

    def test_pending_job_holding_gpus_detected(self):
        # The legal RUNNING -> PENDING move (stop_job) releases the GPUs;
        # flipping the status alone leaves a phantom allocation behind.
        sim, job = started_sim()
        job.status = JobStatus.PENDING
        with pytest.raises(SanitizerError, match="still holds GPUs"):
            sim.sanitizer.after_step()

    def test_running_job_without_allocation_detected(self):
        sim, job = started_sim()
        sim.stop_job(job)
        sim.sanitizer.after_step()       # legal RUNNING -> PENDING
        job.status = JobStatus.RUNNING       # ...but nothing was started
        with pytest.raises(SanitizerError, match="lost allocation"):
            sim.sanitizer.after_step()

    def test_terminal_states_allow_no_exit(self):
        assert ALLOWED_TRANSITIONS[JobStatus.FINISHED] == frozenset()
        assert ALLOWED_TRANSITIONS[JobStatus.FAILED] == frozenset()

    def test_fault_states_modelled(self):
        assert JobStatus.CRASHED in ALLOWED_TRANSITIONS[JobStatus.RUNNING]
        assert ALLOWED_TRANSITIONS[JobStatus.CRASHED] == frozenset(
            {JobStatus.PENDING})


class TestQueueInvariants:
    def test_duplicate_queue_entry_detected(self):
        extra = make_job(2, gpu_num=1)
        sim = fresh_sim(jobs=[make_job(1, gpu_num=2), extra])
        sim.scheduler.queue.extend([extra, extra])
        with pytest.raises(SanitizerError, match="queued twice"):
            sim.sanitizer.after_step()

    def test_terminal_job_in_queue_detected(self):
        done = make_job(2, gpu_num=1)
        done.status = JobStatus.FINISHED  # terminal before the snapshot
        sim = fresh_sim(jobs=[make_job(1, gpu_num=2), done])
        sim.scheduler.queue.append(done)
        with pytest.raises(SanitizerError,
                           match="still sits in the pending queue"):
            sim.sanitizer.after_step()

    def test_queued_while_executing_detected(self):
        # Reachable only through a compound corruption (the lifecycle check
        # fires first on the full sweep), so exercise the check directly.
        sim, job = started_sim()
        job.status = JobStatus.PENDING
        sim.scheduler.queue.append(job)
        with pytest.raises(SanitizerError, match="both queued and executing"):
            sim.sanitizer._check_queue("test")


class TestFaultFlagInvariants:
    def test_unhealthy_gpu_on_healthy_node_detected(self):
        sim, _ = started_sim()
        sim.cluster.gpus[7].healthy = False
        with pytest.raises(SanitizerError, match="has unhealthy GPUs"):
            sim.sanitizer.after_step()

    def test_down_node_with_healthy_gpus_detected(self):
        sim, _ = started_sim()
        sim.cluster.nodes[0].healthy = False
        with pytest.raises(SanitizerError, match="has healthy GPUs"):
            sim.sanitizer.after_step()

    def test_failed_gpu_hosting_jobs_detected(self):
        sim, _ = started_sim()
        sim.cluster.nodes[0].healthy = False
        for gpu in sim.cluster.nodes[0].gpus:
            gpu.healthy = False
        with pytest.raises(SanitizerError, match="still hosts jobs"):
            sim.sanitizer.after_step()

    @pytest.mark.parametrize("factor", [0.0, -0.5, 1.5])
    def test_straggler_factor_out_of_range_detected(self, factor):
        sim, _ = started_sim()
        sim.cluster.gpus[7].fault_slow = factor
        with pytest.raises(SanitizerError, match="straggler factor"):
            sim.sanitizer.after_step()

    def test_straggler_window_in_range_fine(self):
        sim, _ = started_sim()
        sim.cluster.gpus[7].fault_slow = 0.6
        sim.sanitizer.after_step()


class TestZeroOverheadContract:
    def test_sanitizer_absent_by_default(self):
        sim = fresh_sim(sanitize=False)
        assert sim.observers == []
        assert getattr(sim, "sanitizer", None) is None

    def test_full_run_stays_clean(self, tiny_spec):
        gen = TraceGenerator(tiny_spec)
        sim = Simulator(gen.build_cluster(), gen.generate(),
                        FIFOScheduler(), observers=sanitizers())
        result = sim.run()
        assert result.n_jobs == tiny_spec.n_jobs
        assert sim.sanitizer.checks_run > 0

    def test_fault_run_keeps_occupancy_counters(self):
        # Node failures and recoveries on the main and the profiling
        # cluster flip health mid-run and Lucid packs jobs; every sweep
        # rescans the counters.
        gen = TraceGenerator(TraceSpec(
            name="tight", n_nodes=2, n_vcs=1, n_jobs=150, full_n_jobs=150,
            mean_duration=3600.0, span_days=0.25, n_users=12, seed=99))
        history = gen.generate_history()
        faults = FaultSpec(seed=11, node_mtbf=4000.0, node_mttr=300.0,
                           profiler_mtbf=6000.0)
        sim = Simulator(gen.build_cluster(), gen.generate(),
                        make_scheduler("lucid", history), faults=faults,
                        observers=sanitizers())
        result = sim.run()
        assert result.faults.node_failures > 0
        assert result.utilization.gpu_shared > 0
        assert sim.sanitizer.checks_run > 0

    @pytest.mark.parametrize("name", ["fifo", "tiresias", "lucid"])
    def test_sanitized_run_bit_identical(self, name, tiny_spec):
        def run(sanitize):
            gen = TraceGenerator(tiny_spec)
            cluster = gen.build_cluster()
            history = gen.generate_history()
            return Simulator(cluster, gen.generate(),
                             make_scheduler(name, history),
                             observers=sanitizers(sanitize)).run()

        plain, checked = run(False), run(True)
        assert plain.summary() == checked.summary()
        assert [r.jct for r in plain.records] == \
            [r.jct for r in checked.records]
        assert [r.preemptions for r in plain.records] == \
            [r.preemptions for r in checked.records]


class TestRuntimeAdmission:
    """Jobs that join through ``add_job`` after ``begin()``: each one is
    tracked and reaches the reference run too."""

    @pytest.mark.parametrize("name", ["fifo", "lucid"])
    def test_admissions_end_on_the_unsanitized_digest(self, name,
                                                      tiny_spec):
        def run(sanitize):
            gen = TraceGenerator(tiny_spec)
            sim = Simulator(gen.build_cluster(), [],
                            make_scheduler(name, gen.generate_history),
                            observers=sanitizers(sanitize))
            sim.begin()
            for job in gen.generate():
                sim.add_job(job)
                sim.step_batch()
            while sim.step_batch():
                pass
            return sim

        checked, plain = run(True), run(False)
        assert checked.sanitizer.passes_matched > len(checked.jobs)
        assert state_digest(checked) == state_digest(plain)
