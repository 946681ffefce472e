"""Lucid's stage wake keys and the engine's tuple-ordered event heap.

A Lucid pass skips its profiler stage while the profiler's queue length,
its cluster's change epoch and its active node count are unchanged since
the stage last ran, and it skips its orchestrator stage while the
orchestrator's summary of its failed jobs says every queued job would be
skipped anyway (DESIGN.md §4).  These tests pin that the sanitizer's
reference run, which clears both keys before each of its passes, catches
a key that drops any one component on a run where the skip changes a
decision; that snapshots carry neither key and resume bit-identically;
and that the event heap pickles as the list of events it always did.
"""

from __future__ import annotations

import functools
import pickle

import pytest

from repro.checks import SanitizerError, SimSanitizer
from repro.cluster import Cluster
from repro.core.lucid import LucidConfig, LucidScheduler
from repro.core.orchestrator import ResourceOrchestrator
from repro.obs import SimProfiler
from repro.serve.core import state_digest
from repro.sim.engine import Simulator
from repro.sim.events import Event, EventKind, EventQueue
from repro.traces.generator import TraceGenerator
from repro.traces.spec import TraceSpec

from conftest import make_job

#: Small enough to sanitize in ~1 s; its profiling queue backs up.
TIGHT = TraceSpec(name="tight", n_nodes=6, n_vcs=2, n_jobs=200,
                  full_n_jobs=200, mean_duration=3000.0, span_days=0.5,
                  n_users=16, seed=5)

#: A one-node profiler that may borrow one more, so a blocked head job
#: waits for a profiling run to end or for Time-aware Scaling.
SMALL_PROFILER = LucidConfig(seed=7, profiler_nodes=1,
                             profiler_borrow_nodes=1)


def tight_sim(scheduler_cls=LucidScheduler, orchestrator=None,
              sanitize: bool = False) -> Simulator:
    generator = TraceGenerator(TIGHT)
    scheduler = scheduler_cls(generator.generate_history(), SMALL_PROFILER)
    sim = Simulator(generator.build_cluster(), generator.generate(),
                    scheduler,
                    observers=[SimSanitizer()] if sanitize else [])
    if orchestrator is not None:
        scheduler.orchestrator = orchestrator()
    return sim


# ----------------------------------------------------------------------
# Mutants: each drops one component of a wake key
# ----------------------------------------------------------------------
class ProfilerEpochBlind(LucidScheduler):
    def _profiler_token(self):
        length, _epoch, nodes = super()._profiler_token()
        return length, nodes


class ActiveNodesBlind(LucidScheduler):
    def _profiler_token(self):
        return super()._profiler_token()[:2]


class ProfilerLengthBlind(LucidScheduler):
    def _profiler_token(self):
        return super()._profiler_token()[1:]


class QueueLengthBlind(ResourceOrchestrator):
    def idle(self, engine, queue, context, now):
        summary = self._summary
        if summary is not None:
            queue = queue[:summary[1]]
        return super().idle(engine, queue, context, now)


class VCEpochBlind(ResourceOrchestrator):
    def idle(self, engine, queue, context, now):
        summary = self._summary
        return (summary is not None and context == summary[0]
                and len(queue) == summary[1]
                and (summary[3] is None
                     or now - summary[3] <= self.starvation_threshold))


class StarvationBlind(ResourceOrchestrator):
    def idle(self, engine, queue, context, now):
        return super().idle(engine, queue, context, float("-inf"))


class ContextBlind(ResourceOrchestrator):
    def idle(self, engine, queue, context, now):
        summary = self._summary
        if summary is not None:
            context = summary[0]
        return super().idle(engine, queue, context, now)


#: How a skip that changed a decision surfaces.
DIVERGED = "in the reference run without shortcuts"


def unprofiled_lucid(orchestrator) -> LucidScheduler:
    """A Lucid without a profiler, on ``orchestrator``."""
    config = LucidConfig(seed=7, enable_profiler=False)
    scheduler = LucidScheduler(TraceGenerator(TIGHT).generate_history(),
                               config)
    scheduler.orchestrator = orchestrator(
        starvation_threshold=config.starvation_threshold)
    return scheduler


def packing_sim(orchestrator=ResourceOrchestrator) -> Simulator:
    """A full one-node VC and four 8-GPU jobs arriving together: the
    queue pressure turns the binder from Apathetic to Default at the
    next control pass, and only that new context packs a waiting job
    onto the running one."""
    jobs = [make_job(1, duration=50_000.0, gpu_num=8)]
    jobs += [make_job(job_id, duration=5000.0, gpu_num=8, submit_time=310.0)
             for job_id in range(2, 6)]
    return Simulator(Cluster({"vc1": 1}), jobs,
                     unprofiled_lucid(orchestrator),
                     observers=[SimSanitizer(), SimProfiler()])


@pytest.mark.parametrize("make_sim", [
    functools.partial(tight_sim, ProfilerEpochBlind, sanitize=True),
    functools.partial(tight_sim, ActiveNodesBlind, sanitize=True),
    functools.partial(tight_sim, ProfilerLengthBlind, sanitize=True),
    functools.partial(tight_sim, orchestrator=QueueLengthBlind,
                      sanitize=True),
    functools.partial(tight_sim, orchestrator=VCEpochBlind, sanitize=True),
    functools.partial(packing_sim, ContextBlind),
], ids=["profiler-epoch", "active-nodes", "profiler-queue-length",
        "queue-length", "vc-epoch", "context"])
def test_sanitizer_catches_a_key_missing_a_part(make_sim):
    with pytest.raises(SanitizerError, match=DIVERGED):
        make_sim().run()


def starving_sim(orchestrator=ResourceOrchestrator, narrow=(4,),
                 wide: int = 16, n_nodes: int = 2) -> Simulator:
    """Long jobs of ``narrow`` GPUs, then a ``wide`` job that waits past
    the starvation threshold in a VC where nothing else happens: the
    passes in between are idle until the job begins starving."""
    jobs = [make_job(index + 1, duration=50_000.0, gpu_num=gpus,
                     submit_time=float(index))
            for index, gpus in enumerate(narrow)]
    jobs.append(make_job(len(jobs) + 1, duration=1000.0, gpu_num=wide,
                         submit_time=10.0))
    return Simulator(Cluster({"vc1": n_nodes}), jobs,
                     unprofiled_lucid(orchestrator),
                     observers=[SimSanitizer(), SimProfiler()])


def test_sanitizer_catches_a_key_blind_to_starvation():
    """Jobs of 5 and 6 GPUs leave 3 and 2 GPUs free beside an empty
    node, so the 12-GPU job has no consolidated slot but fits relaxed
    once it starves."""
    sim = starving_sim(StarvationBlind, narrow=(5, 6), wide=12, n_nodes=3)
    with pytest.raises(SanitizerError, match=DIVERGED):
        sim.run()


@pytest.mark.parametrize("make_sim", [
    packing_sim,
    functools.partial(starving_sim, narrow=(5, 6), wide=12, n_nodes=3),
], ids=["packing", "starving"])
def test_complete_keys_pass_the_mutant_fixtures(make_sim):
    """The fixtures skip stages, and only a mutant key breaks them."""
    sim = make_sim()
    sim.run()
    assert sim.profiler.counters["orchestrator_stage_skips"] > 0


def test_waiting_multi_node_job_is_skipped_until_it_starves():
    sim = starving_sim()
    result = sim.run()
    assert sorted(record.job_id for record in result.records) == [1, 2]
    counters = sim.profiler.counters
    assert counters["orchestrator_stage_skips"] > 0
    # The long job once; the wide one on arrival, when it begins
    # starving, and when the long job's release moves the VC's epoch.
    assert counters["placement_attempts"] == 4


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
def test_snapshot_with_both_keys_resumes_identically():
    reference = tight_sim()
    reference.run()
    sim = tight_sim()
    sim.begin()
    scheduler = sim.scheduler
    while not (scheduler.profiler.queue
               and scheduler._profiler_seen is not None
               and scheduler.orchestrator._summary is not None):
        assert sim.step_batch()
    state = scheduler.__getstate__()
    assert "_profiler_seen" not in state
    assert "_summary" not in scheduler.orchestrator.__getstate__()
    loaded = pickle.loads(pickle.dumps(sim))
    assert loaded.scheduler._profiler_seen is None
    assert loaded.scheduler.orchestrator._summary is None
    for run in (loaded, sim):
        while run.step_batch():
            pass
        run.finalize()
        assert state_digest(run) == state_digest(reference)


# ----------------------------------------------------------------------
# The event heap
# ----------------------------------------------------------------------
def test_event_queue_pickles_events_in_heap_order():
    queue = EventQueue()
    for time, kind in [(5.0, EventKind.TICK), (1.0, EventKind.SUBMIT),
                       (5.0, EventKind.FINISH), (3.0, EventKind.RETRY),
                       (1.0, EventKind.TICK)]:
        queue.push(time, kind, job_id=7)
    state = queue.__getstate__()
    assert all(type(event) is Event for event in state["_heap"])
    assert state["_heap"] == queue.in_heap_order()
    loaded = pickle.loads(pickle.dumps(queue))
    assert loaded.in_heap_order() == queue.in_heap_order()
    loaded.push(2.0, EventKind.SUBMIT)
    queue.push(2.0, EventKind.SUBMIT)
    popped = [(queue.pop(), loaded.pop()) for _ in range(len(queue))]
    assert all(a == b and a.kind is b.kind for a, b in popped)
    assert [a.time for a, _ in popped] == [1.0, 1.0, 2.0, 3.0, 5.0, 5.0]
