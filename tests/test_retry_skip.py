"""The orchestrator's unchanged-VC retry skip.

A queued Lucid job whose placement failed is not attempted again until
its VC's change epoch moves (or the sharing mode, the binder's GSS
capacity or the job's starvation flag does).  These tests pin what the
epoch counts, that the sanitizer's reference run, which forgets the memo
before each of its passes, agrees with every skip and catches a memo
that ignores the epoch, the exact work counters of one contended run,
that an audited run takes the same path and records what a full walk
records, and that snapshots neither carry the memo nor depend on it.
"""

from __future__ import annotations

import pickle

import pytest

from repro.checks import SanitizerError, SimSanitizer
from repro.cluster import Cluster
from repro.core.lucid import LucidConfig, LucidScheduler
from repro.core.orchestrator import ResourceOrchestrator
from repro.faults import FaultSpec
from repro.obs import RingBufferTracer, SimProfiler
from repro.obs.audit import DecisionAudit
from repro.serve.config import ServeConfig
from repro.serve.core import SimCore, state_digest
from repro.sim.engine import Simulator
from repro.traces.generator import TraceGenerator
from repro.traces.spec import TraceSpec

#: Small enough to sanitize in ~2 s, contended enough that most
#: placement attempts would be retries of an unchanged VC.
TIGHT = TraceSpec(name="tight", n_nodes=6, n_vcs=2, n_jobs=200,
                  full_n_jobs=200, mean_duration=3000.0, span_days=0.5,
                  n_users=16, seed=5)

FAULTS = FaultSpec(seed=7, node_mtbf=43200.0, node_mttr=1800.0,
                   crash_rate=0.2, slowdown_rate=0.2)


def tight_sim(scheduler=None, **kwargs) -> Simulator:
    generator = TraceGenerator(TIGHT)
    cluster = generator.build_cluster()
    history = generator.generate_history()
    jobs = generator.generate()
    if scheduler is None:
        scheduler = LucidScheduler(history, LucidConfig(seed=7))
    return Simulator(cluster, jobs, scheduler, **kwargs)


class EpochBlindOrchestrator(ResourceOrchestrator):
    """Mutant: a retry key without the VC epoch, so a job stays skipped
    after GPUs in its VC are released."""

    @staticmethod
    def _retry_keys(engine, queue, context, starving):
        return [(context, starving(job)) for job in queue]


# ----------------------------------------------------------------------
# The change epoch
# ----------------------------------------------------------------------
def test_epoch_moves_on_every_placement_state_change():
    cluster = Cluster({"a": 1, "b": 1})
    assert cluster.vc_epochs == {"a": 0, "b": 0}
    gpu = cluster.vc("a").nodes[0].gpus[0]
    gpu.attach(1, 1000.0)
    gpu.detach(1)
    assert cluster.vc_epochs == {"a": 2, "b": 0}
    node = cluster.vc("b").nodes[0]
    node.set_health(False)
    node.set_health(True)
    node.set_slow(0.5)
    node.set_slow(1.0)
    assert cluster.vc_epochs == {"a": 2, "b": 4}


def test_epochs_are_not_pickled():
    cluster = Cluster({"a": 1})
    cluster.vc("a").nodes[0].gpus[0].attach(1, 1000.0)
    assert "vc_epochs" not in cluster.__getstate__()
    assert pickle.loads(pickle.dumps(cluster)).vc_epochs == {"a": 0}


# ----------------------------------------------------------------------
# Exactness: the reference run attempts every job
# ----------------------------------------------------------------------
@pytest.mark.parametrize("faults", [None, FAULTS], ids=["plain", "faulted"])
def test_sanitizer_verifies_every_skip(faults):
    """The reference run agrees with every pass of the real memo and
    stage keys, and the sanitizer only observes: the sanitized run
    makes the decisions and the profiler counts of a plain one, skips
    included."""
    sim = tight_sim(observers=[SimSanitizer(), SimProfiler()],
                    faults=faults)
    plain = tight_sim(observers=[SimProfiler()], faults=faults)
    sim.run()
    plain.run()
    counts = sim.profiler.counters
    assert sim.sanitizer.checks_run > 0
    assert counts["placement_skips"] > 0
    assert counts["profiler_stage_skips"] > 0
    assert counts["orchestrator_stage_skips"] > 0
    assert counts == plain.profiler.counters
    assert state_digest(sim) == state_digest(plain)
    assert sim.sanitizer.passes_matched == plain.profiler.pass_count


def test_epoch_blind_memo_trips_the_sanitizer():
    sim = tight_sim(observers=[SimSanitizer()])
    sim.scheduler.orchestrator = EpochBlindOrchestrator()
    with pytest.raises(SanitizerError,
                       match="in the reference run without shortcuts"):
        sim.run()


# ----------------------------------------------------------------------
# Exact work counters
# ----------------------------------------------------------------------
def test_placement_counters_are_pinned():
    sim = tight_sim(observers=[SimProfiler()])
    sim.run()
    counters = sim.profiler.counters
    assert counters["placement_attempts"] == 514
    assert counters["placement_skips"] == 4237
    assert "placement_attempts" in sim.profiler.report()


class FullWalkLucid(LucidScheduler):
    """Reference: a Lucid that attempts every queued job each pass."""

    def _retry_context(self):
        return None


def _audited_sim(scheduler_cls=LucidScheduler, **kwargs):
    audit = DecisionAudit(attribution=True)
    generator = TraceGenerator(TIGHT)
    scheduler = scheduler_cls(generator.generate_history(),
                              LucidConfig(seed=7), audit=audit)
    return tight_sim(scheduler, **kwargs), audit


def _decisions(audit):
    return [decision.to_dict() for decision in audit.records]


def test_audited_runs_take_the_unaudited_path():
    """The audit only records: an audited run skips exactly the jobs an
    unaudited run skips, decides the same, and records what the full
    walk would have recorded (verdicts are pass-local, and a skipped
    job is not placed)."""
    sim, audit = _audited_sim(observers=[SimProfiler()])
    full, full_audit = _audited_sim(FullWalkLucid, observers=[SimProfiler()])
    plain = tight_sim()
    for run in (sim, full, plain):
        run.run()
    counters = sim.profiler.counters
    assert counters["placement_attempts"] == 514
    assert counters["placement_skips"] == 4237
    assert full.profiler.counters["placement_skips"] == 0
    assert state_digest(sim) == state_digest(plain) == state_digest(full)
    assert audit.records
    assert _decisions(audit) == _decisions(full_audit)


def test_sanitizer_leaves_the_audit_unchanged(tmp_path):
    """The reference run is a copy taken after the audit was attached;
    it records into its own copy of the audit, never into the tracer,
    so a sanitized traced run writes the event log, decisions and
    refits included, of an unsanitized one."""
    paths = []
    for sanitize in (True, False):
        path = tmp_path / f"events-{sanitize}.jsonl"
        with RingBufferTracer(sink=str(path)) as tracer:
            observers = [tracer, SimSanitizer()] if sanitize else [tracer]
            sim, audit = _audited_sim(observers=observers, faults=FAULTS)
            sim.run()
        assert DecisionAudit.from_jsonl(str(path)).records == audit.records
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
def _core() -> SimCore:
    sim = tight_sim()
    sim.begin()
    return SimCore(ServeConfig(scheduler="lucid", events_per_tick=16), sim)


def _finish(core: SimCore) -> str:
    while core.active:
        assert core.advance()
    return core.digest()


@pytest.fixture(scope="module")
def reference() -> str:
    """Final digest of the uninterrupted run."""
    return _finish(_core())


def _advance_until_skipping(core: SimCore) -> None:
    """Step until the memo holds failed jobs, i.e. mid-contention."""
    for _ in range(60):
        core.advance()
    assert core.sim.scheduler.orchestrator._failed


def test_snapshot_mid_run_finishes_identically(reference):
    core = _core()
    _advance_until_skipping(core)
    loaded = SimCore.from_blob(core.to_blob())
    assert loaded.sim.scheduler.orchestrator._failed == {}
    assert set(loaded.sim.cluster.vc_epochs.values()) == {0}
    assert _finish(loaded) == reference
    assert _finish(core) == reference


def test_blob_without_memo_or_epochs_loads(reference):
    """A snapshot written before the memo and the epochs existed."""
    core = _core()
    _advance_until_skipping(core)
    del core.sim.scheduler.orchestrator._failed
    del core.sim.cluster.vc_epochs
    loaded = SimCore.from_blob(core.to_blob())
    assert loaded.sim.scheduler.orchestrator._failed == {}
    assert _finish(loaded) == reference


# ----------------------------------------------------------------------
# Serve start-up
# ----------------------------------------------------------------------
def test_genesis_builds_history_only_for_learned_schedulers(monkeypatch):
    calls = []
    original = TraceGenerator.generate_history

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(TraceGenerator, "generate_history", counting)
    SimCore.genesis(ServeConfig(scheduler="fifo", jobs=20, seed=7))
    assert not calls
    SimCore.genesis(ServeConfig(scheduler="qssf", jobs=20, seed=7))
    assert len(calls) == 1
