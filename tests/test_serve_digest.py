"""The commit digest's row cache against the one-shot reference.

``SimCore.digest()`` reuses encoded rows from a ``DigestCache``: each
node's GPU rows until its VC's change epoch moves, and each job's row
once the job is terminal.  ``state_digest(sim)`` with no cache encodes
everything in one pass.  A fixed admission script drives cores through
FIFO, Lucid (profiling jobs), a faulted FIFO run (crash, retry,
permanent failure) and a run with node failures and stragglers (every
``Node.set_health`` / ``Node.set_slow`` edge), and the two digests must
agree after every tick — across a snapshot round trip too.  The final
digests are pinned to the values the uncached digest produced, so a
state directory written before the cache existed still recovers.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Set

import pytest

from repro.serve import core as core_mod
from repro.serve.config import ServeConfig
from repro.serve.core import SimCore, state_digest, terminal_statuses
from repro.serve.jobspec import job_to_spec
from repro.serve.recovery import apply_tick_record
from repro.traces.generator import TraceGenerator
from repro.traces.spec import VENUS
from repro.workloads.job import JobStatus

#: Specs admitted per tick, and the script's length and trace seed.
PER_TICK = 8
SCRIPT_JOBS = 48
SCRIPT_SEED = 11

FAULTS = "seed=3,crash_rate=2,retry_limit=1"
#: Node failures, recoveries and straggler windows: the GPU-row fields
#: that change outside ``GPU.attach`` / ``GPU.detach``.  The fault
#: timeline is pre-generated into the event heap, which every digest
#: encodes, so a ~23-day MTBF keeps it short and still fails 7 nodes.
NODE_FAULTS = "seed=3,node_mtbf=2000000,node_mttr=1200,slowdown_rate=0.5"


def _config(scheduler: str = "fifo",
            faults: Optional[str] = None) -> ServeConfig:
    return ServeConfig(trace="venus", scheduler=scheduler, jobs=20, seed=7,
                       batch=PER_TICK, events_per_tick=2, faults=faults)


CONFIGS = {
    "fifo": _config(),
    "lucid": _config("lucid"),
    "fifo-faulted": _config(faults=FAULTS),
    "fifo-node-faults": _config(faults=NODE_FAULTS),
}

#: Final ``SimCore.digest()`` of the script, recorded with the uncached
#: digest (every row re-encoded on each commit).
PINNED = {
    "fifo": "09a3432f35c58c15e04748bd2f7e2607"
            "ce3fc5e0c6bd6271f3d590772443f9a9",
    "fifo-faulted": "8fef3f9695c1e8494e4bfa450bf0a971"
                    "df5f0cdc207ee5a16de8b989f07fc98b",
    "fifo-node-faults": "9744e0e80394319a4764191b56fb4372"
                        "9d5e432ad02f275e483e95c782705921",
}


def admission_script() -> List[Dict]:
    jobs = TraceGenerator(VENUS.with_seed(SCRIPT_SEED)
                          .with_jobs(SCRIPT_JOBS)).generate()
    specs = []
    for job in jobs[:SCRIPT_JOBS]:
        spec = job_to_spec(job)
        del spec["job_id"]
        specs.append(spec)
    return specs


def drive(config: ServeConfig, check: Callable[[SimCore], None],
          round_trip_at: Optional[int] = None) -> SimCore:
    """Apply the script one tick record at a time; ``check`` after each.

    Every third tick also journals an unreadable file as skipped, so
    both writers of the consumed-set run.
    """
    core = SimCore.genesis(config)
    specs = admission_script()
    seq = tick = 0
    while specs or core.active:
        batch, specs = specs[:PER_TICK], specs[PER_TICK:]
        files = [f"job-{seq + i + 1:08d}.json" for i in range(len(batch))]
        seq += len(batch)
        skipped = []
        if tick % 3 == 0:
            seq += 1
            skipped.append(f"job-{seq:08d}.json")
        tick += 1
        apply_tick_record(core, {"tick": tick, "specs": batch,
                                 "files": files, "skipped": skipped})
        assert core.consumed_seq == seq
        check(core)
        if tick == round_trip_at:
            core = SimCore.from_blob(core.to_blob())
            assert core.consumed_seq == seq
        assert tick < 2000, "script never drained"
    return core


def test_terminal_statuses_follow_the_state_machine():
    assert terminal_statuses() == {JobStatus.FINISHED, JobStatus.FAILED}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cached_digest_equals_reference_every_tick(name):
    seen: Set[JobStatus] = set()

    def check(core: SimCore) -> None:
        seen.update(job.status for job in core.sim.jobs.values())
        assert core.digest() == state_digest(core.sim)

    core = drive(CONFIGS[name], check, round_trip_at=10)
    # The script must keep exercising what it is here for.
    assert JobStatus.RUNNING in seen
    if name == "lucid":
        assert JobStatus.PROFILING in seen
    if name == "fifo-faulted":
        assert {JobStatus.CRASHED, JobStatus.FAILED} <= seen
    if name == "fifo-node-faults":
        runtime = core.sim.fault_runtime
        assert runtime.node_failures and runtime.node_recoveries
        assert runtime.slowdowns
    if name in PINNED:
        assert core.digest() == PINNED[name]


def test_commit_encodes_only_live_rows(monkeypatch):
    """A commit re-encodes exactly the jobs that were live at the last
    commit plus the newly admitted ones, so each job is encoded at most
    once after it turned terminal, and a drained history costs none."""
    encoded: List[int] = []
    real = core_mod.encode_job_row

    def counting(job_id, job):
        encoded.append(job_id)
        return real(job_id, job)

    monkeypatch.setattr(core_mod, "encode_job_row", counting)
    terminal = terminal_statuses()
    terminal_encodes: Dict[int, int] = {}
    live: List[int] = []
    admitted = 0

    def check(core: SimCore) -> None:
        nonlocal admitted
        encoded.clear()
        core.digest()
        fresh = list(core.sim.jobs)[admitted:]
        admitted = len(core.sim.jobs)
        assert encoded == live + fresh
        for job_id in encoded:
            if core.sim.jobs[job_id].status in terminal:
                terminal_encodes[job_id] = \
                    terminal_encodes.get(job_id, 0) + 1
        live[:] = sorted(job_id for job_id, job in core.sim.jobs.items()
                         if job.status not in terminal)
        encoded.clear()
        core.digest()
        assert encoded == live

    core = drive(CONFIGS["fifo-faulted"], check)
    assert len(core.sim.jobs) == SCRIPT_JOBS
    assert set(terminal_encodes) == set(core.sim.jobs)
    assert set(terminal_encodes.values()) == {1}
    encoded.clear()
    core.digest()
    assert encoded == []  # history no longer costs encodings


def test_commit_encodes_only_nodes_of_changed_vcs(monkeypatch):
    """A warm commit re-encodes the GPU rows of exactly the nodes whose
    VC change epoch moved since the last commit, in cluster order."""
    encoded: List[int] = []
    real = core_mod.encode_node_gpus

    def counting(node):
        encoded.append(node.node_id)
        return real(node)

    monkeypatch.setattr(core_mod, "encode_node_gpus", counting)
    last: Dict[str, int] = {}
    partial = 0

    def check(core: SimCore) -> None:
        nonlocal partial
        nodes = core.sim.cluster.nodes
        epochs = core.sim.cluster.vc_epochs
        encoded.clear()
        core.digest()
        moved = [node.node_id for node in nodes
                 if epochs[node.vc] != last.get(node.vc)]
        assert encoded == moved
        partial += 0 < len(moved) < len(nodes)
        last.update(epochs)
        encoded.clear()
        core.digest()
        assert encoded == []

    drive(CONFIGS["fifo-node-faults"], check)
    assert partial > 10  # most commits touch only some VCs


def test_cache_resets_on_another_cluster():
    """Epochs restart at zero when a cluster is unpickled, so a cache
    handed another cluster must drop its entries even where the epochs
    happen to match."""
    core = SimCore.genesis(CONFIGS["fifo"])
    stale = core._digest_cache
    core.digest()  # every node cached at epoch 0, all healthy
    core.sim.cluster.nodes[0].set_health(False)
    loaded = SimCore.from_blob(core.to_blob())
    assert set(loaded.sim.cluster.vc_epochs.values()) == {0}
    assert state_digest(loaded.sim, stale) == state_digest(loaded.sim)


def test_jobs_out_of_id_order_fall_back_to_reference():
    """The job rows are kept in admission order, which is digest order
    only while ids increase."""
    core = SimCore.genesis(CONFIGS["fifo"])
    jobs = TraceGenerator(VENUS.with_seed(SCRIPT_SEED).with_jobs(3)).generate()
    cache = core_mod.DigestCache()
    for job_id in (5, 9):
        core.sim.add_job(dataclasses.replace(jobs[0], job_id=job_id))
    assert state_digest(core.sim, cache) == state_digest(core.sim)
    core.sim.add_job(dataclasses.replace(jobs[1], job_id=7))
    assert state_digest(core.sim, cache) == state_digest(core.sim)
