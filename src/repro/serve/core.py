"""``SimCore`` — the deterministic state machine the service journals.

The core bundles a :class:`~repro.sim.engine.Simulator` (started with an
*empty* job set; all jobs arrive at runtime via
:meth:`Simulator.add_job`) with the admission bookkeeping the daemon
needs: the next free job id, the set of inbox filenames already
consumed and the highest inbox sequence number among them.  Everything
in here is a pure deterministic function of the
:class:`~repro.serve.config.ServeConfig` and the sequence of
``admit_specs`` / ``advance`` calls — no wall clock, no randomness
outside the seeded trace/fault generators — which is what makes WAL
replay reproduce the pre-crash state bit-identically.

:func:`state_digest` condenses the engine state (clock, per-job
progress floats, GPU occupancy, the event heap, the scheduler queue)
into a sha256 over canonical JSON.  Floats are rendered with
``float.hex`` so the digest is exact, and nothing hash-randomized
(pickle bytes, set iteration order) feeds it — the digest of the same
logical state is stable across processes and Python runs.

A commit digest covers every GPU and every job ever admitted, but a
tick changes few of them, so :class:`SimCore` keeps a
:class:`DigestCache` of encoded rows and :func:`state_digest` re-encodes
only what may have changed:

* *GPU rows, per node, keyed on the VC change epoch.*  A GPU row holds
  the device id, its residents, ``healthy``, ``speed_factor`` and
  ``fault_slow``.  The residents change only through ``GPU.attach`` /
  ``GPU.detach``, health and straggler windows only through
  ``Node.set_health`` / ``Node.set_slow``, and each of those raises
  ``cluster.vc_epochs[node.vc]``; the id and ``speed_factor`` are fixed
  once the cluster is built.  An unchanged epoch therefore means the
  node's rows are unchanged.
* *Job rows, re-encoded only while live.*  A job in a terminal status
  (no outgoing transition in the sanitizer's state machine) can no
  longer change, so its last encoding is final.  Serve admits jobs in
  increasing id order, so the rows sit in a list in digest order and a
  commit re-encodes the live jobs only.  Jobs added out of id order
  make the digest fall back to the reference.

The cached digest splices the same canonical JSON together, so its
bytes equal the one-pass reference ``state_digest(sim)``.  The cache is
derived state: it is never snapshotted, a loaded core starts with it
empty, and it resets itself when handed a different cluster, because
the epochs restart at zero when a cluster is unpickled.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import pickle
from typing import (TYPE_CHECKING, Any, Dict, FrozenSet, List, Mapping,
                    Optional, Sequence, Set, Tuple)

from repro.core.factory import make_scheduler
from repro.sim.engine import SimulationError, Simulator
from repro.traces.generator import TraceGenerator
from repro.traces.spec import get_spec
from repro.serve.config import ServeConfig
from repro.serve.inbox import highest_seq, name_seq
from repro.serve.jobspec import JobSpecError, job_from_spec
from repro.workloads.job import Job, JobStatus

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.cluster.cluster import Cluster
    from repro.cluster.node import Node

__all__ = ["DigestCache", "SimCore", "state_digest"]


def _hex(value: Optional[float]) -> Optional[str]:
    return None if value is None else float(value).hex()


#: Canonical JSON: sorted keys, no whitespace.  One shared encoder, so a
#: row costs one ``encode`` call rather than a ``json.dumps`` set-up.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@functools.lru_cache(maxsize=None)
def terminal_statuses() -> FrozenSet[JobStatus]:
    """Statuses with no outgoing transition: a job there never changes."""
    # Lazy: the layering DAG allows serve no module-level checks import.
    from repro.checks.sanitizer import ALLOWED_TRANSITIONS
    return frozenset(status for status, successors
                     in ALLOWED_TRANSITIONS.items() if not successors)


def _job_row(job_id: int, job: Job) -> List[Any]:
    return [job_id, job.status.value, _hex(job.progress),
            _hex(job.service_time), job.preemptions,
            _hex(job.submit_time), _hex(job.first_start_time),
            _hex(job.finish_time)]


def encode_job_row(job_id: int, job: Job) -> str:
    """One job's canonical row, exactly as it appears in the digest."""
    return _encode(_job_row(job_id, job))


def _gpu_rows(node: Node) -> List[List[Any]]:
    return [[gpu.gpu_id, sorted(gpu.residents), gpu.healthy,
             _hex(gpu.speed_factor), _hex(gpu.fault_slow)]
            for gpu in node.gpus]


def encode_node_gpus(node: Node) -> str:
    """One node's GPU rows, comma-joined exactly as in the digest."""
    return _encode(_gpu_rows(node))[1:-1]


def _digest_parts(sim: Simulator) -> Dict[str, Any]:
    """Every digest key except ``gpus`` and ``jobs``."""
    run_states = []
    for job_id in sorted(sim.run_states):
        state = sim.run_states[job_id]
        run_states.append([job_id, [g.gpu_id for g in state.gpus],
                           _hex(state.speed), _hex(state.last_update),
                           state.epoch, _hex(state.overhead_left),
                           _hex(state.time_limit_at), state.is_profiling])
    # Heap-list order (not sorted order) — identical operation sequences
    # produce identical heap layouts, and layout divergence is exactly
    # what the digest must catch.
    heap = []
    for event in sim.events.in_heap_order():
        heap.append([_hex(event.time), event.seq, event.kind.value,
                     event.job_id, event.epoch, repr(event.payload)])
    queue = getattr(sim.scheduler, "queue", None)
    return {
        "now": _hex(sim.now),
        "events_processed": sim._events_processed,
        "unfinished": sim._unfinished,
        "tick_scheduled": sim._tick_scheduled,
        "run_states": run_states,
        "heap": heap,
        "queue": (None if queue is None
                  else [job.job_id for job in queue]),
        "records": [len(sim.records),
                    sim.records[-1].job_id if sim.records else None],
    }


class DigestCache:
    """Encoded digest rows that :func:`state_digest` reuses across calls.

    Derived state (the module docstring says why each entry stays
    valid): never snapshotted, and reset when handed another cluster.
    """

    def __init__(self) -> None:
        self._reset(None)

    def _reset(self, cluster: Optional[Cluster]) -> None:
        #: The cluster the entries below belong to.
        self.cluster = cluster
        #: Per node, in cluster order: ``(VC epoch, encoded GPU rows)``.
        self.nodes: List[Tuple[int, str]] = \
            [] if cluster is None else [(-1, "")] * len(cluster.nodes)
        #: Every job's encoded row, in job-id (= admission) order.
        self.rows: List[str] = []
        #: ``(index in rows, job_id)`` of the jobs not yet terminal.
        self.live: List[Tuple[int, int]] = []
        #: The highest job id in ``rows``.
        self.last_id: float = float("-inf")

    def splice(self, sim: Simulator) -> Optional[Dict[str, str]]:
        """The encoded ``gpus`` and ``jobs`` arrays of ``sim``, or
        ``None`` if its jobs were not added in increasing id order."""
        if sim.cluster is not self.cluster:
            self._reset(sim.cluster)
        jobs = self._jobs(sim.jobs)
        if jobs is None:
            return None
        return {"gpus": self._gpus(sim.cluster), "jobs": jobs}

    def _gpus(self, cluster: Cluster) -> str:
        """Re-encodes the nodes whose VC epoch moved since the last call."""
        epochs, nodes = cluster.vc_epochs, self.nodes
        pieces = []
        for index, node in enumerate(cluster.nodes):
            epoch = epochs[node.vc]
            entry = nodes[index]
            if entry[0] != epoch:
                entry = nodes[index] = (epoch, encode_node_gpus(node))
            if entry[1]:  # a node without GPUs adds no row
                pieces.append(entry[1])
        return "[" + ",".join(pieces) + "]"

    def _jobs(self, jobs: Dict[int, Job]) -> Optional[str]:
        """Appends the jobs added since the last call, then re-encodes
        the live ones; a job that turns terminal keeps its last row."""
        rows = self.rows
        fresh = list(itertools.islice(reversed(jobs), len(jobs) - len(rows)))
        fresh.reverse()
        order = [self.last_id, *fresh]
        if any(a >= b for a, b in zip(order, order[1:])):
            return None
        for job_id in fresh:
            self.live.append((len(rows), job_id))
            rows.append("")
        if fresh:
            self.last_id = fresh[-1]
        terminal = terminal_statuses()
        live = []
        for index, job_id in self.live:
            job = jobs[job_id]
            rows[index] = encode_job_row(job_id, job)
            if job.status not in terminal:
                live.append((index, job_id))
        self.live = live
        return "[" + ",".join(rows) + "]"


def state_digest(sim: Simulator, cache: Optional[DigestCache] = None) -> str:
    """sha256 over the canonical JSON of the engine's logical state.

    Exact (floats via ``float.hex``) and process-stable (no pickle
    bytes, no set/str-hash iteration orders): two engines that executed
    the identical operation sequence digest identically, on any host.

    Without ``cache`` this encodes the whole state in one pass — the
    reference.  With a :class:`DigestCache` it splices the cached GPU
    and job rows into the same bytes, re-encoding only what changed.
    """
    parts = _digest_parts(sim)
    spliced = None if cache is None else cache.splice(sim)
    if spliced is None:
        parts["gpus"] = [row for node in sim.cluster.nodes
                         for row in _gpu_rows(node)]
        parts["jobs"] = [_job_row(job_id, sim.jobs[job_id])
                         for job_id in sorted(sim.jobs)]
        blob = _encode(parts)
    else:
        # Exactly the bytes of ``_encode(parts)``: sorted keys, no
        # whitespace, each value in the same canonical JSON.
        encoded = {key: _encode(value) for key, value in parts.items()}
        encoded.update(spliced)
        blob = "{" + ",".join(f"{_encode(key)}:{encoded[key]}"
                              for key in sorted(encoded)) + "}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class SimCore:
    """Simulator + admission bookkeeping; the unit snapshots capture."""

    def __init__(self, config: ServeConfig, sim: Simulator,
                 next_job_id: int = 1,
                 consumed: Optional[Set[str]] = None,
                 tick: int = 0) -> None:
        self.config = config
        self.sim = sim
        #: Index of the last *committed* service tick (0 = genesis).
        self.tick = tick
        self.next_job_id = next_job_id
        #: Inbox filenames already admitted (or rejected); survives in
        #: snapshots and is rebuilt from WAL tick records on replay, so
        #: a spec file is never double-admitted across a crash.
        self.consumed: Set[str] = consumed if consumed is not None else set()
        #: Highest ``job-<seq>.json`` sequence number in ``consumed``
        #: (0 if none): the inbox names new files above it, so a name
        #: is never reused after its file was consumed and deleted.
        self.consumed_seq = highest_seq(self.consumed)
        #: Encoded digest rows reused across commits; see
        #: :class:`DigestCache`.  Derived state, never snapshotted.
        self._digest_cache = DigestCache()
        #: Degraded mode: set to the :class:`SimulationError` message
        #: when an advance fails.  A degraded core stops advancing and
        #: admitting, but keeps serving reads.  Deterministic — the same
        #: replay hits the same error at the same point — so the flag is
        #: part of snapshots and survives recovery.
        self.degraded: Optional[str] = None

    # -- construction --------------------------------------------------
    @classmethod
    def genesis(cls, config: ServeConfig) -> "SimCore":
        """Build the tick-0 state: cluster + scheduler, no jobs yet."""
        spec = get_spec(config.trace)
        if config.jobs is not None:
            spec = spec.with_jobs(config.jobs)
        if config.seed is not None:
            spec = spec.with_seed(config.seed)
        generator = TraceGenerator(spec)
        cluster = generator.build_cluster()
        # Only the learned schedulers call for the (costly) history.
        scheduler = make_scheduler(config.scheduler,
                                   generator.generate_history)
        faults = None
        if config.faults is not None:
            from repro.faults import FaultSpec
            faults = FaultSpec.parse(config.faults)
        sim = Simulator(cluster, [], scheduler, faults=faults)
        sim.begin()
        return cls(config, sim)

    # -- state queries --------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether any admitted job is still unfinished."""
        return self.sim._unfinished > 0

    def digest(self) -> str:
        return state_digest(self.sim, self._digest_cache)

    def job_statuses(self) -> List[Dict[str, Any]]:
        """Status rows for ``/status`` (read-only, sorted by id)."""
        rows = []
        for job_id in sorted(self.sim.jobs):
            job = self.sim.jobs[job_id]
            rows.append({
                "job_id": job_id,
                "name": job.name,
                "vc": job.vc,
                "gpu_num": job.gpu_num,
                "status": job.status.value,
                "progress": round(job.progress, 3),
                "duration": job.duration,
            })
        return rows

    # -- transitions (journaled by the daemon) --------------------------
    def admission_error(self, spec: Mapping[str, Any]) -> Optional[str]:
        """Why ``spec`` cannot be admitted, or ``None`` if it can.

        Pure function of (spec, cluster shape): schema validation plus
        the unplaceability check — a job wider than its VC can never be
        placed, and admitting it would deadlock the simulation.
        """
        try:
            job_from_spec(spec, job_id=0)
        except JobSpecError as exc:
            return str(exc)
        vc_name = str(spec["vc"])
        vcs = self.sim.cluster.vcs
        if vc_name not in vcs:
            return (f"unknown VC {vc_name!r}; cluster has "
                    f"{sorted(vcs)}")
        capacity = vcs[vc_name].n_gpus
        if int(spec["gpu_num"]) > capacity:
            return (f"gpu_num {spec['gpu_num']} exceeds VC "
                    f"{vc_name!r} capacity of {capacity} GPUs")
        return None

    def admit_specs(self, specs: Sequence[Mapping[str, Any]],
                    filenames: Sequence[str]) -> List[Dict[str, Any]]:
        """Apply one admission batch; returns per-spec dispositions.

        Deterministic: dispositions and assigned job ids depend only on
        the spec contents and the current core state, so replaying the
        same batch out of the WAL reproduces them exactly.
        """
        dispositions = []
        for spec, filename in zip(specs, filenames):
            reason = self.admission_error(spec)
            if reason is not None:
                dispositions.append({"file": filename, "job_id": None,
                                     "disposition": "rejected",
                                     "reason": reason})
            else:
                job_id = self.next_job_id
                self.next_job_id += 1
                job = job_from_spec(spec, job_id=job_id)
                self.sim.add_job(job)
                dispositions.append({"file": filename, "job_id": job_id,
                                     "disposition": "admitted",
                                     "reason": None})
            self.consume(filename)
        return dispositions

    def consume(self, filename: str) -> None:
        """Mark one inbox filename as consumed (admitted or skipped)."""
        self.consumed.add(filename)
        seq = name_seq(filename)
        if seq is not None and seq > self.consumed_seq:
            self.consumed_seq = seq

    def advance(self) -> int:
        """Advance up to ``events_per_tick`` event batches; returns the
        number actually stepped (0 when idle or degraded).

        A :class:`SimulationError` (deadlock, invariant breach) flips
        the core into degraded mode instead of propagating: the daemon
        keeps serving reads, and — because the failure is deterministic
        — WAL replay reaches the identical degraded state.
        """
        if self.degraded is not None:
            return 0
        stepped = 0
        try:
            while stepped < self.config.events_per_tick and self.active:
                if not self.sim.step_batch():
                    break
                stepped += 1
        except SimulationError as exc:
            self.degraded = str(exc)
        return stepped

    # -- snapshots ------------------------------------------------------
    def to_blob(self) -> bytes:
        """Pickle the core for a store snapshot: byte-identical with
        telemetry on or off (``Simulator.__getstate__`` leaves observers
        out), and without the digest cache (:meth:`from_blob` starts it
        empty)."""
        payload = {
            "config": self.config.to_json(),
            "sim": self.sim,
            "tick": self.tick,
            "next_job_id": self.next_job_id,
            "consumed": sorted(self.consumed),
            "degraded": self.degraded,
        }
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_blob(cls, blob: bytes) -> "SimCore":
        payload = pickle.loads(blob)
        core = cls(ServeConfig.from_json(payload["config"]), payload["sim"],
                   next_job_id=int(payload["next_job_id"]),
                   consumed=set(payload["consumed"]),
                   tick=int(payload["tick"]))
        core.degraded = payload["degraded"]
        return core
