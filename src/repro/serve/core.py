"""``SimCore`` — the deterministic state machine the service journals.

The core bundles a :class:`~repro.sim.engine.Simulator` (started with an
*empty* job set; all jobs arrive at runtime via
:meth:`Simulator.add_job`) with the admission bookkeeping the daemon
needs: the next free job id and the set of inbox filenames already
consumed.  Everything in here is a pure deterministic function of the
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
"""

from __future__ import annotations

import hashlib
import json
import pickle
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set

from repro.core.factory import make_scheduler
from repro.sim.engine import SimulationError, Simulator
from repro.traces.generator import TraceGenerator
from repro.traces.spec import get_spec
from repro.serve.config import ServeConfig
from repro.serve.jobspec import JobSpecError, job_from_spec

__all__ = ["SimCore", "state_digest"]


def _hex(value: Optional[float]) -> Optional[str]:
    return None if value is None else float(value).hex()


def state_digest(sim: Simulator) -> str:
    """sha256 over the canonical JSON of the engine's logical state.

    Exact (floats via ``float.hex``) and process-stable (no pickle
    bytes, no set/str-hash iteration orders): two engines that executed
    the identical operation sequence digest identically, on any host.
    """
    jobs = []
    for job_id in sorted(sim.jobs):
        job = sim.jobs[job_id]
        jobs.append([job_id, job.status.value, _hex(job.progress),
                     _hex(job.service_time), job.preemptions,
                     _hex(job.submit_time), _hex(job.first_start_time),
                     _hex(job.finish_time)])
    run_states = []
    for job_id in sorted(sim.run_states):
        state = sim.run_states[job_id]
        run_states.append([job_id, [g.gpu_id for g in state.gpus],
                           _hex(state.speed), _hex(state.last_update),
                           state.epoch, _hex(state.overhead_left),
                           _hex(state.time_limit_at), state.is_profiling])
    gpus = []
    for node in sim.cluster.nodes:
        for gpu in node.gpus:
            gpus.append([gpu.gpu_id, sorted(gpu.residents), gpu.healthy,
                         _hex(gpu.speed_factor), _hex(gpu.fault_slow)])
    # Heap-list order (not sorted order) — identical operation sequences
    # produce identical heap layouts, and layout divergence is exactly
    # what the digest must catch.
    heap = []
    for event in sim.events._heap:
        heap.append([_hex(event.time), event.seq, event.kind.value,
                     event.job_id, event.epoch, repr(event.payload)])
    queue = getattr(sim.scheduler, "queue", None)
    payload: Dict[str, Any] = {
        "now": _hex(sim.now),
        "events_processed": sim._events_processed,
        "unfinished": sim._unfinished,
        "tick_scheduled": sim._tick_scheduled,
        "jobs": jobs,
        "run_states": run_states,
        "gpus": gpus,
        "heap": heap,
        "queue": (None if queue is None
                  else [job.job_id for job in queue]),
        "records": [len(sim.records),
                    sim.records[-1].job_id if sim.records else None],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
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
        history = generator.generate_history()
        scheduler = make_scheduler(config.scheduler, history)
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
        return state_digest(self.sim)

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
            self.consumed.add(filename)
        return dispositions

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
        """Pickle the core for a store snapshot.

        The engine's observers never belong in a snapshot: the tracer
        (the daemon's lineage collector when serve telemetry is on) and
        the live-telemetry profiler are detached before pickling so the
        blob captures pure simulation state — a snapshot taken with
        telemetry on is byte-identical to one taken without — and both
        are re-attached on the way out.
        """
        tracer, metrics = self.sim.tracer, self.sim.metrics
        profiler = self.sim.profiler
        self.sim.attach_tracer(None)
        self.sim.profiler = None
        try:
            payload = {
                "config": self.config.to_json(),
                "sim": self.sim,
                "tick": self.tick,
                "next_job_id": self.next_job_id,
                "consumed": sorted(self.consumed),
                "degraded": self.degraded,
            }
            return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            self.sim.attach_tracer(tracer)
            self.sim.metrics = metrics
            self.sim.profiler = profiler

    @classmethod
    def from_blob(cls, blob: bytes) -> "SimCore":
        payload = pickle.loads(blob)
        sim: Simulator = payload["sim"]
        sim.attach_tracer(None)
        sim.profiler = None
        core = cls(ServeConfig.from_json(payload["config"]), sim,
                   next_job_id=int(payload["next_job_id"]),
                   consumed=set(payload["consumed"]),
                   tick=int(payload["tick"]))
        core.degraded = payload["degraded"]
        return core
