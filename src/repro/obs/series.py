"""Fixed-interval cluster time series sampled during simulation.

:class:`~repro.sim.metrics.SimulationResult` aggregates a whole run into
scalars; the paper's queuing curves (Figure 9) and any future dashboard
need the *trajectory* instead.  :class:`SeriesCollector` samples cluster
state on a fixed simulated-time grid — GPU allocation / sharing /
memory, fragmentation, running and pending job counts, and the pending
queue length per virtual cluster — and exports the table as CSV or JSON.

Sampling semantics (the part that keeps it deterministic):

* Simulation state is piecewise-constant between event batches, so a
  grid point that falls *strictly between* two batches records the state
  left behind by the earlier batch — exactly what held at that instant.
* A grid point that coincides with an event batch records the state
  *after* every simultaneous event of that batch (drained in
  ``Event.seq`` order) and the follow-up scheduler pass have run, and it
  is recorded exactly once.  Sampling therefore never depends on how a
  timestamp's events happened to be ordered inside the batch.

Like every :class:`~repro.obs.tracer.Observer`, the collector is
read-only: a collected run is bit-identical to a plain one
(regression-tested), and a run without it pays nothing for it.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.ioutil import atomic_write_text
from repro.obs.tracer import Observer
from repro.workloads.job import JobStatus

__all__ = ["SERIES_SCHEMA", "SeriesCollector", "SeriesSample"]

#: Same simultaneity tolerance as the engine's event-drain loop.
_EPS = 1e-6

#: Job states that count as "pending" (waiting for placement).
_PENDING_STATES = (JobStatus.PENDING, JobStatus.PREEMPTED)

#: Schema tag written into JSON exports.
SERIES_SCHEMA = "repro-series/v1"


@dataclass(frozen=True)
class SeriesSample:
    """Cluster state at one sampled instant of simulated time."""

    time: float
    gpus_total: int
    #: GPUs hosting at least one job.
    gpus_busy: int
    #: ``gpus_busy / gpus_total``.
    gpu_alloc: float
    #: Fraction of GPUs hosting two or more jobs (colocated share).
    gpu_shared: float
    #: Fraction of aggregate device memory attached to jobs.
    memory_used: float
    #: Fraction of busy GPUs held by jobs spanning more nodes than their
    #: consolidated minimum (the placements paying the fragmentation
    #: penalty in :class:`~repro.sim.engine.Simulator`).
    fragmentation: float
    running_jobs: int
    pending_jobs: int
    #: Pending jobs per virtual cluster (every VC always present).
    queue_by_vc: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "time": self.time,
            "gpus_total": self.gpus_total,
            "gpus_busy": self.gpus_busy,
            "gpu_alloc": self.gpu_alloc,
            "gpu_shared": self.gpu_shared,
            "memory_used": self.memory_used,
            "fragmentation": self.fragmentation,
            "running_jobs": self.running_jobs,
            "pending_jobs": self.pending_jobs,
        }
        for vc, depth in sorted(self.queue_by_vc.items()):  # repro: noqa RPR121 — canonical column ordering
            out[f"queue_{vc}"] = depth
        return out


class SeriesCollector(Observer):
    """Samples cluster time series on a fixed simulated-time grid.

    Parameters
    ----------
    interval:
        Grid spacing in simulated seconds (default 300 s, the paper's
        five-minute monitoring cadence).

    Pass an instance in ``Simulator(observers=[...])``; after ``run()`` the
    trajectory is available as :attr:`samples` and exportable via
    :meth:`to_csv` / :meth:`to_json`.  A collector is single-use: it is
    bound to one engine and one run.
    """

    def __init__(self, interval: float = 300.0) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = float(interval)
        self.samples: List[SeriesSample] = []
        self._engine: Optional[Any] = None
        #: Index of the next unemitted grid point (time = k * interval).
        self._next_k = 0

    # ------------------------------------------------------------------
    # Observer hooks
    # ------------------------------------------------------------------
    def attach(self, engine: Any) -> None:
        if self._engine is not None and self._engine is not engine:
            raise RuntimeError("SeriesCollector instances are single-use; "
                               "create a fresh one per Simulator")
        self._engine = engine

    def before_step(self) -> None:
        # Grid points strictly before the next batch sample the state
        # the previous batch left behind (piecewise-constant).
        engine = self._engine
        if engine.events:
            self.advance_to(max(engine.now, engine.events.peek_time()))

    def after_step(self) -> None:
        # A grid point landing exactly on this batch's timestamp samples
        # once, after the whole batch and scheduler pass.
        self.sample_if_due(self._engine.now)

    def finish(self, now: float) -> None:
        """Close the series at the end of the run (time = makespan)."""
        self.advance_to(now)
        self.sample_if_due(now)
        if not self.samples or self.samples[-1].time < now - _EPS:
            self.samples.append(self._snapshot(now))

    def advance_to(self, upcoming: float) -> None:
        """Emit grid points strictly before the ``upcoming`` event batch.

        Called just before the engine dispatches a batch: the live
        cluster state at that moment is exactly the state the previous
        batch left behind, i.e. what held at every grid point inside the
        open interval.  Snapshots are taken only when a grid point is
        actually due, so quiet stretches cost one float comparison.
        """
        if self._next_time() >= upcoming - _EPS:
            return
        snap = self._snapshot(self._next_time())
        self.samples.append(snap)
        self._next_k += 1
        while self._next_time() < upcoming - _EPS:
            self.samples.append(self._restamp(snap, self._next_time()))
            self._next_k += 1

    def sample_if_due(self, now: float) -> None:
        """Emit the grid point coinciding with the batch that just ran.

        Called after every simultaneous event of the batch (drained in
        ``Event.seq`` order) and the follow-up scheduler pass, so a grid
        point landing exactly on a busy timestamp records the settled
        post-batch state — once.
        """
        if self._next_time() > now + _EPS:
            return
        snap = self._snapshot(now)
        while self._next_time() <= now + _EPS:
            self.samples.append(self._restamp(snap, self._next_time()))
            self._next_k += 1

    def _next_time(self) -> float:
        # Grid points are k * interval (no incremental float accumulation,
        # so the grid never drifts over long runs).
        return self._next_k * self.interval

    @staticmethod
    def _restamp(sample: SeriesSample, time: float) -> SeriesSample:
        return SeriesSample(time=time, gpus_total=sample.gpus_total,
                            gpus_busy=sample.gpus_busy,
                            gpu_alloc=sample.gpu_alloc,
                            gpu_shared=sample.gpu_shared,
                            memory_used=sample.memory_used,
                            fragmentation=sample.fragmentation,
                            running_jobs=sample.running_jobs,
                            pending_jobs=sample.pending_jobs,
                            queue_by_vc=dict(sample.queue_by_vc))

    # ------------------------------------------------------------------
    # State capture
    # ------------------------------------------------------------------
    def _snapshot(self, now: float) -> SeriesSample:
        engine = self._engine
        if engine is None:
            raise RuntimeError("collector is not attached to a simulator")
        cluster = engine.cluster
        total = cluster.n_gpus
        busy = total - cluster.n_free_gpus
        queue_by_vc: Dict[str, int] = {vc: 0 for vc in sorted(cluster.vcs)}
        pending = 0
        for job_id in sorted(engine.jobs):
            job = engine.jobs[job_id]
            if job.status in _PENDING_STATES:
                pending += 1
                if job.vc in queue_by_vc:
                    queue_by_vc[job.vc] += 1
        fragmented = 0
        gpus_per_node = cluster.gpus_per_node
        for job_id in sorted(engine.run_states):
            state = engine.run_states[job_id]
            job = engine.jobs[job_id]
            min_nodes = -(-job.gpu_num // gpus_per_node)  # ceil division
            spanned = len({gpu.node_id for gpu in state.gpus})
            if spanned > min_nodes:
                fragmented += len(state.gpus)
        return SeriesSample(
            time=now,
            gpus_total=total,
            gpus_busy=busy,
            gpu_alloc=busy / total if total else 0.0,
            gpu_shared=cluster.shared_gpu_fraction(),
            memory_used=cluster.memory_used_fraction(),
            fragmentation=fragmented / busy if busy else 0.0,
            running_jobs=len(engine.run_states),
            pending_jobs=pending,
            queue_by_vc=queue_by_vc,
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def rows(self) -> List[Dict[str, Any]]:
        """Samples as flat dicts (``queue_<vc>`` columns per VC)."""
        return [sample.to_dict() for sample in self.samples]

    def columns(self) -> List[str]:
        """CSV header: stable core columns, then sorted VC queues."""
        core = ["time", "gpus_total", "gpus_busy", "gpu_alloc",
                "gpu_shared", "memory_used", "fragmentation",
                "running_jobs", "pending_jobs"]
        vcs: List[str] = []
        if self.samples:
            vcs = [f"queue_{vc}"
                   for vc in sorted(self.samples[0].queue_by_vc)]
        return core + vcs

    def to_csv(self, path: str) -> int:
        """Write the series as CSV (atomically); returns the row count."""
        columns = self.columns()
        buffer = io.StringIO(newline="")
        writer = csv.DictWriter(buffer, fieldnames=columns, restval=0)
        writer.writeheader()
        for row in self.rows():
            writer.writerow(row)
        atomic_write_text(path, buffer.getvalue())
        return len(self.samples)

    def to_json(self, path: Optional[str] = None) -> Dict[str, Any]:
        """Build (and optionally write) the JSON export document."""
        document = {
            "schema": SERIES_SCHEMA,
            "interval": self.interval,
            "samples": self.rows(),
        }
        if path is not None:
            atomic_write_text(path, json.dumps(document))
        return document
