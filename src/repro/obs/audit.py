"""Scheduler decision audit: why did each placement happen?

The paper sells Lucid as *interpretable*: every allocation should be
explainable from the model outputs that produced it.  The audit log is the
post-hoc answer machine — for each placement the orchestrator records a
:class:`PlacementDecision` carrying its inputs (priority value, estimated
duration, sharing mode, starvation-relief trigger) and, when the Binder
was consulted, the :class:`BinderVerdict` (chosen mate, sharing scores,
GSS budget, and the rejection-reason census over the candidates that were
turned down).  ``audit.explain(job_id)`` then renders a human-readable
answer to "why was job 42 packed with job 17 instead of placed
exclusively?".

The audit is a pure observer: it never influences scheduling, and it is
``None`` by default so un-instrumented runs pay nothing.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.models.attrib import Attribution
from repro.obs.ioutil import ensure_parent, tmp_path
from repro.obs.tracer import Tracer

__all__ = [
    "BinderVerdict",
    "PlacementDecision",
    "RefitRecord",
    "Counterfactual",
    "DecisionAudit",
]


@dataclass(frozen=True)
class BinderVerdict:
    """Outcome of one Affine-Jobpair Binder mate search.

    ``rejections`` maps a rejection reason (e.g. ``"gss_budget"``,
    ``"has_mate"``, ``"memory"``) to the number of running candidates
    dismissed for that reason, so a ``mate_id is None`` verdict still
    explains *why* nobody qualified.
    """

    job_id: int
    mate_id: Optional[int]
    mode: str
    gss_capacity: int
    job_score: Optional[int] = None
    mate_score: Optional[int] = None
    candidates: int = 0
    rejections: Dict[str, int] = field(default_factory=dict)
    #: Why the Packing Analyze Model assigned ``job_score`` — a
    #: decision-path attribution of the expected sharing score over the
    #: job's profiled features.  ``None`` unless the audit was built with
    #: ``attribution=True``.
    attribution: Optional[Attribution] = None

    @property
    def accepted(self) -> bool:
        return self.mate_id is not None

    def reason_text(self) -> str:
        if self.accepted:
            text = (f"binder accepted mate {self.mate_id} "
                    f"(scores {self.job_score}+{self.mate_score} "
                    f"<= GSS {self.gss_capacity}, mode {self.mode})")
        elif self.mode == "DISABLED":
            text = "binder declined: sharing disabled by dynamic strategy"
        elif not self.candidates:
            text = "binder declined: no running candidates"
        else:
            census = ", ".join(f"{reason} x{count}" for reason, count
                               in sorted(self.rejections.items()))
            text = (f"binder declined all {self.candidates} "
                    f"candidates ({census})")
        if self.attribution is not None:
            text += f"; sharing score {self.attribution.render()}"
        return text

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "job_id": self.job_id,
            "mate_id": self.mate_id,
            "mode": self.mode,
            "gss_capacity": self.gss_capacity,
            "job_score": self.job_score,
            "mate_score": self.mate_score,
            "candidates": self.candidates,
            "rejections": dict(self.rejections),
        }
        if self.attribution is not None:
            out["attribution"] = self.attribution.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BinderVerdict":
        attribution = data.get("attribution")
        return cls(
            job_id=int(data["job_id"]),
            mate_id=data.get("mate_id"),
            mode=str(data.get("mode", "DEFAULT")),
            gss_capacity=int(data.get("gss_capacity", 0)),
            job_score=data.get("job_score"),
            mate_score=data.get("mate_score"),
            candidates=int(data.get("candidates", 0)),
            rejections=dict(data.get("rejections", {})),
            attribution=(Attribution.from_dict(attribution)
                         if attribution is not None else None))


@dataclass(frozen=True)
class PlacementDecision:
    """One explained allocation.

    ``mode`` is one of ``"shared"`` (packed via the Binder),
    ``"exclusive"`` (consolidated placement), ``"relaxed"`` (fragmented
    placement granted by starvation relief), ``"shared-fallback"``
    (Apathetic-mode packing after exclusive placement failed) or
    ``"profiling"`` (a bounded run on the profiling cluster).
    """

    time: float
    job_id: int
    mode: str
    gpu_ids: Tuple[int, ...]
    node_ids: Tuple[int, ...]
    priority: float = 0.0
    estimated_duration: Optional[float] = None
    sharing_mode: str = "off"
    mate_id: Optional[int] = None
    starving: bool = False
    binder: Optional[BinderVerdict] = None
    note: str = ""
    #: Why the Workload Estimate Model predicted ``estimated_duration`` —
    #: per-term GA²M contributions in log-duration space.  ``None`` unless
    #: the audit was built with ``attribution=True``.
    attribution: Optional[Attribution] = None

    def explain(self) -> str:
        """One-paragraph human-readable justification."""
        parts = [f"t={self.time:.0f}s job {self.job_id}"]
        if self.mode == "shared":
            parts.append(f"packed with job {self.mate_id} on "
                         f"GPUs {list(self.gpu_ids)}")
        elif self.mode == "shared-fallback":
            parts.append(f"packed with job {self.mate_id} on "
                         f"GPUs {list(self.gpu_ids)} after exclusive "
                         "placement found no free consolidated block")
        elif self.mode == "relaxed":
            parts.append(f"placed on fragmented GPUs {list(self.gpu_ids)} "
                         f"across nodes {sorted(set(self.node_ids))} by "
                         "starvation relief")
        elif self.mode == "profiling":
            parts.append(f"started on profiler GPUs {list(self.gpu_ids)}")
        else:
            parts.append(f"placed exclusively on GPUs {list(self.gpu_ids)}")
        if self.mode != "profiling":
            parts.append(f"priority={self.priority:.1f}")
            if self.estimated_duration is not None:
                parts.append(f"estimated duration "
                             f"{self.estimated_duration:.0f}s")
            if self.attribution is not None:
                parts.append(f"duration model (log-space) "
                             f"{self.attribution.render()}")
            parts.append(f"sharing mode '{self.sharing_mode}'")
        if self.starving:
            parts.append("starvation-relief triggered")
        if self.binder is not None:
            parts.append(self.binder.reason_text())
        if self.note:
            parts.append(self.note)
        return "; ".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "t": self.time,
            "job_id": self.job_id,
            "mode": self.mode,
            "gpu_ids": list(self.gpu_ids),
            "node_ids": list(self.node_ids),
            "priority": self.priority,
            "estimated_duration": self.estimated_duration,
            "sharing_mode": self.sharing_mode,
            "mate_id": self.mate_id,
            "starving": self.starving,
        }
        if self.binder is not None:
            out["binder"] = self.binder.to_dict()
        if self.note:
            out["note"] = self.note
        if self.attribution is not None:
            out["attribution"] = self.attribution.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PlacementDecision":
        binder = data.get("binder")
        attribution = data.get("attribution")
        return cls(
            time=float(data["t"]),
            job_id=int(data["job_id"]),
            mode=str(data["mode"]),
            gpu_ids=tuple(data.get("gpu_ids", ())),
            node_ids=tuple(data.get("node_ids", ())),
            priority=float(data.get("priority", 0.0)),
            estimated_duration=data.get("estimated_duration"),
            sharing_mode=str(data.get("sharing_mode", "off")),
            mate_id=data.get("mate_id"),
            starving=bool(data.get("starving", False)),
            binder=(BinderVerdict.from_dict(binder)
                    if binder is not None else None),
            note=str(data.get("note", "")),
            attribution=(Attribution.from_dict(attribution)
                         if attribution is not None else None))


@dataclass(frozen=True)
class RefitRecord:
    """One Update Engine model refresh, with optional fit-quality metrics.

    ``r2`` is the training R² of the refreshed model in its native target
    space (log-duration for the Workload Estimate Model), ``samples`` the
    size of the fitted history, and ``wall_seconds`` the refit's wall time
    measured through the simulator profiler (``None`` on unprofiled runs —
    simulation code never reads the wall clock directly)."""

    time: float
    model: str
    new_records: int
    r2: Optional[float] = None
    samples: Optional[int] = None
    wall_seconds: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"t": self.time, "model": self.model,
                               "new_records": self.new_records}
        if self.r2 is not None:
            out["r2"] = self.r2
        if self.samples is not None:
            out["samples"] = self.samples
        if self.wall_seconds is not None:
            out["wall_seconds"] = self.wall_seconds
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RefitRecord":
        return cls(time=float(data["t"]), model=str(data["model"]),
                   new_records=int(data["new_records"]),
                   r2=data.get("r2"), samples=data.get("samples"),
                   wall_seconds=data.get("wall_seconds"))


@dataclass(frozen=True)
class Counterfactual:
    """A what-if probe: the frozen model re-run on a perturbed input.

    ``baseline`` is the attribution recorded at decision time;
    ``probe`` is the same (frozen) model evaluated on the baseline's
    feature vector with ``overrides`` applied.  This answers "what would
    the model have predicted if gpu_util had been 90?" — it does **not**
    re-simulate scheduling, and the model is not refit.
    """

    job_id: int
    which: str
    baseline: Attribution
    probe: Attribution
    overrides: Dict[str, float]

    @property
    def delta(self) -> float:
        return self.probe.predicted - self.baseline.predicted

    def render(self) -> str:
        changes = ", ".join(f"{name}={value:g}" for name, value
                            in sorted(self.overrides.items()))
        return (f"job {self.job_id} {self.which}: {self.baseline.predicted:.3g}"
                f" -> {self.probe.predicted:.3g} (delta {self.delta:+.3g})"
                f" with {changes}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "which": self.which,
            "overrides": dict(self.overrides),
            "baseline": self.baseline.to_dict(),
            "probe": self.probe.to_dict(),
            "delta": self.delta,
        }


class DecisionAudit:
    """Collects placement decisions and renders explanations.

    Parameters
    ----------
    tracer:
        Optional tracer; every recorded decision is mirrored as a
        ``"decision"`` trace event so the JSONL log is self-contained.
    attribution:
        When ``True``, the scheduler's model calls additionally attach
        :class:`~repro.models.attrib.Attribution` records to verdicts and
        decisions (and :meth:`counterfactual` becomes available).  Off by
        default — the zero-overhead contract: scheduling is bit-identical
        either way, attribution merely *records* more.
    """

    def __init__(self, tracer: Optional[Tracer] = None,
                 attribution: bool = False) -> None:
        self.tracer = tracer
        self.attribution = attribution
        self.records: List[PlacementDecision] = []
        self.refits: List[RefitRecord] = []
        self._pending_binder: Dict[int, BinderVerdict] = {}
        #: Job-level attributor (set by the scheduler when attribution is
        #: on): ``job -> Optional[Attribution]`` for the duration model.
        self._job_attributor: Optional[
            Callable[[Any], Optional[Attribution]]] = None
        #: Frozen-model re-run hooks for :meth:`counterfactual`, keyed by
        #: model kind (``"duration"``, ``"sharing"``): a callable mapping
        #: a raw feature vector to a fresh :class:`Attribution`.
        self._vector_attributors: Dict[
            str, Callable[[Sequence[float]], Attribution]] = {}

    def __getstate__(self):  # the engine's tracer: never pickled
        return {**self.__dict__, "tracer": None}

    # ------------------------------------------------------------------
    # Attribution plumbing (bound by the scheduler's ``attach``)
    # ------------------------------------------------------------------
    def bind_job_attributor(
            self, fn: Callable[[Any], Optional[Attribution]]) -> None:
        self._job_attributor = fn

    def bind_vector_attributor(
            self, which: str,
            fn: Callable[[Sequence[float]], Attribution]) -> None:
        self._vector_attributors[which] = fn

    def attribution_for(self, job: Any) -> Optional[Attribution]:
        """Duration-model attribution of one job, or ``None`` when off."""
        if not self.attribution or self._job_attributor is None:
            return None
        return self._job_attributor(job)

    # ------------------------------------------------------------------
    # Recording (called by the binder / orchestrator / Lucid)
    # ------------------------------------------------------------------
    def note_binder(self, verdict: BinderVerdict) -> None:
        """Stash the latest binder verdict for a job.

        The orchestrator collects it into the job's placement decision via
        :meth:`take_binder`, in the same pass: :meth:`clear_binder` drops
        every verdict at the start of the next one.
        """
        self._pending_binder[verdict.job_id] = verdict

    def take_binder(self, job_id: int) -> Optional[BinderVerdict]:
        return self._pending_binder.pop(job_id, None)

    def clear_binder(self) -> None:
        """Drop the verdicts of earlier passes, so a placement never
        carries the verdict of a search it did not make."""
        self._pending_binder.clear()

    def record(self, decision: PlacementDecision) -> PlacementDecision:
        self.records.append(decision)
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit(decision.time, "decision", decision.job_id,
                             **{k: v for k, v in decision.to_dict().items()
                                if k not in ("t", "job_id")})
        return decision

    def record_refit(self, time: float, model: str, new_records: int,
                     r2: Optional[float] = None,
                     samples: Optional[int] = None,
                     wall_seconds: Optional[float] = None) -> None:
        record = RefitRecord(time, model, new_records, r2=r2,
                             samples=samples, wall_seconds=wall_seconds)
        self.refits.append(record)
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit(time, "refit", None,
                             **{k: v for k, v in record.to_dict().items()
                                if k != "t"})

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def for_job(self, job_id: int) -> List[PlacementDecision]:
        return [d for d in self.records if d.job_id == job_id]

    def explain(self, job_id: int) -> str:
        decisions = self.for_job(job_id)
        if not decisions:
            return f"no recorded decisions for job {job_id}"
        return "\n".join(d.explain() for d in decisions)

    def counterfactual(self, job_id: int, which: str = "duration",
                       **overrides: float) -> Counterfactual:
        """Re-run a frozen model on a perturbed feature vector.

        Finds the job's latest recorded attribution of the requested kind
        (``"duration"`` on the placement decision, ``"sharing"`` on its
        binder verdict), applies the keyword overrides to the raw feature
        vector, and evaluates the *frozen* model on the result.  No
        scheduling is re-simulated and the model is not refit — the answer
        is "what the model would have said", nothing more.

        Raises ``KeyError`` for unknown jobs / kinds and ``ValueError``
        for unknown feature names.
        """
        fn = self._vector_attributors.get(which)
        if fn is None:
            raise KeyError(
                f"no frozen model registered for {which!r}; "
                f"known: {sorted(self._vector_attributors)}")
        baseline: Optional[Attribution] = None
        for decision in reversed(self.for_job(job_id)):
            if which == "sharing":
                if decision.binder is not None:
                    baseline = decision.binder.attribution
            else:
                baseline = decision.attribution
            if baseline is not None:
                break
        if baseline is None:
            raise KeyError(f"no recorded {which} attribution for "
                           f"job {job_id} (was the audit built with "
                           f"attribution=True?)")
        values = list(baseline.values)
        for name, value in overrides.items():
            try:
                idx = baseline.features.index(name)
            except ValueError:
                raise ValueError(
                    f"unknown feature {name!r}; known: "
                    f"{list(baseline.features)}") from None
            values[idx] = float(value)
        probe = fn(values)
        return Counterfactual(job_id=job_id, which=which,
                              baseline=baseline, probe=probe,
                              overrides={k: float(v)
                                         for k, v in overrides.items()})

    def attribution_coverage(self) -> Tuple[int, int]:
        """(main-cluster decisions, decisions carrying an attribution)."""
        main = [d for d in self.records if d.mode != "profiling"]
        with_attr = sum(1 for d in main if d.attribution is not None)
        return len(main), with_attr

    def packing_rate(self) -> float:
        """Fraction of recorded main-cluster placements that were packed."""
        main = [d for d in self.records if d.mode != "profiling"]
        if not main:
            return 0.0
        packed = sum(1 for d in main
                     if d.mode in ("shared", "shared-fallback"))
        return packed / len(main)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_jsonl(self, path: str) -> int:
        """Write all decisions (and refits) as JSON lines; returns count.

        Parent directories are created and the write is atomic (tmp file
        + rename), so a crash mid-export never leaves a truncated log at
        the destination path.
        """
        n = 0
        ensure_parent(path)
        tmp = tmp_path(path)
        with open(tmp, "w") as handle:
            for decision in self.records:
                handle.write(json.dumps(decision.to_dict(),
                                        separators=(",", ":")) + "\n")
                n += 1
            for refit in self.refits:
                record = refit.to_dict()
                record["kind"] = "refit"
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
                n += 1
        os.replace(tmp, path)
        return n

    @classmethod
    def from_dicts(cls, records: Iterable[Dict[str, Any]]
                   ) -> "DecisionAudit":
        """Rehydrate an audit from exported JSONL dicts.

        Accepts both ``to_jsonl`` output and the ``"decision"``/``"refit"``
        events of a tracer JSONL log (which carry a ``kind`` key).
        """
        audit = cls()
        for record in records:
            kind = record.get("kind")
            if kind == "refit":
                audit.refits.append(RefitRecord.from_dict(record))
            elif kind in (None, "decision"):
                audit.records.append(PlacementDecision.from_dict(record))
        return audit

    @classmethod
    def from_jsonl(cls, path: str) -> "DecisionAudit":
        """Load an audit exported by :meth:`to_jsonl` (or a trace log)."""
        records: List[Dict[str, Any]] = []
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
        return cls.from_dicts(records)
