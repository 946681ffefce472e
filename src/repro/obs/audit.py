"""Scheduler decision audit: why did each placement happen?

The paper sells Lucid as *interpretable*: every allocation should be
explainable from the model outputs that produced it.  Whenever the
engine's trace stream is enabled, Lucid emits one ``decision`` event per
placement and one ``refit`` event per model refresh.  A decision carries
its inputs (priority value, estimated duration, sharing mode,
starvation-relief trigger) and, when the Binder was consulted, the
:class:`BinderVerdict` (chosen mate, sharing scores, GSS budget, and the
rejection-reason census over the candidates that were turned down).

:class:`DecisionAudit` is the stream observer that folds those events
into :class:`PlacementDecision` and :class:`RefitRecord` objects, live
or from an exported ``events.jsonl``; ``audit.explain(job_id)`` then
answers "why was job 42 packed with job 17 instead of placed
exclusively?".  The scheduler holds no audit, and an untraced run emits
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.models.attrib import Attribution
from repro.obs.tracer import Observer, read_jsonl

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
    #: job's profiled features.  ``None`` unless the engine was
    #: attributing (``DecisionAudit(attribution=True)``).
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
    #: the engine was attributing (``DecisionAudit(attribution=True)``).
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

    def emit(self, tracer: Observer) -> None:
        """Put this decision on ``tracer`` as a ``decision`` event."""
        payload = self.to_dict()
        del payload["t"], payload["job_id"]
        tracer.emit(self.time, "decision", self.job_id, **payload)

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

    def emit(self, tracer: Observer) -> None:
        """Put this refit on ``tracer`` as a ``refit`` event."""
        payload = self.to_dict()
        del payload["t"]
        tracer.emit(self.time, "refit", None, **payload)

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


#: Trace kinds the audit folds; it skips every other kind.
_FOLDED_KINDS = frozenset({"decision", "refit"})

#: Scheduler attribute holding the frozen model of each
#: :meth:`DecisionAudit.counterfactual` kind.
_FROZEN_MODELS = {"duration": "estimator", "sharing": "packing_model"}


class DecisionAudit(Observer):
    """Folds the ``decision`` and ``refit`` events of a trace stream
    into placement records and renders explanations.

    A stream observer: attach it with ``Simulator(observers=[audit])``
    or ``sim.observe(audit)``, before ``begin()`` or later, or rebuild
    it offline from a run's ``events.jsonl`` (:meth:`from_jsonl`).
    Both paths fold each event through one function, so a live audit
    and its offline rebuild hold the same records.

    Parameters
    ----------
    attribution:
        When ``True``, :meth:`attach` sets the engine's ``attributing``
        flag: Lucid then puts an :class:`~repro.models.attrib.Attribution`
        of the duration and sharing-score models in every decision it
        emits, and :meth:`counterfactual` can re-run those models.  Off
        by default, because attribution costs time on every placement;
        scheduling is bit-identical either way.
    """

    enabled = True

    def __init__(self, attribution: bool = False) -> None:
        self.attribution = attribution
        self.records: List[PlacementDecision] = []
        self.refits: List[RefitRecord] = []
        #: The attached engine's scheduler, whose frozen models
        #: :meth:`counterfactual` re-runs (they are trained in
        #: ``begin()``, so they are looked up when asked for).
        self._scheduler: Any = None
        #: Explicit frozen-model hooks, keyed by model kind
        #: (``"duration"``, ``"sharing"``): a callable mapping a raw
        #: feature vector to a fresh :class:`Attribution`.
        self._vector_attributors: Dict[
            str, Callable[[Sequence[float]], Attribution]] = {}

    def attach(self, engine: Any) -> None:
        if self.attribution:
            engine.attributing = True
            self._scheduler = engine.scheduler

    def emit(self, time: float, kind: str, job_id: Optional[int] = None,
             **data: Any) -> None:
        if kind in _FOLDED_KINDS:
            self._fold({**data, "t": time, "kind": kind, "job_id": job_id})

    def _fold(self, record: Dict[str, Any]) -> None:
        """Add one ``decision`` or ``refit`` record (other kinds are
        skipped); the live stream and :meth:`from_dicts` both land here."""
        kind = record.get("kind")
        if kind == "decision":
            self.records.append(PlacementDecision.from_dict(record))
        elif kind == "refit":
            self.refits.append(RefitRecord.from_dict(record))

    def bind_vector_attributor(
            self, which: str,
            fn: Callable[[Sequence[float]], Attribution]) -> None:
        self._vector_attributors[which] = fn

    def _vector_attributor(
            self, which: str
    ) -> Optional[Callable[[Sequence[float]], Attribution]]:
        fn = self._vector_attributors.get(which)
        if fn is None and which in _FROZEN_MODELS:
            model = getattr(self._scheduler, _FROZEN_MODELS[which], None)
            fn = getattr(model, "attribute_vector", None)
        return fn

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
        fn = self._vector_attributor(which)
        if fn is None:
            known = [k for k in sorted({*_FROZEN_MODELS,
                                        *self._vector_attributors})
                     if self._vector_attributor(k) is not None]
            raise KeyError(
                f"no frozen model registered for {which!r}; "
                f"known: {known}")
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
    # Offline rebuild
    # ------------------------------------------------------------------
    @classmethod
    def from_dicts(cls, records: Iterable[Dict[str, Any]]
                   ) -> "DecisionAudit":
        """Rebuild an audit from the ``"decision"`` and ``"refit"``
        events of a trace log (other kinds are skipped)."""
        audit = cls()
        for record in records:
            audit._fold(record)
        return audit

    @classmethod
    def from_jsonl(cls, path: str) -> "DecisionAudit":
        """Load the audit of a run from its ``events.jsonl``."""
        return cls.from_dicts(read_jsonl(path))
