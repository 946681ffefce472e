"""Fault-model configuration: rates, retry knobs and explicit scripts.

Production DL clusters are not the perfect world the base simulator
assumes: the traces behind the paper's cluster characterization (§2) are
full of node failures, job crashes and stragglers.  A :class:`FaultSpec`
describes a *deterministic, seed-driven* failure model:

* **Stochastic rates** — per-node MTBF/MTTR (main and profiler clusters),
  a cluster-wide job-crash rate and a straggler (slowdown) rate.  All
  schedules are pre-generated from ``seed`` before the run starts, so the
  same spec always yields bit-identical fault timelines.
* **Explicit script** — a list of :class:`FaultScriptEntry` pinning exact
  fault times/targets, for tests and reproducible what-if studies.
* **Retry policy knobs** — retry budget, exponential backoff and the
  checkpoint interval of the progress model (crashed jobs lose only the
  work since their last checkpoint).

Specs parse from a JSON file or a compact inline ``key=value,...`` string
(the CLI's ``--faults`` argument accepts both).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Optional, Tuple

from repro.faults.retry import RetryPolicy

__all__ = ["FaultSpec", "FaultScriptEntry", "FaultSpecError"]

#: Fault kinds accepted in scripts (mirrors the simulator event kinds).
SCRIPT_KINDS = ("node_fail", "job_crash", "slowdown")
#: Valid fault targets: the main cluster or Lucid's profiling cluster.
TARGETS = ("main", "profiler")


class FaultSpecError(ValueError):
    """Raised when a fault specification cannot be interpreted."""


@dataclass(frozen=True)
class FaultScriptEntry:
    """One explicitly scheduled fault.

    Attributes
    ----------
    time:
        Simulated time (seconds) at which the fault strikes.
    kind:
        ``node_fail`` | ``job_crash`` | ``slowdown``.
    node:
        Node index for ``node_fail``/``slowdown`` (within ``target``).
    target:
        ``main`` (default) or ``profiler`` — which cluster the node
        belongs to.  Ignored by ``job_crash``.
    job:
        Victim job id for ``job_crash``; ``None`` picks a seeded-random
        running job at fire time.
    duration:
        Repair time (``node_fail``) or straggler window (``slowdown``).
    factor:
        Speed multiplier during a ``slowdown`` (0 < factor < 1).
    """

    time: float
    kind: str
    node: Optional[int] = None
    target: str = "main"
    job: Optional[int] = None
    duration: Optional[float] = None
    factor: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in SCRIPT_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {self.kind!r}; known: {SCRIPT_KINDS}")
        if self.target not in TARGETS:
            raise FaultSpecError(
                f"unknown fault target {self.target!r}; known: {TARGETS}")
        if self.time < 0:
            raise FaultSpecError(f"fault time must be >= 0, got {self.time}")
        if self.kind in ("node_fail", "slowdown") and self.node is None:
            raise FaultSpecError(f"{self.kind} entries need a node index")
        if self.kind == "slowdown":
            if self.factor is None or not 0.0 < self.factor < 1.0:
                raise FaultSpecError(
                    f"slowdown factor must be in (0, 1), got {self.factor}")


@dataclass(frozen=True)
class FaultSpec:
    """Complete fault-model configuration (all knobs optional).

    Rates of zero (the defaults) and an empty script mean no faults: a
    simulator given such a spec produces bit-identical results to one
    given no fault model at all.
    """

    #: Seed of every stochastic fault schedule and victim choice.
    seed: int = 0
    #: Pre-generation horizon in seconds; faults are only scheduled up to
    #: this simulated time (events past the trace's makespan are inert).
    horizon: float = 30 * 86_400.0
    #: Mean seconds between failures of each main-cluster node (Poisson
    #: process per node); ``None`` disables node failures.
    node_mtbf: Optional[float] = None
    #: Mean repair time of a failed main-cluster node.
    node_mttr: float = 1800.0
    #: Mean seconds between failures of each profiler node (Lucid only).
    profiler_mtbf: Optional[float] = None
    #: Mean repair time of a failed profiler node.
    profiler_mttr: float = 1800.0
    #: Cluster-wide job crashes per simulated hour (seeded-random victim).
    crash_rate: float = 0.0
    #: Cluster-wide straggler (node slowdown) events per simulated hour.
    slowdown_rate: float = 0.0
    #: Speed multiplier applied to a straggling node's GPUs.
    slowdown_factor: float = 0.5
    #: Mean duration of one straggler window.
    slowdown_duration: float = 1800.0
    #: Retry budget: a job may crash at most this many times and still be
    #: requeued; the next crash is a permanent failure.
    retry_limit: int = 3
    #: First retry delay; doubles (``backoff_factor``) up to ``backoff_cap``.
    backoff_base: float = 30.0
    backoff_factor: float = 2.0
    backoff_cap: float = 3600.0
    #: Progress-model checkpoint interval: a crashed job resumes from the
    #: last multiple of this many exclusive-execution seconds (0 disables
    #: checkpointing — crashes restart from scratch).
    checkpoint_interval: float = 600.0
    #: Explicit fault script, merged with the stochastic schedules.
    script: Tuple[FaultScriptEntry, ...] = ()

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise FaultSpecError("horizon must be positive")
        for name in ("node_mtbf", "profiler_mtbf"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise FaultSpecError(f"{name} must be positive, got {value}")
        for name in ("node_mttr", "profiler_mttr", "slowdown_duration",
                     "backoff_base", "backoff_cap"):
            if getattr(self, name) <= 0:
                raise FaultSpecError(f"{name} must be positive")
        for name in ("crash_rate", "slowdown_rate", "checkpoint_interval"):
            if getattr(self, name) < 0:
                raise FaultSpecError(f"{name} must be >= 0")
        if not 0.0 < self.slowdown_factor < 1.0:
            raise FaultSpecError("slowdown_factor must be in (0, 1)")
        if self.retry_limit < 0:
            raise FaultSpecError("retry_limit must be >= 0")
        if self.backoff_factor < 1.0:
            raise FaultSpecError("backoff_factor must be >= 1")

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether this spec can produce any fault at all."""
        return bool(self.script) or self.crash_rate > 0 \
            or self.slowdown_rate > 0 or self.node_mtbf is not None \
            or self.profiler_mtbf is not None

    def retry_policy(self) -> RetryPolicy:
        """The per-job retry policy this spec configures."""
        return RetryPolicy(
            max_retries=self.retry_limit,
            backoff_base=self.backoff_base,
            backoff_factor=self.backoff_factor,
            backoff_cap=self.backoff_cap,
            checkpoint_interval=self.checkpoint_interval,
        )

    def with_seed(self, seed: int) -> "FaultSpec":
        return replace(self, seed=seed)

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse a spec from a JSON file path or an inline k=v string.

        Inline example::

            node_mtbf=43200,node_mttr=1800,crash_rate=0.2,seed=7

        JSON files may additionally carry a ``script`` array of
        :class:`FaultScriptEntry` objects.
        """
        text = text.strip()
        if not text:
            raise FaultSpecError("empty fault spec")
        if os.path.exists(text) or text.endswith(".json"):
            return cls.from_file(text)
        if text.startswith("{"):
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as exc:
                raise FaultSpecError(f"bad inline JSON fault spec: {exc}") \
                    from None
            return cls.from_dict(payload)
        return cls._from_kv(text)

    @classmethod
    def from_file(cls, path: str) -> "FaultSpec":
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            raise FaultSpecError(f"fault spec file not found: {path}") \
                from None
        except json.JSONDecodeError as exc:
            raise FaultSpecError(f"bad JSON in fault spec {path}: {exc}") \
                from None
        return cls.from_dict(payload)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultSpec":
        if not isinstance(payload, dict):
            raise FaultSpecError("fault spec must be a JSON object")
        payload = dict(payload)
        raw_script = payload.pop("script", [])
        known = {f.name for f in fields(cls)} - {"script"}
        unknown = set(payload) - known
        if unknown:
            raise FaultSpecError(
                f"unknown fault spec keys: {sorted(unknown)}; "
                f"known: {sorted(known)}")
        script = []
        if not isinstance(raw_script, (list, tuple)):
            raise FaultSpecError("script must be a list of fault entries")
        for index, entry in enumerate(raw_script):
            if not isinstance(entry, dict):
                raise FaultSpecError(f"script[{index}] must be an object")
            entry_keys = {f.name for f in fields(FaultScriptEntry)}
            bad = set(entry) - entry_keys
            if bad:
                raise FaultSpecError(
                    f"script[{index}] has unknown keys {sorted(bad)}")
            if "time" not in entry or "kind" not in entry:
                raise FaultSpecError(
                    f"script[{index}] needs 'time' and 'kind'")
            script.append(FaultScriptEntry(**entry))
        try:
            return cls(script=tuple(script), **payload)
        except TypeError as exc:
            raise FaultSpecError(f"bad fault spec: {exc}") from None

    @classmethod
    def _from_kv(cls, text: str) -> "FaultSpec":
        numeric = {f.name for f in fields(cls)} - {"script"}
        payload: Dict[str, Any] = {}
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "=" not in chunk:
                raise FaultSpecError(
                    f"bad fault spec fragment {chunk!r}; expected key=value")
            key, _, value = chunk.partition("=")
            key = key.strip()
            if key not in numeric:
                raise FaultSpecError(
                    f"unknown fault spec key {key!r}; known: {sorted(numeric)}")
            try:
                number: Any = float(value)
            except ValueError:
                raise FaultSpecError(
                    f"fault spec key {key!r} needs a number, got {value!r}") \
                    from None
            if key in ("seed", "retry_limit"):
                number = int(number)
            payload[key] = number
        return cls.from_dict(payload)
