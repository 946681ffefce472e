"""Simulator self-profiling: where does simulator wall time go?

The ROADMAP's north star is a simulator that runs "as fast as the
hardware allows" — which is only a meaningful goal once the simulator can
measure *itself*.  :class:`SimProfiler` is that instrument: an
:class:`~repro.obs.tracer.Observer` (``Simulator(observers=[profiler])``)
that accumulates wall time per dispatched event kind and per scheduler
pass, counts hot-path invocations (binder mate searches, speed
refreshes, estimator predictions), and derives throughput (dispatched
events per wall second) plus the process peak RSS.  ``repro report`` embeds these numbers, and the work
counters of two contended replays are pinned exactly in
``tests/test_lucid_golden.py``.

The contract mirrors the tracer's and the sanitizer's:

* **Zero overhead when disabled.**  The engine holds ``profiler = None``
  until a profiler attaches, and every bracket and counter site is
  guarded by an identity check, so an unprofiled run executes the seed
  instruction stream and produces a bit-identical
  :class:`~repro.sim.metrics.SimulationResult`.
* **No behavioural feedback.**  The profiler reads the wall clock and
  ``/proc`` accounting only; nothing it measures ever reaches simulated
  time, job state or scheduler decisions — a profiled run is therefore
  also bit-identical to a plain one (guarded by regression test).

Wall-clock reads live in this module by design: it is the only entry of
the RPR002 instrumentation allowlist (see :mod:`repro.checks.lint`), so
the engine brackets its work with profiler calls and never reads the
clock itself, and simulation packages need no per-line
``# repro: noqa`` escapes.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.obs.tracer import Observer

try:  # POSIX-only; the profiler degrades to RSS=None elsewhere.
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platform
    _resource = None  # type: ignore[assignment]

__all__ = [
    "NULL_SPAN",
    "RESERVOIR_SIZE",
    "SimProfiler",
    "peak_rss_mb",
]


def peak_rss_mb() -> Optional[float]:
    """Process peak resident-set size in MiB, or ``None`` if unknown.

    ``ru_maxrss`` is kibibytes on Linux and bytes on macOS; both are
    normalized to MiB so reports compare across platforms.
    """
    if _resource is None:  # pragma: no cover - non-POSIX platform
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform specific
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


class _Span:
    """Context manager accumulating one named code span's wall time."""

    __slots__ = ("_profiler", "_name", "_started")

    def __init__(self, profiler: "SimProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._started = 0.0

    def __enter__(self) -> "_Span":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._profiler.add_span(self._name,
                                time.perf_counter() - self._started)


class _NullSpan:
    """Shared no-op span used when profiling is off (zero allocation)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass


#: Singleton no-op span; ``Scheduler.profile_span`` returns it unprofiled.
NULL_SPAN = _NullSpan()

#: Per-span sample reservoir size: enough for stable p95s, bounded so a
#: long-running daemon's profiler never grows with uptime.  The deque
#: keeps the *most recent* samples, which is what a live dashboard wants.
RESERVOIR_SIZE = 2048


def _reservoir_percentile(samples: List[float], pct: float) -> float:
    """Nearest-rank percentile over a sorted copy; 0.0 when empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)  # repro: noqa RPR121 — percentiles need order; runs per telemetry refresh, not per event
    rank = max(0, min(len(ordered) - 1,
                      int(math.ceil(pct / 100.0 * len(ordered))) - 1))
    return ordered[rank]


class SimProfiler(Observer):
    """Accumulates self-measurements of one (or more) simulation runs.

    :meth:`attach` makes the profiler the engine's ``profiler`` handle,
    through which the engine and the schedulers drive the fast-path
    hooks:

    * :meth:`enter` / :meth:`exit_event` bracket each event dispatch and
      bill the elapsed wall time to the event's kind.
    * :meth:`enter` / :meth:`exit_pass` bracket each scheduler
      ``schedule()`` pass the same way.
    * :meth:`count` bumps a named hot-path counter (``binder_attempts``,
      ``speed_refreshes``, ``estimator_predictions``, ...).
    * :meth:`span` times named sub-phases (Lucid's control plane,
      profiler allocation, orchestrator pass, ...).

    :meth:`report` renders a text summary; :meth:`to_dict` /
    :meth:`report_json` produce the machine-readable form embedded in
    ``report.json``.
    """

    def __init__(self) -> None:
        #: Wall seconds per dispatched event kind (EventKind.value keys).
        self.event_seconds: Dict[str, float] = {}
        #: Dispatch counts per event kind.
        self.event_counts: Dict[str, int] = {}
        #: Total wall seconds across scheduler ``schedule()`` passes.
        self.pass_seconds = 0.0
        #: Number of scheduler passes.
        self.pass_count = 0
        #: Named sub-phase wall seconds (from :meth:`span`).
        self.span_seconds: Dict[str, float] = {}
        self.span_counts: Dict[str, int] = {}
        #: Bounded per-span sample reservoirs (most recent
        #: ``RESERVOIR_SIZE`` observations) backing :meth:`span_summary`.
        self.span_samples: Dict[str, Deque[float]] = {}
        #: Same reservoir for scheduler passes.
        self.pass_samples: Deque[float] = deque(maxlen=RESERVOIR_SIZE)
        #: Hot-path invocation counters.
        self.counters: Dict[str, int] = {}
        #: Whole-run accounting: wall seconds inside the engine steps
        #: seen, simulated seconds of finished runs, and the process
        #: peak RSS when the last one finished.
        self.wall_seconds = 0.0
        self.sim_seconds = 0.0
        self.peak_rss: Optional[float] = None
        self._stack: List[float] = []
        self._step_started = 0.0

    # ------------------------------------------------------------------
    # Engine hooks (hot path)
    # ------------------------------------------------------------------
    def enter(self) -> None:
        """Open a timing bracket (event dispatch about to run)."""
        self._stack.append(time.perf_counter())

    def exit_event(self, kind: str) -> None:
        """Close the innermost bracket, billing it to event ``kind``."""
        elapsed = time.perf_counter() - self._stack.pop()
        self.event_seconds[kind] = self.event_seconds.get(kind, 0.0) + elapsed
        self.event_counts[kind] = self.event_counts.get(kind, 0) + 1

    def exit_pass(self) -> None:
        """Close the innermost bracket as one scheduler pass."""
        self.add_pass(time.perf_counter() - self._stack.pop())

    def add_pass(self, seconds: float) -> None:
        """Record one scheduler pass of ``seconds`` wall time."""
        self.pass_seconds += seconds
        self.pass_count += 1
        self.pass_samples.append(seconds)

    def add_span(self, name: str, seconds: float) -> None:
        self.span_seconds[name] = self.span_seconds.get(name, 0.0) + seconds
        self.span_counts[name] = self.span_counts.get(name, 0) + 1
        reservoir = self.span_samples.get(name)
        if reservoir is None:
            reservoir = self.span_samples[name] = \
                deque(maxlen=RESERVOIR_SIZE)
        reservoir.append(seconds)

    def span(self, name: str) -> _Span:
        """Context manager timing a named sub-phase."""
        return _Span(self, name)

    def count(self, name: str, n: int = 1) -> None:
        """Bump a hot-path invocation counter."""
        self.counters[name] = self.counters.get(name, 0) + n

    # ------------------------------------------------------------------
    # Observer hooks: each engine step seen is timed, so a profiler that
    # joins mid-run (or between a daemon's idle ticks) counts only work
    # ------------------------------------------------------------------
    def attach(self, engine: Any) -> None:
        engine.profiler = self

    def before_step(self) -> None:
        self._step_started = time.perf_counter()

    def after_step(self) -> None:
        self.wall_seconds += time.perf_counter() - self._step_started

    def finish(self, now: float) -> None:
        self.sim_seconds += now
        self.peak_rss = peak_rss_mb()

    # ------------------------------------------------------------------
    # Derived numbers
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Events dispatched while the profiler was attached."""
        return sum(self.event_counts.values())

    @property
    def events_per_sec(self) -> float:
        """Dispatched simulator events per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_processed / self.wall_seconds

    @property
    def sim_speedup(self) -> float:
        """Simulated seconds replayed per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.sim_seconds / self.wall_seconds

    def span_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-span distribution summary from the bounded reservoirs.

        Keys: ``count`` / ``seconds`` are lifetime totals; ``p50`` /
        ``p95`` / ``max`` describe the last ``RESERVOIR_SIZE``
        observations (per-call seconds).  This is the payload
        :func:`repro.obs.live.publish_profiler` mirrors into the live
        registry and ``repro report`` embeds — one measurement pipeline
        for both.
        """
        out: Dict[str, Dict[str, float]] = {}
        for name, total in self.span_seconds.items():
            samples = list(self.span_samples.get(name, ()))
            out[name] = {
                "count": float(self.span_counts.get(name, 0)),
                "seconds": total,
                "p50": _reservoir_percentile(samples, 50),
                "p95": _reservoir_percentile(samples, 95),
                "max": max(samples) if samples else 0.0,
            }
        return out

    def pass_summary(self) -> Dict[str, float]:
        """Scheduler-pass distribution (same shape as one span row)."""
        samples = list(self.pass_samples)
        return {
            "count": float(self.pass_count),
            "seconds": self.pass_seconds,
            "p50": _reservoir_percentile(samples, 50),
            "p95": _reservoir_percentile(samples, 95),
            "max": max(samples) if samples else 0.0,
        }

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot (the ``profile`` section of reports)."""
        return {
            "wall_seconds": self.wall_seconds,
            "sim_seconds": self.sim_seconds,
            "sim_speedup": self.sim_speedup,
            "events_processed": self.events_processed,
            "events_per_sec": self.events_per_sec,
            "peak_rss_mb": self.peak_rss,
            "event_kinds": {
                kind: {"count": self.event_counts.get(kind, 0),
                       "seconds": seconds}
                for kind, seconds in sorted(self.event_seconds.items())  # repro: noqa RPR121 — canonical report ordering
            },
            "schedule_passes": dict(self.pass_summary(),
                                    count=self.pass_count),
            "spans": {
                name: dict(summary,
                           count=self.span_counts.get(name, 0))
                for name, summary in sorted(self.span_summary().items())  # repro: noqa RPR121 — canonical report ordering
            },
            "counters": dict(sorted(self.counters.items())),  # repro: noqa RPR121 — canonical report ordering
        }

    def report_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def report(self) -> str:
        """Human-readable profile: the answer to "where did time go?"."""
        lines = [
            "simulator profile",
            f"  wall time        {self.wall_seconds:.3f} s",
            f"  simulated time   {self.sim_seconds:.0f} s "
            f"({self.sim_speedup:,.0f}x real time)",
            f"  events           {self.events_processed} "
            f"({self.events_per_sec:,.0f} events/s)",
        ]
        if self.peak_rss is not None:
            lines.append(f"  peak RSS         {self.peak_rss:.1f} MiB")
        if self.event_seconds:
            lines.append("  per event kind:")
            ordered = sorted(self.event_seconds.items(),
                             key=lambda kv: (-kv[1], kv[0]))
            for kind, seconds in ordered:
                count = self.event_counts.get(kind, 0)
                mean_us = 1e6 * seconds / count if count else 0.0
                lines.append(f"    {kind:<14} {count:>8} x "
                             f"{mean_us:>8.1f} us = {seconds:>8.3f} s")
        if self.pass_count:
            mean_us = 1e6 * self.pass_seconds / self.pass_count
            lines.append(f"  scheduler passes {self.pass_count:>8} x "
                         f"{mean_us:>8.1f} us = {self.pass_seconds:>8.3f} s")
        if self.span_seconds:
            lines.append("  spans:")
            for name, seconds in sorted(self.span_seconds.items(),
                                        key=lambda kv: (-kv[1], kv[0])):
                count = self.span_counts.get(name, 0)
                lines.append(f"    {name:<22} {count:>8} x = "
                             f"{seconds:>8.3f} s")
        if self.counters:
            lines.append("  hot-path counters:")
            for name, value in sorted(self.counters.items()):
                lines.append(f"    {name:<22} {value}")
        return "\n".join(lines)
