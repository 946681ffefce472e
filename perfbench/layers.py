"""The layers the traced run attributes time to, and where each is hooked.

Each :class:`Layer` names the public function (or method) that marks
the layer boundary, every place that function is looked up, and the
statistics reported for it.  Module-level functions are patched in the
modules that import them, because a caller holds its own reference.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from tracing import Patch, SpanRecorder


def _found(result: Any) -> bool:
    return result is not None


@dataclass(frozen=True)
class Layer:
    name: str
    targets: Tuple[str, ...]
    #: Reported statistics: ``calls``, ``s``, ``self_s``, ``p50_ms`` or
    #: ``<x>_ratio`` (share of calls whose result passed ``hit``).
    stats: Tuple[str, ...]
    hit: Optional[Callable[[Any], bool]] = None

    @property
    def detail(self) -> bool:
        return "p50_ms" in self.stats


LAYERS: Tuple[Layer, ...] = (
    # Lucid models.
    Layer("core.forecast_next",
          ("repro.core.throughput:ThroughputPredictModel.forecast_next",),
          ("calls", "s")),
    Layer("models.throughput_feature_table",
          ("repro.core.throughput:throughput_feature_table",),
          ("calls", "s")),
    Layer("core.estimator_predict",
          ("repro.core.estimator:WorkloadEstimateModel.predict",),
          ("calls", "s")),
    Layer("core.maybe_refit",
          ("repro.core.update_engine:UpdateEngine.maybe_refit",),
          ("calls", "s")),
    # Lucid policy and placement.
    Layer("core.lucid_schedule",
          ("repro.core.lucid:LucidScheduler.schedule",),
          ("calls", "self_s")),
    Layer("core.orchestrator_schedule",
          ("repro.core.orchestrator:ResourceOrchestrator.schedule",),
          ("calls", "self_s")),
    Layer("core.find_mate",
          ("repro.core.binder:AffineJobpairBinder.find_mate",),
          ("calls", "s", "found_ratio"), hit=_found),
    Layer("core.profiler_allocate",
          ("repro.core.profiler:NonIntrusiveProfiler.allocate",),
          ("calls", "s")),
    Layer("cluster.find_consolidated",
          ("repro.core.orchestrator:find_consolidated",
           "repro.schedulers.base:find_consolidated"),
          ("calls", "s", "hit_ratio"), hit=_found),
    # Baseline scheduler policy (the FIFO pass).
    Layer("schedulers.schedule",
          ("repro.schedulers.fifo:FIFOScheduler.schedule",),
          ("calls", "self_s")),
    # Engine dispatch and cluster bookkeeping.
    Layer("sim.step_batch",
          ("repro.sim.engine:Simulator.step_batch",),
          ("calls", "self_s")),
    Layer("sim.start_job",
          ("repro.sim.engine:Simulator.start_job",),
          ("calls", "s")),
    Layer("sim.utilization_update",
          ("repro.sim.metrics:UtilizationTracker.update",),
          ("calls", "s")),
    # Serve plane.
    Layer("serve.tick", ("repro.serve.daemon:ServeDaemon.tick",),
          ("calls", "p50_ms")),
    Layer("serve.submit", ("repro.serve.daemon:ServeDaemon.submit",),
          ("calls", "p50_ms")),
    Layer("serve.inbox_poll", ("repro.serve.inbox:Inbox.poll",),
          ("calls", "s")),
    Layer("serve.advance", ("repro.serve.core:SimCore.advance",),
          ("calls", "s")),
    Layer("serve.digest", ("repro.serve.core:state_digest",),
          ("calls", "s")),
    Layer("serve.wal_append", ("repro.serve.wal:WriteAheadLog.append",),
          ("calls", "s")),
    Layer("serve.snapshot", ("repro.serve.daemon:ServeDaemon._snapshot",),
          ("calls", "s")),
    Layer("serve.to_blob", ("repro.serve.core:SimCore.to_blob",),
          ("calls", "s")),
    Layer("serve.record_job", ("repro.serve.store:Store.record_job",),
          ("calls", "s")),
    Layer("serve.status", ("repro.serve.daemon:ServeDaemon.status",),
          ("calls", "p50_ms")),
    Layer("serve.metrics", ("repro.serve.daemon:ServeDaemon.metrics",),
          ("calls", "p50_ms")),
    Layer("serve.prometheus",
          ("repro.serve.daemon:ServeDaemon.prometheus",),
          ("calls", "p50_ms")),
    Layer("serve.live_json", ("repro.serve.daemon:ServeDaemon.live_json",),
          ("calls", "p50_ms")),
    # Set-up.
    Layer("core.attach", ("repro.core.lucid:LucidScheduler.attach",),
          ("calls", "s")),
    Layer("traces.generate",
          ("repro.traces.generator:TraceGenerator.generate",),
          ("calls", "s")),
    Layer("traces.generate_history",
          ("repro.traces.generator:TraceGenerator.generate_history",),
          ("calls", "s")),
)

#: Per-layer metrics measured by the workload itself rather than by a
#: wrapper: name -> unit.
EXTRA_METRICS: Dict[str, str] = {
    "serve.inbox_wait.p50_ms": "ms",
    "bench.other_s": "s",
    "bench.traced_wall_s": "s",
    "bench.trace_overhead_s": "s",
    "bench.trace_overhead_frac": "ratio",
    "bench.send_lag_p50_ms": "ms",
    "bench.send_lag_max_ms": "ms",
    "bench.read_p50_ms": "ms",
}

_UNITS = {"calls": "count", "s": "s", "self_s": "s", "p50_ms": "ms"}


def unit_of(stat: str) -> str:
    return "ratio" if stat.endswith("_ratio") else _UNITS[stat]


def metric_names() -> List[Tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in table order."""
    names = [(f"{layer.name}.{stat}", unit_of(stat))
             for layer in LAYERS for stat in layer.stats]
    names.extend(EXTRA_METRICS.items())
    return names


def install(patch: Patch, recorder: SpanRecorder) -> None:
    """Wrap every layer boundary; ``patch.restore()`` undoes it."""
    for layer in LAYERS:
        for target in layer.targets:
            patch.install(target, lambda fn, layer=layer: recorder.wrap(
                layer.name, fn, detail=layer.detail, hit=layer.hit))


def median_ms(values: Sequence[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def layer_metrics(recorder: SpanRecorder) -> Dict[str, float]:
    """The wrapper-measured per-layer metrics (zero for layers not hit)."""
    totals = recorder.totals()
    out: Dict[str, float] = {}
    for layer in LAYERS:
        row = totals.get(layer.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for stat in layer.stats:
            if stat == "p50_ms":
                value = median_ms(recorder.durations(layer.name))
            elif stat.endswith("_ratio"):
                hits, calls = recorder.outcomes.get(layer.name, (0, 0))
                value = hits / calls if calls else 0.0
            else:
                value = row[stat]
            out[f"{layer.name}.{stat}"] = value
    return out


def layer_table(recorder: SpanRecorder, wall: float) -> str:
    """Self time, calls and ratios per layer, plus the unattributed rest."""
    totals = recorder.totals()
    lines = [f"{'layer':<34} {'calls':>9} {'total s':>9} {'self s':>9} "
             f"{'self %':>7}  ratio"]
    for layer in LAYERS:
        row = totals.get(layer.name)
        if row is None:
            continue
        ratio = ""
        if layer.hit is not None:
            hits, calls = recorder.outcomes.get(layer.name, (0, 0))
            ratio = f"{hits}/{calls}"
        share = 100.0 * row["self_s"] / wall if wall > 0 else 0.0
        lines.append(f"{layer.name:<34} {int(row['calls']):>9} "
                     f"{row['s']:>9.3f} {row['self_s']:>9.3f} "
                     f"{share:>6.1f}%  {ratio}")
    other = wall - recorder.root_seconds
    share = 100.0 * other / wall if wall > 0 else 0.0
    lines.append(f"{'other (not in any layer)':<34} {'':>9} {'':>9} "
                 f"{other:>9.3f} {share:>6.1f}%")
    lines.append(f"{'traced wall':<34} {'':>9} {wall:>9.3f}")
    return "\n".join(lines)
