"""Observability subsystem: tracing, decision audit, metrics, timelines.

Lucid's differentiator is *interpretability*; this package is the layer
that makes the reproduction observable end to end:

* :mod:`repro.obs.tracer` — structured simulator events in a ring buffer
  with an optional JSONL sink (no-op :data:`NULL_TRACER` by default); a
  traced run's events and audit reach
  :class:`~repro.sim.metrics.SimulationResult` as ``result.telemetry``.
* :mod:`repro.obs.audit` — per-placement decision records explaining every
  allocation (priority, binder verdict, sharing mode, starvation relief).
* :mod:`repro.obs.live` — the one metrics registry, the serve daemon's
  live telemetry plane: labeled counter / gauge / histogram families,
  Prometheus text exposition, and the zero-dependency ``/dashboard``
  page.
* :mod:`repro.obs.lineage` — the causal event DAG and exact JCT
  decomposition (``Simulator(tracer=LineageCollector())``): why a job
  was slow, which jobs blocked it, the event chain that determined its
  JCT (``repro why``), live or offline from a trace JSONL.
* :mod:`repro.obs.timeline` — Chrome trace-event export (per-GPU lanes
  for ``chrome://tracing`` / Perfetto).
* :mod:`repro.obs.prof` — simulator self-profiling
  (``Simulator(profile=...)``): wall time per event kind and scheduler
  pass, hot-path counters, events/sec, peak RSS.
* :mod:`repro.obs.series` — fixed-interval cluster time series
  (``Simulator(series=...)``) with CSV/JSON export.
* :mod:`repro.obs.report` — the ``repro report`` generator: one
  self-contained HTML page (inline CSS/SVG, no external assets) plus a
  machine-readable ``report.json`` twin per run.
* :mod:`repro.obs.logutil` — ``repro.*`` logger configuration.

Quickstart::

    from repro import Simulator, quick_simulation
    from repro.obs import RingBufferTracer, write_chrome_trace

    tracer = RingBufferTracer(sink="events.jsonl")
    result = quick_simulation("venus", n_jobs=200, tracer=tracer)
    print(tracer.counts_by_kind())
    print(result.telemetry.audit.explain(42))
    write_chrome_trace("timeline.json", tracer.events)
"""

from repro.obs.audit import (
    BinderVerdict,
    Counterfactual,
    DecisionAudit,
    PlacementDecision,
    RefitRecord,
)
from repro.obs.lineage import (
    COMPONENTS,
    BlameRow,
    JCTDecomposition,
    LineageCollector,
    LineageEvent,
    blame_table,
    critical_path,
    decompose,
    decompose_all,
    lineage_from_trace,
)
from repro.obs.live import (
    CONTENT_TYPE_PROMETHEUS,
    DEFAULT_LATENCY_BUCKETS,
    BucketHistogram,
    Counter,
    Gauge,
    LiveRegistry,
    publish_profiler,
    render_dashboard,
)
from repro.obs.logutil import (
    LOG_FORMATS,
    LOG_LEVELS,
    configure_logging,
    get_logger,
    log_context,
)
from repro.obs.prof import NULL_SPAN, SimProfiler, peak_rss_mb
from repro.obs.report import (
    REPORT_SCHEMA,
    build_report,
    load_report,
    render_html,
    validate_report,
    write_report,
)
from repro.obs.series import (
    SERIES_SCHEMA,
    SeriesCollector,
    SeriesSample,
)
from repro.obs.timeline import build_chrome_trace, write_chrome_trace
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    RingBufferTracer,
    Telemetry,
    TraceEvent,
    Tracer,
    events_from_dicts,
    read_jsonl,
)

__all__ = [
    "BinderVerdict",
    "Counterfactual",
    "DecisionAudit",
    "PlacementDecision",
    "RefitRecord",
    "REPORT_SCHEMA",
    "build_report",
    "load_report",
    "render_html",
    "validate_report",
    "write_report",
    "NULL_SPAN",
    "SimProfiler",
    "peak_rss_mb",
    "SERIES_SCHEMA",
    "SeriesCollector",
    "SeriesSample",
    "LOG_FORMATS",
    "LOG_LEVELS",
    "configure_logging",
    "get_logger",
    "log_context",
    "COMPONENTS",
    "BlameRow",
    "JCTDecomposition",
    "LineageCollector",
    "LineageEvent",
    "blame_table",
    "critical_path",
    "decompose",
    "decompose_all",
    "lineage_from_trace",
    "CONTENT_TYPE_PROMETHEUS",
    "DEFAULT_LATENCY_BUCKETS",
    "LiveRegistry",
    "publish_profiler",
    "render_dashboard",
    "BucketHistogram",
    "Counter",
    "Gauge",
    "Telemetry",
    "build_chrome_trace",
    "write_chrome_trace",
    "NULL_TRACER",
    "NullTracer",
    "RingBufferTracer",
    "TraceEvent",
    "Tracer",
    "events_from_dicts",
    "read_jsonl",
]
