"""Observability subsystem: tracing, decision audit, metrics, timelines.

Lucid's differentiator is *interpretability*; this package is the layer
that makes the reproduction observable end to end:

* :mod:`repro.obs.tracer` — the :class:`Observer` protocol every piece
  below derives from (``Simulator(observers=[...])`` or
  ``Simulator.observe``), and structured simulator events in a ring
  buffer with an optional JSONL sink (no-op :data:`NULL_TRACER` by
  default).
* :mod:`repro.obs.audit` — :class:`DecisionAudit`, the observer that
  folds the scheduler's ``decision`` and ``refit`` events into records
  explaining every allocation (priority, binder verdict, sharing mode,
  starvation relief), live or from an ``events.jsonl``.
* :mod:`repro.obs.live` — the one metrics registry, the serve daemon's
  live telemetry plane: labeled counter / gauge / histogram families,
  Prometheus text exposition, and the zero-dependency ``/dashboard``
  page.
* :mod:`repro.obs.lineage` — the causal event DAG and exact JCT
  decomposition (``Simulator(observers=[LineageCollector()])``): why a job
  was slow, which jobs blocked it, the event chain that determined its
  JCT (``repro why``, which also prints the job's decisions), live or
  offline from a trace JSONL.
* :mod:`repro.obs.timeline` — Chrome trace-event export (per-GPU lanes
  for ``chrome://tracing`` / Perfetto).
* :mod:`repro.obs.prof` — simulator self-profiling
  (:class:`SimProfiler`): wall time per event kind and scheduler
  pass, hot-path counters, events/sec, peak RSS.
* :mod:`repro.obs.series` — fixed-interval cluster time series
  (:class:`SeriesCollector`) with CSV/JSON export.
* :mod:`repro.obs.report` — the ``repro report`` generator: one
  self-contained HTML page (inline CSS/SVG, no external assets) plus a
  machine-readable ``report.json`` twin per run.
* :mod:`repro.obs.logutil` — ``repro.*`` logger configuration.

Quickstart::

    from repro import quick_simulation
    from repro.obs import (DecisionAudit, RingBufferTracer, SimProfiler,
                           write_chrome_trace)

    profiler = SimProfiler()
    audit = DecisionAudit(attribution=True)
    with RingBufferTracer(sink="events.jsonl") as tracer:
        quick_simulation("venus", n_jobs=200,
                         observers=[tracer, profiler, audit])
    print(tracer.counts_by_kind())
    job_id = audit.records[0].job_id
    print(audit.explain(job_id))
    # The same decisions, rebuilt offline from the event log:
    print(DecisionAudit.from_jsonl("events.jsonl").explain(job_id))
    print(profiler.report())
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
    Observer,
    RingBufferTracer,
    TraceEvent,
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
    "build_chrome_trace",
    "write_chrome_trace",
    "NULL_TRACER",
    "Observer",
    "RingBufferTracer",
    "TraceEvent",
    "events_from_dicts",
    "read_jsonl",
]
