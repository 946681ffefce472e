"""Live telemetry plane: labeled metric families + Prometheus exposition.

The repo's one metrics registry.  A long-running ``repro serve`` daemon
needs the service-monitoring shape — *labeled* series (HTTP latency by
route and status, WAL appends by kind), *bounded* histograms (a daemon
must not grow memory with uptime), and a wire format scrapers already
speak.  :class:`LiveRegistry` provides exactly that.  Offline runs keep
no registry: each of their facts has one home elsewhere (event counts
in the trace stream, fault counts in
:class:`~repro.sim.metrics.FaultStats`, refit quality in the ``refit``
events, pass latency in :class:`~repro.obs.prof.SimProfiler`).

* :meth:`LiveRegistry.counter` / :meth:`~LiveRegistry.gauge` /
  :meth:`~LiveRegistry.histogram` — get-or-create, optionally with a
  ``labels`` mapping; every ``(name, label-values)`` pair owns one child
  metric (:class:`Counter`, :class:`Gauge`, :class:`BucketHistogram`).
* :meth:`LiveRegistry.render_prometheus` — the Prometheus text format
  (``text/plain; version=0.0.4``): ``# HELP`` / ``# TYPE`` headers,
  escaped label values, cumulative ``_bucket{le=...}`` rows ending at
  ``+Inf``, plus ``_sum`` / ``_count``.
* :meth:`LiveRegistry.render_json` — the same families as one JSON
  document (the daemon's legacy ``/metrics`` JSON keeps its own shape;
  this powers the dashboard's polling).
* :func:`publish_profiler` — mirrors :class:`~repro.obs.prof.SimProfiler`
  span summaries (p50/p95/max per span) into the registry so benchmarks
  and the daemon report through one pipeline.
* :func:`render_dashboard` — a self-contained zero-dependency HTML page
  (inline CSS + SVG reused from :mod:`repro.obs.report`, a dash of
  vanilla JS) that polls ``/metrics`` and keeps the value tables live.

Concurrency: family/child creation and rendering are lock-protected;
child mutation (``inc`` / ``set`` / ``observe``) relies on the GIL, so a
render taken mid-update is a weakly consistent snapshot — fine for a
stats plane, and no hot-path lock contention.

This module never reads the wall clock itself — callers time their own
edges (keeping the RPR002/RPR112 instrumentation story in one place,
:mod:`repro.obs.prof` and the serve layer).
"""

from __future__ import annotations

import json
import math
import re
import threading
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.prof import SimProfiler
from repro.obs.report import _CSS, _esc, _svg_line_chart

__all__ = [
    "BucketHistogram",
    "CONTENT_TYPE_PROMETHEUS",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "Gauge",
    "LiveRegistry",
    "publish_profiler",
    "render_dashboard",
    "render_json_text",
]

#: The content type Prometheus scrapers expect from a text exposition.
CONTENT_TYPE_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"

#: Upper bucket bounds (seconds) for service latency edges: 100 µs up
#: to 30 s, roughly 3 buckets per decade.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)

#: Upper bucket bounds for small cardinalities (batch sizes, counts).
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Per-gauge time-series bound: live gauges keep this many samples for
#: the dashboard charts, so registry memory never grows with uptime.
GAUGE_HISTORY = 512

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Last-value metric with an optional time series of samples."""

    __slots__ = ("name", "value", "samples", "max_samples")

    def __init__(self, name: str,
                 max_samples: Optional[int] = None) -> None:
        self.name = name
        self.value: Optional[float] = None
        #: ``(time, value)`` samples in recording order; consecutive
        #: duplicates are collapsed to keep long runs compact.
        self.samples: List[Tuple[float, float]] = []
        #: When set, only the newest ``max_samples`` samples are kept —
        #: the bound long-running daemons need.
        self.max_samples = max_samples

    def set(self, value: float, time: Optional[float] = None) -> None:
        self.value = value
        if time is not None:
            if self.samples and self.samples[-1][1] == value:
                return
            self.samples.append((time, value))
            if (self.max_samples is not None
                    and len(self.samples) > self.max_samples):
                del self.samples[:len(self.samples) - self.max_samples]


class BucketHistogram:
    """Fixed-bucket histogram in the Prometheus exposition shape.

    Holds only per-bucket counts plus a running sum — O(buckets) memory
    regardless of how long a service runs, which is what the live
    ``/metrics`` endpoint needs.
    ``bounds`` are the *upper* bucket bounds; an implicit ``+Inf`` bucket
    always exists, so :meth:`cumulative` is monotone and its last count
    equals :attr:`count`.
    """

    __slots__ = ("name", "bounds", "counts", "total", "count")

    def __init__(self, name: str, bounds: Tuple[float, ...]) -> None:
        if not bounds:
            raise ValueError("BucketHistogram needs at least one bound")
        if any(a > b for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be sorted: {bounds}")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        #: Per-bucket observation counts; index -1 is the +Inf bucket.
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` rows ending at ``+Inf``."""
        rows: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket_count in zip(self.bounds, self.counts):
            running += bucket_count
            rows.append((bound, running))
        rows.append((math.inf, running + self.counts[-1]))
        return rows

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate, ``q`` in [0, 1].

        Returns the upper bound of the bucket holding the q-th
        observation (the finest answer bucketed counts can give); the
        largest finite bound when the rank lands in ``+Inf``.
        """
        if self.count == 0:
            return 0.0
        rank = max(1, int(math.ceil(q * self.count)))
        running = 0
        for bound, bucket_count in zip(self.bounds, self.counts):
            running += bucket_count
            if running >= rank:
                return bound
        return self.bounds[-1]

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "sum": self.total,
            "mean": self.total / self.count if self.count else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


def _escape_label_value(value: str) -> str:
    """Prometheus label-value escaping: backslash, quote, newline."""
    return (value.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"))


def _escape_help(text: str) -> str:
    """``# HELP`` escaping: backslash and newline only (no quotes)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Exposition number: integral floats without the trailing ``.0``."""
    if value != value:  # NaN
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_body(labelnames: Tuple[str, ...],
                labelvalues: Tuple[str, ...],
                extra: Optional[Tuple[str, str]] = None) -> str:
    """``{a="x",b="y"}`` or the empty string for label-free series."""
    pairs = list(zip(labelnames, labelvalues))
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape_label_value(value)}"'
                    for name, value in pairs)
    return "{" + body + "}"


class _Family:
    """One named metric family: fixed type/help/labelnames, N children."""

    __slots__ = ("name", "kind", "help", "labelnames", "buckets",
                 "children")

    def __init__(self, name: str, kind: str, help_text: str,
                 labelnames: Tuple[str, ...],
                 buckets: Optional[Tuple[float, ...]] = None) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labelnames = labelnames
        self.buckets = buckets
        self.children: Dict[Tuple[str, ...], Any] = {}


class LiveRegistry:
    """Thread-safe registry of labeled counter/gauge/histogram families.

    ``namespace`` is prefixed onto every metric name (Prometheus
    convention: one namespace per application), so callers register
    short names like ``serve_ticks_total``.
    """

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    # -- family/child plumbing -----------------------------------------
    def _full_name(self, name: str) -> str:
        full = f"{self.namespace}_{name}" if self.namespace else name
        if not _METRIC_NAME_RE.match(full):
            raise ValueError(f"invalid metric name {full!r}")
        return full

    def _child(self, name: str, kind: str, help_text: str,
               labels: Optional[Mapping[str, str]],
               buckets: Optional[Tuple[float, ...]] = None) -> Any:
        full = self._full_name(name)
        labelitems = sorted((labels or {}).items())  # canonical label order
        labelnames = tuple(key for key, _ in labelitems)
        labelvalues = tuple(str(value) for _, value in labelitems)
        for label in labelnames:
            if not _LABEL_NAME_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        with self._lock:
            family = self._families.get(full)
            if family is None:
                family = _Family(full, kind, help_text, labelnames,
                                 buckets)
                self._families[full] = family
            else:
                if family.kind != kind:
                    raise ValueError(
                        f"metric {full!r} is a {family.kind}, not a "
                        f"{kind}")
                if family.labelnames != labelnames:
                    raise ValueError(
                        f"metric {full!r} has labels "
                        f"{family.labelnames}, not {labelnames}")
                if help_text and not family.help:
                    family.help = help_text
            child = family.children.get(labelvalues)
            if child is None:
                if kind == "counter":
                    child = Counter(full)
                elif kind == "gauge":
                    child = Gauge(full, max_samples=GAUGE_HISTORY)
                else:
                    child = BucketHistogram(
                        full, buckets or DEFAULT_LATENCY_BUCKETS)
                family.children[labelvalues] = child
            return child

    # -- public get-or-create API --------------------------------------
    def counter(self, name: str, help_text: str = "",
                labels: Optional[Mapping[str, str]] = None) -> Counter:
        child = self._child(name, "counter", help_text, labels)
        assert isinstance(child, Counter)
        return child

    def gauge(self, name: str, help_text: str = "",
              labels: Optional[Mapping[str, str]] = None) -> Gauge:
        child = self._child(name, "gauge", help_text, labels)
        assert isinstance(child, Gauge)
        return child

    def histogram(self, name: str, help_text: str = "",
                  labels: Optional[Mapping[str, str]] = None,
                  buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
                  ) -> BucketHistogram:
        child = self._child(name, "histogram", help_text, labels,
                            buckets=buckets)
        assert isinstance(child, BucketHistogram)
        return child

    # -- rendering ------------------------------------------------------
    def render_prometheus(self) -> str:
        """The registry as Prometheus text exposition format 0.0.4."""
        lines: List[str] = []
        with self._lock:
            families = sorted(self._families.items())
        for full, family in families:
            if family.help:
                lines.append(f"# HELP {full} "
                             f"{_escape_help(family.help)}")
            lines.append(f"# TYPE {full} {family.kind}")
            for labelvalues in sorted(family.children):
                child = family.children[labelvalues]
                labels = _label_body(family.labelnames, labelvalues)
                if family.kind == "counter":
                    lines.append(
                        f"{full}{labels} "
                        f"{_format_value(child.value)}")
                elif family.kind == "gauge":
                    value = child.value if child.value is not None else 0.0
                    lines.append(
                        f"{full}{labels} {_format_value(value)}")
                else:
                    for bound, cum in child.cumulative():
                        le = "+Inf" if math.isinf(bound) \
                            else _format_value(bound)
                        body = _label_body(family.labelnames,
                                           labelvalues, ("le", le))
                        lines.append(f"{full}_bucket{body} {cum}")
                    lines.append(f"{full}_sum{labels} "
                                 f"{_format_value(child.total)}")
                    lines.append(f"{full}_count{labels} {child.count}")
        return "\n".join(lines) + "\n" if lines else ""

    def render_json(self) -> Dict[str, Any]:
        """The registry as one JSON document (dashboard polling shape)."""
        out: List[Dict[str, Any]] = []
        with self._lock:
            families = sorted(self._families.items())
        for full, family in families:
            samples: List[Dict[str, Any]] = []
            for labelvalues in sorted(family.children):
                child = family.children[labelvalues]
                labels = dict(zip(family.labelnames, labelvalues))
                if family.kind == "counter":
                    samples.append({"labels": labels,
                                    "value": child.value})
                elif family.kind == "gauge":
                    samples.append({"labels": labels,
                                    "value": child.value,
                                    "series": [[t, v] for t, v
                                               in child.samples]})
                else:
                    samples.append({
                        "labels": labels,
                        "count": child.count,
                        "sum": child.total,
                        "buckets": [[bound, cum] for bound, cum
                                    in child.cumulative()],
                        "summary": child.summary(),
                    })
            out.append({"name": full, "type": family.kind,
                        "help": family.help, "samples": samples})
        return {"families": out}


def publish_profiler(registry: LiveRegistry, profiler: SimProfiler,
                     ) -> None:
    """Mirror a :class:`SimProfiler`'s accumulated state into gauges.

    Idempotent re-publication: totals are *set* (not incremented), so
    calling this on every refresh interval never double-counts.  Span
    distributions ride in as p50/p95/max gauges from the profiler's
    bounded reservoirs — the exact numbers ``repro report`` embeds, so
    the daemon and the offline report share one measurement pipeline.
    """
    registry.gauge("sim_events_processed",
                   "Simulator events dispatched since boot"
                   ).set(float(profiler.events_processed))
    registry.gauge("sim_wall_seconds",
                   "Wall seconds spent inside simulator runs"
                   ).set(profiler.wall_seconds)
    passes = profiler.pass_summary()
    registry.gauge("sim_schedule_pass_seconds_total",
                   "Cumulative scheduler pass wall seconds"
                   ).set(passes["seconds"])
    registry.gauge("sim_schedule_passes",
                   "Scheduler passes executed"
                   ).set(passes["count"])
    for stat in ("p50", "p95", "max"):
        registry.gauge(f"sim_schedule_pass_{stat}_seconds",
                       f"Per-pass {stat} wall seconds "
                       "(bounded reservoir)").set(passes[stat])
    for name, summary in profiler.span_summary().items():
        labels = {"span": name}
        registry.gauge("sim_span_seconds_total",
                       "Cumulative wall seconds per profiler span",
                       labels).set(summary["seconds"])
        registry.gauge("sim_span_calls",
                       "Invocations per profiler span",
                       labels).set(summary["count"])
        for stat in ("p50", "p95", "max"):
            registry.gauge(f"sim_span_{stat}_seconds",
                           f"Per-call {stat} wall seconds per span "
                           "(bounded reservoir)",
                           labels).set(summary[stat])
    for name, value in profiler.counters.items():
        registry.gauge("sim_hotpath_calls",
                       "Hot-path invocation counters",
                       {"counter": name}).set(float(value))


# ----------------------------------------------------------------------
# The live dashboard
# ----------------------------------------------------------------------

_DASH_JS = """
'use strict';
var POLL_MS = __POLL_MS__;
function fmt(v) {
  if (v === null || v === undefined) return '-';
  if (typeof v !== 'number') return String(v);
  if (!isFinite(v)) return String(v);
  if (Math.abs(v) >= 1000) return Math.round(v).toLocaleString('en-US');
  if (Number.isInteger(v)) return String(v);
  return v.toPrecision(4);
}
function seriesKey(s) {
  var parts = [];
  Object.keys(s.labels).sort().forEach(function (k) {
    parts.push(k + '=' + s.labels[k]);
  });
  return parts.join(',');
}
function render(doc) {
  var rows = [];
  var dropped = 0;
  doc.families.forEach(function (fam) {
    if (fam.name.indexOf('tracer_dropped_events_total') !== -1) {
      fam.samples.forEach(function (s) { dropped += s.value || 0; });
    }
    fam.samples.forEach(function (s) {
      var key = seriesKey(s);
      var label = fam.name + (key ? '{' + key + '}' : '');
      if (fam.type === 'histogram') {
        rows.push([label, 'count=' + fmt(s.count)
                   + ' sum=' + fmt(s.sum)
                   + ' p50=' + fmt(s.summary.p50)
                   + ' p95=' + fmt(s.summary.p95)]);
      } else {
        rows.push([label, fmt(s.value)]);
      }
    });
  });
  var banner = document.getElementById('dropped-banner');
  if (banner) {
    if (dropped > 0) {
      banner.style.display = '';
      banner.textContent = 'warning: ' + fmt(dropped)
        + ' trace events dropped — the event'
        + ' log and any lineage built from it are incomplete';
    } else {
      banner.style.display = 'none';
    }
  }
  var body = document.getElementById('metric-rows');
  body.textContent = '';
  rows.forEach(function (row) {
    var tr = document.createElement('tr');
    var name = document.createElement('td');
    var code = document.createElement('code');
    code.textContent = row[0];
    name.appendChild(code);
    var value = document.createElement('td');
    value.className = 'num';
    value.textContent = row[1];
    tr.appendChild(name);
    tr.appendChild(value);
    body.appendChild(tr);
  });
}
function poll() {
  fetch('/metrics?format=live', {headers: {Accept: 'application/json'}})
    .then(function (resp) {
      if (!resp.ok) throw new Error('scrape failed: ' + resp.status);
      return resp.json();
    })
    .then(function (doc) {
      render(doc);
      document.getElementById('scrape-state').textContent =
        'live \\u00b7 last scrape ' + new Date().toLocaleTimeString();
      document.getElementById('scrape-state').className = 'ok';
    })
    .catch(function (err) {
      document.getElementById('scrape-state').textContent =
        'scrape error: ' + err.message;
      document.getElementById('scrape-state').className = 'warn';
    });
}
window.addEventListener('load', function () {
  poll();
  window.setInterval(poll, POLL_MS);
});
"""


def _gauge_charts(registry: LiveRegistry) -> str:
    """Server-rendered SVG history for every gauge that kept samples."""
    doc = registry.render_json()
    charts: List[str] = []
    for family in doc["families"]:
        if family["type"] != "gauge":
            continue
        series: List[Tuple[str, List[Tuple[float, float]]]] = []
        for sample in family["samples"]:
            points = [(float(t), float(v))
                      for t, v in sample.get("series", [])]
            if len(points) >= 2:
                key = ",".join(f"{k}={v}" for k, v
                               in sorted(sample["labels"].items()))
                series.append((key or family["name"], points))
        if series:
            charts.append(f"<h2>{_esc(family['name'])}</h2>")
            if family["help"]:
                charts.append(
                    f"<p class=\"meta\">{_esc(family['help'])}</p>")
            charts.append(_svg_line_chart(series, y_label="value"))
    if not charts:
        return ("<p class=\"meta\">no gauge history yet — charts appear "
                "after a few service ticks (reload to refresh)</p>")
    return "".join(charts)


def render_dashboard(registry: LiveRegistry, title: str = "repro serve",
                     poll_seconds: float = 2.0) -> str:
    """One self-contained HTML page: live values + gauge history charts.

    Zero external assets: inline CSS (shared with ``repro report``),
    inline SVG charts rendered server-side from gauge time series, and
    a vanilla-JS poller that refreshes the current-values table from
    ``/metrics`` (JSON shape) every ``poll_seconds``.  Charts show the
    history up to page load; reload for fresh charts.
    """
    script = _DASH_JS.replace("__POLL_MS__",
                              str(int(poll_seconds * 1000)))
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{_esc(title)} dashboard</title>
<style>{_CSS}</style>
</head>
<body>
<h1>{_esc(title)} — live telemetry</h1>
<p class="meta">Polling <code>/metrics</code> every
{poll_seconds:g}s · <span id="scrape-state">connecting…</span></p>
<p id="dropped-banner" class="warn" style="display:none"></p>
<h2>Current values</h2>
<table>
<thead><tr><th>series</th><th>value</th></tr></thead>
<tbody id="metric-rows">
<tr><td class="meta" colspan="2">waiting for first scrape…</td></tr>
</tbody>
</table>
{_gauge_charts(registry)}
<p class="meta">Prometheus text exposition:
<code>curl -H 'Accept: text/plain' /metrics</code></p>
<script>{script}</script>
</body>
</html>
"""


def render_json_text(registry: LiveRegistry) -> str:
    """``render_json`` as a stable, newline-terminated JSON string."""
    return json.dumps(registry.render_json(), sort_keys=True) + "\n"
