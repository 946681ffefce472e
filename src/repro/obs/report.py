"""``repro report``: self-contained HTML + JSON run reports.

One simulation run produces many artifacts — summary scalars, cluster
time series, profiler breakdowns, fault statistics and (for Lucid) the
placement-decision audit with per-feature model attributions.  This
module distills them into a single pair of files:

* ``report.html`` — a self-contained page (inline CSS, inline SVG
  charts, **no external assets or network fetches**) readable anywhere.
* ``report.json`` — the machine-readable twin under the
  ``repro-report/v1`` schema, so dashboards and CI diff tooling never
  have to scrape the HTML.

This module only *consumes* finished simulations; it lives outside the
simulation packages, so its wall-clock reads (the ``created`` stamp) are
outside RPR002's scope.  Both files are written atomically
(write-to-temp then rename) via :mod:`repro.obs.ioutil`.
"""

from __future__ import annotations

import html
import json
import os
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.ioutil import atomic_write_text
from repro.obs.lineage import COMPONENTS, blame_table, decompose_all

__all__ = [
    "REPORT_SCHEMA",
    "build_report",
    "load_report",
    "render_html",
    "validate_report",
    "write_report",
]

#: Schema tag; bump on incompatible layout changes.
REPORT_SCHEMA = "repro-report/v1"

#: Top-level keys every report document must carry (``None`` marks an
#: absent optional section, but the key itself is always present).
#: Extra keys are tolerated, so older documents that still carry the
#: retired ``bench_diff`` section stay valid.
_DOC_KEYS = ("schema", "created", "run", "summary", "series", "profile",
             "faults", "attributions", "audit", "lineage")

#: Keys tolerated absent on load: documents written before the section
#: existed stay valid under the same schema tag.
_OPTIONAL_DOC_KEYS = ("lineage",)

#: Keys of the mandatory ``run`` section.
_RUN_KEYS = ("scheduler", "trace", "jobs", "seed")

#: Additivity tolerance when classifying recorded attributions.
_ADDITIVE_TOL = 1e-6


# ----------------------------------------------------------------------
# Document assembly
# ----------------------------------------------------------------------
def build_report(result: Any, *, scheduler: str, trace: str, jobs: int,
                 seed: Optional[int], profiler: Optional[Any] = None,
                 series: Optional[Any] = None, audit: Optional[Any] = None,
                 lineage: Optional[Any] = None,
                 created: Optional[str] = None) -> Dict[str, Any]:
    """Assemble the ``repro-report/v1`` document for one finished run.

    Parameters
    ----------
    result:
        The :class:`~repro.sim.metrics.SimulationResult` of the run.
    scheduler, trace, jobs, seed:
        Run identity, echoed into the ``run`` section.
    profiler:
        Optional :class:`~repro.obs.prof.SimProfiler` that was attached.
    series:
        Optional :class:`~repro.obs.series.SeriesCollector` that sampled
        the run.
    audit:
        Optional :class:`~repro.obs.audit.DecisionAudit`; when it carries
        attributions the interpretability section is populated.
    lineage:
        Optional :class:`~repro.obs.lineage.LineageCollector` that
        observed the run; populates the JCT-decomposition waterfall and
        blame sections.
    created:
        Timestamp override (tests); defaults to the current local time.
    """
    document: Dict[str, Any] = {
        "schema": REPORT_SCHEMA,
        "created": created if created is not None
        else time.strftime("%Y-%m-%dT%H:%M:%S"),
        "run": {"scheduler": scheduler, "trace": trace, "jobs": jobs,
                "seed": seed},
        "summary": dict(result.summary()),
        "series": series.to_json() if series is not None else None,
        "profile": profiler.to_dict() if profiler is not None else None,
        "faults": _fault_section(result),
        "attributions": _attribution_section(audit),
        "audit": _audit_section(audit),
        "lineage": _lineage_section(lineage),
    }
    return document


def _lineage_section(lineage: Optional[Any]) -> Optional[Dict[str, Any]]:
    """JCT decompositions rolled up for the report (``None`` when the
    run carried no lineage collector)."""
    if lineage is None:
        return None
    decompositions = decompose_all(lineage)
    totals = {name: 0.0 for name in COMPONENTS}
    for decomposition in decompositions.values():
        for name, seconds in decomposition.components().items():
            totals[name] += seconds
    slowest = sorted(decompositions.values(),
                     key=lambda d: (-d.jct, d.job_id))[:12]
    return {
        "jobs": len(decompositions),
        "components_total": totals,
        "blame": [{"job_id": row.job_id,
                   "induced_wait": row.induced_wait,
                   "n_victims": row.n_victims}
                  for row in blame_table(decompositions)],
        "slowest": [{"job_id": d.job_id, "jct": d.jct,
                     "components": d.components()} for d in slowest],
    }


def _fault_section(result: Any) -> Optional[Dict[str, Any]]:
    stats = getattr(result, "faults", None)
    if stats is None:
        return None
    return {
        "node_failures": stats.node_failures,
        "node_recoveries": stats.node_recoveries,
        "job_crashes": stats.job_crashes,
        "restarts": stats.restarts,
        "jobs_failed": stats.jobs_failed,
        "goodput": stats.goodput,
        "lost_gpu_hours": stats.lost_gpu_hours,
        "mttr_hrs": stats.mttr / 3600.0,
    }


def _audit_section(audit: Optional[Any]) -> Optional[Dict[str, Any]]:
    if audit is None:
        return None
    return {
        "decisions": len(audit.records),
        "packing_rate": audit.packing_rate(),
        "refits": [refit.to_dict() for refit in audit.refits],
    }


def _attribution_section(audit: Optional[Any]) -> Optional[Dict[str, Any]]:
    """Interpretability rollup of the audit's recorded attributions."""
    if audit is None or not getattr(audit, "attribution", False):
        return None
    decisions, with_attr = audit.attribution_coverage()
    duration_sums: Dict[str, List[float]] = {}
    sharing_sums: Dict[str, List[float]] = {}
    additive = 0
    examples: List[str] = []
    for decision in audit.records:
        attribution = decision.attribution
        if attribution is not None:
            if abs(attribution.residual()) <= _ADDITIVE_TOL:
                additive += 1
            for name, score in attribution.terms:
                duration_sums.setdefault(name, []).append(abs(score))
            if len(examples) < 5:
                examples.append(
                    f"job {decision.job_id}: {attribution.render()}")
        binder = decision.binder
        if binder is not None and binder.attribution is not None:
            for name, score in binder.attribution.terms:
                sharing_sums.setdefault(name, []).append(abs(score))
    return {
        "coverage": {
            "decisions": decisions,
            "with_attribution": with_attr,
            "rate": with_attr / decisions if decisions else 0.0,
        },
        "additive": additive,
        "additive_tol": _ADDITIVE_TOL,
        "top_features": _mean_magnitude(duration_sums),
        "sharing_top_features": _mean_magnitude(sharing_sums),
        "examples": examples,
    }


def _mean_magnitude(sums: Dict[str, List[float]]
                    ) -> List[Tuple[str, float]]:
    """``(feature, mean |contribution|)`` pairs, largest first."""
    pairs = [(name, sum(vals) / len(vals)) for name, vals in sums.items()]
    pairs.sort(key=lambda p: (-p[1], p[0]))
    return pairs


# ----------------------------------------------------------------------
# Validation / IO
# ----------------------------------------------------------------------
def validate_report(document: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``document`` is a valid report."""
    if not isinstance(document, dict):
        raise ValueError("report document must be a JSON object")
    if document.get("schema") != REPORT_SCHEMA:
        raise ValueError(f"unsupported report schema "
                         f"{document.get('schema')!r}; "
                         f"expected {REPORT_SCHEMA!r}")
    missing = [k for k in _DOC_KEYS
               if k not in document and k not in _OPTIONAL_DOC_KEYS]
    if missing:
        raise ValueError(f"report document misses keys: {missing}")
    run = document["run"]
    if not isinstance(run, dict):
        raise ValueError("report 'run' section must be an object")
    gone = [k for k in _RUN_KEYS if k not in run]
    if gone:
        raise ValueError(f"report 'run' section misses keys: {gone}")
    if not isinstance(document["summary"], dict):
        raise ValueError("report 'summary' section must be an object")


def write_report(document: Dict[str, Any], out_dir: str
                 ) -> Tuple[str, str]:
    """Write ``report.html`` and ``report.json`` atomically into
    ``out_dir``; returns their paths."""
    validate_report(document)
    html_path = os.path.join(out_dir, "report.html")
    json_path = os.path.join(out_dir, "report.json")
    atomic_write_text(html_path, render_html(document))
    atomic_write_text(json_path,
                      json.dumps(document, indent=2, sort_keys=True) + "\n")
    return html_path, json_path


def load_report(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        document = json.load(handle)
    validate_report(document)
    return document


# ----------------------------------------------------------------------
# HTML rendering (self-contained: inline CSS + inline SVG only)
# ----------------------------------------------------------------------
_CSS = """
body { font-family: -apple-system, 'Segoe UI', Helvetica, Arial,
       sans-serif; margin: 2rem auto; max-width: 60rem; color: #1c2733;
       line-height: 1.45; }
h1 { font-size: 1.5rem; border-bottom: 2px solid #2c7fb8;
     padding-bottom: .3rem; }
h2 { font-size: 1.15rem; margin-top: 1.8rem; color: #2c7fb8; }
table { border-collapse: collapse; margin: .6rem 0; font-size: .9rem; }
th, td { border: 1px solid #cbd5df; padding: .25rem .6rem;
         text-align: left; }
th { background: #eef4f8; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
code { background: #f2f5f7; padding: .1rem .25rem; border-radius: 3px;
       font-size: .85em; }
.meta { color: #5a6b7b; font-size: .85rem; }
.warn { color: #b03030; font-weight: 600; }
.ok { color: #2a7d2a; font-weight: 600; }
svg { background: #fbfcfd; border: 1px solid #dde5ec; }
.legend span { margin-right: 1.2rem; font-size: .85rem; }
.swatch { display: inline-block; width: .8em; height: .8em;
          margin-right: .3em; vertical-align: baseline; }
"""

#: Chart palette (no external fonts/assets; plain hex colors).
_COLORS = ("#2c7fb8", "#d95f0e", "#31a354", "#756bb1")


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: Any, precision: int = 3) -> str:
    """Human cell: thousands grouping for big numbers, '-' for None."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.{precision}g}"
    if isinstance(value, int) and abs(value) >= 1000:
        return f"{value:,}"
    return str(value)


def _html_table(headers: Sequence[str],
                rows: Sequence[Sequence[Any]]) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body: List[str] = []
    for row in rows:
        cells: List[str] = []
        for cell in row:
            klass = (" class=\"num\""
                     if isinstance(cell, (int, float))
                     and not isinstance(cell, bool) else "")
            cells.append(f"<td{klass}>{_esc(_fmt(cell))}</td>")
        body.append("<tr>" + "".join(cells) + "</tr>")
    return (f"<table><thead><tr>{head}</tr></thead>"
            f"<tbody>{''.join(body)}</tbody></table>")


def _svg_line_chart(series: Sequence[Tuple[str, Sequence[Tuple[float,
                                                               float]]]],
                    width: int = 640, height: int = 180,
                    y_label: str = "") -> str:
    """Inline SVG line chart: ``series`` is ``[(label, [(x, y), ...])]``.

    Deliberately minimal — shared x/y scales, a frame, min/max tick
    labels and one polyline per series — so the output stays dependency-
    free and byte-stable for a given input.
    """
    points = [p for _, pts in series for p in pts]
    if not points:
        return "<p class=\"meta\">no samples</p>"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    if y_max - y_min < 1e-12:
        y_max = y_min + 1.0
    if x_max - x_min < 1e-12:
        x_max = x_min + 1.0
    pad_l, pad_r, pad_t, pad_b = 46, 8, 8, 22
    plot_w = width - pad_l - pad_r
    plot_h = height - pad_t - pad_b

    def sx(x: float) -> float:
        return pad_l + (x - x_min) / (x_max - x_min) * plot_w

    def sy(y: float) -> float:
        return pad_t + (1.0 - (y - y_min) / (y_max - y_min)) * plot_h

    parts: List[str] = [
        f"<svg width=\"{width}\" height=\"{height}\" role=\"img\" "
        f"xmlns=\"http://www.w3.org/2000/svg\">",
        f"<rect x=\"{pad_l}\" y=\"{pad_t}\" width=\"{plot_w}\" "
        f"height=\"{plot_h}\" fill=\"none\" stroke=\"#cbd5df\"/>",
        f"<text x=\"{pad_l - 4}\" y=\"{pad_t + 10}\" font-size=\"10\" "
        f"text-anchor=\"end\" fill=\"#5a6b7b\">{_esc(_fmt(y_max))}</text>",
        f"<text x=\"{pad_l - 4}\" y=\"{pad_t + plot_h}\" font-size=\"10\" "
        f"text-anchor=\"end\" fill=\"#5a6b7b\">{_esc(_fmt(y_min))}</text>",
        f"<text x=\"{pad_l}\" y=\"{height - 6}\" font-size=\"10\" "
        f"fill=\"#5a6b7b\">{_esc(_fmt(x_min))}h</text>",
        f"<text x=\"{pad_l + plot_w}\" y=\"{height - 6}\" font-size=\"10\" "
        f"text-anchor=\"end\" fill=\"#5a6b7b\">{_esc(_fmt(x_max))}h</text>",
    ]
    if y_label:
        parts.append(
            f"<text x=\"4\" y=\"{pad_t + plot_h / 2:.0f}\" "
            f"font-size=\"10\" fill=\"#5a6b7b\" "
            f"transform=\"rotate(-90 10 {pad_t + plot_h / 2:.0f})\">"
            f"{_esc(y_label)}</text>")
    legend: List[str] = []
    for idx, (label, pts) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
        parts.append(f"<polyline fill=\"none\" stroke=\"{color}\" "
                     f"stroke-width=\"1.5\" points=\"{coords}\"/>")
        legend.append(f"<span><span class=\"swatch\" style=\"background:"
                      f"{color}\"></span>{_esc(label)}</span>")
    parts.append("</svg>")
    parts.append(f"<div class=\"legend\">{''.join(legend)}</div>")
    return "".join(parts)


def _series_charts(series_doc: Optional[Dict[str, Any]]) -> str:
    if series_doc is None or not series_doc.get("samples"):
        return "<p class=\"meta\">no time series collected</p>"
    samples = series_doc["samples"]
    hours = [s["time"] / 3600.0 for s in samples]

    def line(key: str) -> List[Tuple[float, float]]:
        return list(zip(hours, [float(s[key]) for s in samples]))

    util = _svg_line_chart(
        [("GPU allocation", line("gpu_alloc")),
         ("GPU shared", line("gpu_shared")),
         ("memory used", line("memory_used"))],
        y_label="fraction")
    jobs = _svg_line_chart(
        [("running jobs", line("running_jobs")),
         ("pending jobs", line("pending_jobs"))],
        y_label="jobs")
    return util + jobs


def _summary_rows(summary: Dict[str, Any]) -> List[Sequence[Any]]:
    return [[key, summary[key]] for key in sorted(summary)]


def _profile_html(profile: Optional[Dict[str, Any]]) -> str:
    if profile is None:
        return "<p class=\"meta\">profiler not attached</p>"
    headline = _html_table(
        ["wall (s)", "sim speedup", "events", "events/sec",
         "peak RSS (MB)"],
        [[profile.get("wall_seconds"), profile.get("sim_speedup"),
          profile.get("events_processed"), profile.get("events_per_sec"),
          profile.get("peak_rss_mb")]])
    kinds = profile.get("event_kinds") or {}
    kind_rows = [[kind, stats.get("count"), stats.get("seconds")]
                 for kind, stats in sorted(kinds.items())] \
        if all(isinstance(v, dict) for v in kinds.values()) \
        else [[kind, value, None] for kind, value in sorted(kinds.items())]
    spans = profile.get("spans") or {}
    span_rows = [[name, stats.get("count"), stats.get("seconds")]
                 for name, stats in sorted(spans.items())
                 if isinstance(stats, dict)]
    out = headline
    passes = profile.get("schedule_passes") or {}
    if "p50" in passes:
        out += "<h3>Scheduler passes</h3>" + _html_table(
            ["passes", "p50 (ms)", "p95 (ms)", "max (ms)"],
            [[passes.get("count"), 1e3 * passes["p50"],
              1e3 * passes["p95"], 1e3 * passes["max"]]])
    if kind_rows:
        out += "<h3>Event kinds</h3>" + _html_table(
            ["kind", "count", "seconds"], kind_rows)
    if span_rows:
        out += "<h3>Spans</h3>" + _html_table(
            ["span", "count", "seconds"], span_rows)
    return out


def _attribution_html(attributions: Optional[Dict[str, Any]]) -> str:
    if attributions is None:
        return ("<p class=\"meta\">attribution disabled (lucid-only "
                "feature; rerun with <code>repro report --scheduler "
                "lucid</code>)</p>")
    coverage = attributions["coverage"]
    rate = coverage["rate"]
    klass = "ok" if rate >= 0.95 else "warn"
    out = (f"<p>coverage: <span class=\"{klass}\">"
           f"{coverage['with_attribution']}/{coverage['decisions']} "
           f"({rate:.1%})</span> of main-cluster placements carry a "
           f"per-feature attribution; {attributions['additive']} are "
           f"additive within {attributions['additive_tol']:g}.</p>")
    if attributions["top_features"]:
        out += "<h3>Duration model — mean |contribution|</h3>"
        out += _html_table(["feature", "mean |contribution|"],
                           attributions["top_features"][:10])
    if attributions["sharing_top_features"]:
        out += "<h3>Sharing model — mean |contribution|</h3>"
        out += _html_table(["feature", "mean |contribution|"],
                           attributions["sharing_top_features"][:10])
    if attributions["examples"]:
        out += "<h3>Example explanations</h3><ul>"
        out += "".join(f"<li><code>{_esc(e)}</code></li>"
                       for e in attributions["examples"])
        out += "</ul>"
    return out


def _audit_html(audit: Optional[Dict[str, Any]]) -> str:
    if audit is None:
        return "<p class=\"meta\">no decision audit recorded</p>"
    out = (f"<p>{audit['decisions']} placement decisions; packing rate "
           f"{audit['packing_rate']:.1%}.</p>")
    refits = audit.get("refits") or []
    if refits:
        rows = [[r.get("t"), r.get("model"), r.get("new_records"),
                 r.get("r2"), r.get("samples"), r.get("wall_seconds")]
                for r in refits]
        out += "<h3>Model refits</h3>" + _html_table(
            ["sim time (s)", "model", "new records", "R²", "samples",
             "fit wall (s)"], rows)
    return out


def _faults_html(faults: Optional[Dict[str, Any]]) -> str:
    if faults is None:
        return "<p class=\"meta\">fault injection disabled</p>"
    return _html_table(
        ["node failures", "job crashes", "restarts", "permanent failures",
         "goodput", "lost GPU-h", "MTTR (h)"],
        [[faults["node_failures"], faults["job_crashes"],
          faults["restarts"], faults["jobs_failed"], faults["goodput"],
          faults["lost_gpu_hours"], faults["mttr_hrs"]]])


#: Fill colors for the JCT-decomposition waterfall, one per component.
_LINEAGE_COLORS = {
    "pending_profiling": "#9ecae1",
    "pending_main": "#d95f0e",
    "sharing_slowdown": "#fdae6b",
    "preemption_overhead": "#756bb1",
    "fault_retry": "#b03030",
    "compute": "#31a354",
}


def _svg_waterfall(rows: Sequence[Tuple[str, Dict[str, float]]],
                   width: int = 640) -> str:
    """Horizontal stacked bars: one row per job, one segment per
    nonzero JCT component, all bars on a shared seconds scale."""
    if not rows:
        return "<p class=\"meta\">no completed jobs</p>"
    scale = max(sum(components.values()) for _, components in rows)
    if scale <= 0:
        return "<p class=\"meta\">no completed jobs</p>"
    bar_h, gap, pad_l, pad_r = 16, 6, 90, 8
    plot_w = width - pad_l - pad_r
    height = len(rows) * (bar_h + gap) + gap
    parts: List[str] = [
        f"<svg width=\"{width}\" height=\"{height}\" role=\"img\" "
        f"xmlns=\"http://www.w3.org/2000/svg\">"]
    for idx, (label, components) in enumerate(rows):
        y = gap + idx * (bar_h + gap)
        parts.append(
            f"<text x=\"{pad_l - 6}\" y=\"{y + bar_h - 4}\" "
            f"font-size=\"11\" text-anchor=\"end\" fill=\"#1c2733\">"
            f"{_esc(label)}</text>")
        x = float(pad_l)
        for name in COMPONENTS:
            seconds = max(0.0, components.get(name, 0.0))
            seg_w = seconds / scale * plot_w
            if seg_w < 0.25:
                continue
            color = _LINEAGE_COLORS.get(name, "#888888")
            parts.append(
                f"<rect x=\"{x:.1f}\" y=\"{y}\" width=\"{seg_w:.1f}\" "
                f"height=\"{bar_h}\" fill=\"{color}\">"
                f"<title>{_esc(name)}: {seconds:,.1f} s</title></rect>")
            x += seg_w
    parts.append("</svg>")
    legend = "".join(
        f"<span><span class=\"swatch\" style=\"background:"
        f"{_LINEAGE_COLORS[name]}\"></span>{_esc(name)}</span>"
        for name in COMPONENTS)
    parts.append(f"<div class=\"legend\">{legend}</div>")
    return "".join(parts)


def _lineage_html(lineage: Optional[Dict[str, Any]]) -> str:
    if lineage is None:
        return ("<p class=\"meta\">lineage not collected (rerun "
                "<code>repro report</code> on a build with the causal "
                "lineage plane, or see <code>repro why</code>)</p>")
    if not lineage.get("jobs"):
        return "<p class=\"meta\">no completed jobs to decompose</p>"
    totals = lineage.get("components_total") or {}
    grand = sum(totals.values()) or 1.0
    out = (f"<p>{lineage['jobs']} completed jobs decomposed; every "
           "job's components sum exactly to its JCT "
           "(<code>repro why &lt;job_id&gt;</code> drills into one "
           "job).</p>")
    out += _html_table(
        ["component", "total seconds", "share"],
        [[name, totals.get(name, 0.0), totals.get(name, 0.0) / grand]
         for name in COMPONENTS])
    slowest = lineage.get("slowest") or []
    if slowest:
        out += "<h3>Slowest jobs — where the time went</h3>"
        out += _svg_waterfall(
            [(f"job {row['job_id']}", dict(row["components"]))
             for row in slowest])
    blame = lineage.get("blame") or []
    if blame:
        out += "<h3>Top blockers — induced main-queue wait</h3>"
        out += _html_table(
            ["blocking job", "induced wait (s)", "victims"],
            [[row["job_id"], row["induced_wait"], row["n_victims"]]
             for row in blame])
    return out


def render_html(document: Dict[str, Any]) -> str:
    """Render the report document as one self-contained HTML page."""
    validate_report(document)
    run = document["run"]
    title = (f"repro report — {run['scheduler']} × {run['trace']}"
             f"@{run['jobs']}")
    seed = run.get("seed")
    parts: List[str] = [
        "<!DOCTYPE html>",
        "<html lang=\"en\"><head><meta charset=\"utf-8\">",
        f"<title>{_esc(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
        f"<p class=\"meta\">generated {_esc(document['created'])} · "
        f"schema <code>{_esc(document['schema'])}</code> · seed "
        f"{_esc(seed if seed is not None else 'default')}</p>",
        "<h2>Summary</h2>",
        _html_table(["metric", "value"],
                    _summary_rows(document["summary"])),
        "<h2>Cluster time series</h2>",
        _series_charts(document["series"]),
        "<h2>Interpretability</h2>",
        _attribution_html(document["attributions"]),
        "<h2>Decision audit</h2>",
        _audit_html(document["audit"]),
        "<h2>Why were jobs slow? — JCT decomposition</h2>",
        _lineage_html(document.get("lineage")),
        "<h2>Simulator profile</h2>",
        _profile_html(document["profile"]),
        "<h2>Faults</h2>",
        _faults_html(document["faults"]),
        "</body></html>",
    ]
    return "\n".join(parts)
