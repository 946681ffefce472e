"""Command-line interface: ``python -m repro <command>``.

Commands
--------
simulate
    Generate a synthetic trace (or load a CSV) and replay it under one
    scheduler; prints the summary metrics and optionally exports per-job
    records.  ``--out DIR`` additionally exports the structured event
    log ``events.jsonl`` (which carries Lucid's placement decisions) and
    a Chrome trace-event timeline ``timeline.json`` loadable in
    chrome://tracing / Perfetto.
compare
    Run several schedulers over the same trace and print a Table-4-style
    comparison.
models
    Train Lucid's three interpretable models on a trace's history and
    print their interpretations (Figures 6/7).
packing
    Print the colocation characterization and Indolent Packing decisions
    (Figures 2/5).
report
    Run one simulation with the full observability stack (profiler,
    series collector, lineage, attribution-enabled audit) and write a
    self-contained ``report.html``, its ``report.json`` twin and the
    run's ``events.jsonl`` and ``timeline.json``.
why
    Answer "why was this job slow, and why was it placed so?":
    decompose one job's JCT into pending-profiling / pending-main-queue
    / sharing-slowdown / preemption-overhead / fault-retry /
    pure-compute components that sum exactly to the JCT, name the jobs
    that blocked it, print its causal critical path, and then explain
    each of its placement decisions.  Works live (run a preset; supports
    ``--what-if feature=value`` counterfactual probes) or offline
    (``--trace events.jsonl`` from ``simulate --out`` or ``report``).
serve
    Run the crash-recoverable scheduler service (:mod:`repro.serve`):
    a daemon with a file inbox + localhost HTTP frontend for runtime
    job submission, sqlite snapshots and a checksummed WAL.
serve-chaos
    The SIGKILL crash harness: run an uncrashed control, then seeded
    kill points; assert every recovery is bit-identical to the control
    (per-tick state digests and final metrics).

The global ``--log-level`` flag (before the command) controls the
``repro.*`` logger tree, e.g. ``repro --log-level info simulate``.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from typing import List, Optional, Sequence

from repro import Simulator, TraceGenerator, get_spec, make_scheduler
from repro.analysis import ascii_table, user_fairness
from repro.models.text import levenshtein_distance_matrix
from repro.obs import (
    LOG_FORMATS,
    LOG_LEVELS,
    Observer,
    RingBufferTracer,
    SimProfiler,
    configure_logging,
    get_logger,
    write_chrome_trace,
)
from repro.sim import SimulationResult

SCHEDULER_CHOICES = ("fifo", "sjf", "qssf", "horus", "tiresias", "lucid")

logger = get_logger("cli")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Lucid (ASPLOS '23) reproduction toolkit")
    parser.add_argument("--log-level", default="warning", choices=LOG_LEVELS,
                        help="verbosity of the repro.* loggers")
    parser.add_argument("--log-format", default="text",
                        choices=LOG_FORMATS,
                        help="log line format; 'json' emits structured "
                             "lines carrying the correlation ids "
                             "(tick, job_id, wal_segment)")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="replay one trace/scheduler")
    _trace_args(sim)
    sim.add_argument("--scheduler", default="lucid",
                     choices=SCHEDULER_CHOICES)
    sim.add_argument("--export", metavar="CSV",
                     help="write per-job records to a CSV file")
    sim.add_argument("--out", metavar="DIR",
                     help="trace the run and write events.jsonl and "
                          "timeline.json to DIR")

    cmp_cmd = sub.add_parser("compare", help="compare schedulers")
    _trace_args(cmp_cmd)
    cmp_cmd.add_argument("--schedulers", default=",".join(SCHEDULER_CHOICES),
                         help="comma-separated scheduler list")

    models = sub.add_parser("models", help="inspect interpretable models")
    _trace_args(models)

    packing = sub.add_parser("packing", help="colocation characterization")
    packing.add_argument("--threshold", type=float, default=0.85,
                         help="interference-free speed threshold")

    lint = sub.add_parser(
        "lint", help="determinism linter (RPR rules; exit 1 on findings)")
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: "
                           "src); a path naming a top-level package "
                           "(or a src/ directory holding only one) also "
                           "gets the whole-program architecture "
                           "(RPR10x), replay-safety (RPR11x) and "
                           "hot-path (RPR12x) packs")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text", help="report format")

    report = sub.add_parser(
        "report", help="run once and write a self-contained HTML+JSON "
                       "run report and its event log")
    _trace_args(report)
    report.add_argument("--scheduler", default="lucid",
                        choices=SCHEDULER_CHOICES)
    report.add_argument("--out", metavar="DIR", default="report-out",
                        help="output directory (default: report-out)")
    report.add_argument("--series-interval", type=float, default=300.0,
                        help="time-series sampling interval in simulated "
                             "seconds (default: 300)")

    serve = sub.add_parser(
        "serve", help="run the crash-recoverable scheduler service")
    serve.add_argument("--state-dir", required=True, metavar="DIR",
                       help="durable state directory (store, WAL, inbox)")
    serve.add_argument("--trace", default=None,
                       help="trace preset sizing the cluster/history "
                            "(default: venus for a new store; omit every "
                            "config flag to restart on the stored config)")
    serve.add_argument("--scheduler", default=None,
                       choices=SCHEDULER_CHOICES)
    serve.add_argument("--jobs", type=int, default=None,
                       help="trace-spec job-count override")
    serve.add_argument("--seed", type=int, default=None,
                       help="trace-spec seed override")
    serve.add_argument("--faults", metavar="SPEC", default=None,
                       help="fault-injection spec armed at genesis "
                            "(the chaos driver)")
    serve.add_argument("--batch", type=int, default=None,
                       help="admission batch size per tick (default: 8)")
    serve.add_argument("--events-per-tick", type=int, default=None,
                       help="max event batches advanced per tick "
                            "(default: 64)")
    serve.add_argument("--http-port", type=int, default=None,
                       metavar="PORT",
                       help="enable the localhost HTTP frontend "
                            "(0 = ephemeral port; default: disabled)")
    serve.add_argument("--poll-interval", type=float, default=0.05,
                       help="idle inbox poll interval in wall seconds")
    serve.add_argument("--snapshot-every", type=int, default=25,
                       help="snapshot + WAL rotation period in ticks")
    serve.add_argument("--inbox-capacity", type=int, default=64,
                       help="pending-spec bound before 429 backpressure")
    serve.add_argument("--no-fsync", action="store_true",
                       help="skip fsync on WAL appends (faster; still "
                            "safe against SIGKILL, not power loss)")
    serve.add_argument("--exit-when-idle", action="store_true",
                       help="drain and exit once admitted work "
                            "completes (batch/CI mode)")
    serve.add_argument("--no-telemetry", action="store_true",
                       help="disable the live telemetry plane "
                            "(Prometheus /metrics, /dashboard, latency "
                            "histograms); scheduling is bit-identical "
                            "either way")
    serve.add_argument("--telemetry-refresh", type=int, default=10,
                       metavar="TICKS",
                       help="publish profiler span summaries and "
                            "WAL/store sizes every N ticks "
                            "(default: 10)")

    status = sub.add_parser(
        "serve-status", help="scrape a running serve daemon and render "
                             "a one-screen summary")
    status.add_argument("--url", required=True, metavar="URL",
                        help="daemon base URL, e.g. "
                             "http://127.0.0.1:8080 (printed at serve "
                             "startup)")
    status.add_argument("--timeout", type=float, default=5.0,
                        help="HTTP timeout in seconds (default: 5)")
    status.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")

    chaos = sub.add_parser(
        "serve-chaos", help="SIGKILL crash harness: prove bit-identical "
                            "recovery against an uncrashed control")
    chaos.add_argument("--workdir", required=True, metavar="DIR",
                       help="scratch directory for control + trial "
                            "state dirs")
    chaos.add_argument("--trace", default="venus")
    chaos.add_argument("--scheduler", default="lucid",
                       choices=SCHEDULER_CHOICES)
    chaos.add_argument("--jobs", type=int, default=120,
                       help="trace job count (default: 120)")
    chaos.add_argument("--seed", type=int, default=7,
                       help="trace seed (default: 7)")
    chaos.add_argument("--faults", metavar="SPEC", default=None,
                       help="fault spec forwarded to every run")
    chaos.add_argument("--points", type=int, default=20,
                       help="number of seeded SIGKILL points "
                            "(default: 20)")
    chaos.add_argument("--chaos-seed", type=int, default=1,
                       help="seed of the kill-point RNG (default: 1)")
    chaos.add_argument("--batch", type=int, default=8)
    chaos.add_argument("--events-per-tick", type=int, default=64)
    chaos.add_argument("--timeout", type=float, default=600.0,
                       help="per-run wall-clock timeout in seconds")

    why = sub.add_parser(
        "why", help="decompose one job's JCT from the causal event "
                    "lineage (where the time went, who blocked it) and "
                    "explain its placement decisions")
    _trace_args(why, "venus|saturn|philly, a CSV file path, or an "
                     "events.jsonl export to read instead of running")
    why.add_argument("job_id", type=int, help="job id to decompose")
    why.add_argument("--scheduler", default="lucid",
                     choices=SCHEDULER_CHOICES)
    why.add_argument("--format", choices=("text", "json"),
                     default="text", help="output format")
    why.add_argument("--path", type=int, default=8, metavar="N",
                     help="show the last N critical-path events "
                          "(default: 8; 0 hides the path)")
    why.add_argument("--what-if", metavar="FEATURE=VALUE",
                     action="append", default=None,
                     help="counterfactual probe: re-run the frozen "
                          "duration model with one feature overridden "
                          "(repeatable; needs a live run, not an "
                          "events.jsonl)")
    return parser


def _trace_args(parser: argparse.ArgumentParser,
                trace_help: str = "venus|saturn|philly or a CSV file "
                                  "path") -> None:
    parser.add_argument("--trace", default="venus", help=trace_help)
    parser.add_argument("--jobs", type=int, default=None,
                        help="override the job count")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the trace seed")
    parser.add_argument("--faults", metavar="SPEC", default=None,
                        help="fault-injection spec: a JSON file, inline "
                             "JSON, or key=value pairs (e.g. "
                             "'node_mtbf=43200,crash_rate=0.2,seed=7')")
    parser.add_argument("--sanitize", action="store_true",
                        help="assert state invariants and check every "
                             "pass against a reference run (repro.checks)")


def _observers(args, *observers: Observer) -> List[Observer]:
    """``observers``, plus a :class:`SimSanitizer` under ``--sanitize``."""
    if not args.sanitize:
        return list(observers)
    from repro.checks.sanitizer import SimSanitizer
    return [*observers, SimSanitizer()]


def _fault_spec(args):
    """Parsed --faults spec, or ``None`` when faults are disabled."""
    raw = getattr(args, "faults", None)
    if raw is None:
        return None
    from repro.faults import FaultSpec
    return FaultSpec.parse(raw)


def _load(args) -> tuple:
    """Resolve (cluster, history, jobs) from --trace/--jobs/--seed."""
    name = args.trace.lower()
    try:
        spec = get_spec(name)
    except KeyError:
        spec = None
    if spec is not None:
        if args.jobs is not None:
            spec = spec.with_jobs(args.jobs)
        if args.seed is not None:
            spec = spec.with_seed(args.seed)
        generator = TraceGenerator(spec)
        return (generator.build_cluster(), generator.generate_history(),
                generator.generate())
    # Treat --trace as a CSV file.
    from repro.cluster import Cluster
    from repro.traces.io import read_trace_csv, split_history
    jobs = read_trace_csv(args.trace, seed=args.seed or 0,
                          max_jobs=args.jobs)
    history, evaluation = split_history(jobs)
    peak = max((j.gpu_num for j in evaluation), default=1)
    vcs = sorted({j.vc for j in evaluation})
    demand = sum(j.duration * j.gpu_num for j in evaluation)
    span = max(1.0, evaluation[-1].submit_time) if evaluation else 1.0
    nodes_per_vc = max(peak // 8 + 1, int(demand / span / 0.5 / 8 /
                                          max(1, len(vcs))) + 1)
    cluster = Cluster({vc: nodes_per_vc for vc in vcs})
    return cluster, history, evaluation


def _summary_row(name: str, result: SimulationResult,
                 elapsed: float) -> List:
    summary = result.summary()
    return [
        name,
        summary["avg_jct_hrs"],
        summary["avg_queue_hrs"],
        summary["p999_queue_hrs"],
        summary["gpu_busy"],
        summary["profiler_finish_rate"],
        user_fairness(result) if result.records else 0.0,
        elapsed,
    ]


_HEADERS = ["scheduler", "avg JCT (h)", "avg queue (h)", "p99.9 queue (h)",
            "GPU busy", "profiler finish", "user fairness", "sim time (s)"]


def _run_traced(args, out_dir: str, *observers: Observer):
    """Run one traced simulation and write its ``events.jsonl`` and
    ``timeline.json`` to ``out_dir`` (the one writer of both).

    Returns ``(simulator, result, elapsed)``; ``observers`` join the run
    next to the tracer.  The JSONL sink is flushed/closed in a
    ``finally`` block so a simulation that raises mid-run still leaves
    a readable (partial) event log behind for post-mortem analysis.
    """
    os.makedirs(out_dir, exist_ok=True)
    cluster, history, jobs = _load(args)
    print(f"{len(jobs)} jobs on {cluster.n_gpus} GPUs "
          f"({len(cluster.vcs)} VCs) under {args.scheduler} [traced]")
    started = time.perf_counter()
    events_path = os.path.join(out_dir, "events.jsonl")
    tracer = RingBufferTracer(sink=events_path)
    try:
        simulator = Simulator(cluster, jobs,
                              make_scheduler(args.scheduler, history),
                              faults=_fault_spec(args),
                              observers=_observers(args, tracer, *observers))
        result = simulator.run()
        _print_sanitizer_summary(simulator)
    except BaseException:
        print(f"simulation aborted; partial event log kept at {events_path}",
              file=sys.stderr)
        raise
    finally:
        tracer.close()
    elapsed = time.perf_counter() - started
    if tracer.n_dropped:
        print(f"warning: ring buffer overflowed; {tracer.n_dropped} "
              "oldest events dropped (the timeline shows a suffix of the "
              f"run; {events_path} has the full log)", file=sys.stderr)
    timeline_path = os.path.join(out_dir, "timeline.json")
    write_chrome_trace(timeline_path, tracer.events)
    for path in (events_path, timeline_path):
        print(f"wrote {path}")
    return simulator, result, elapsed


def _print_sanitizer_summary(simulator: Simulator) -> None:
    sanitizer = getattr(simulator, "sanitizer", None)
    if sanitizer is not None:
        print(sanitizer.summary())


def _print_fault_summary(result: SimulationResult) -> None:
    stats = result.faults
    if stats is None:
        return
    censored = (f" ({stats.censored_repairs} repair(s) still in flight)"
                if stats.censored_repairs else "")
    print(f"faults: {stats.node_failures} node failures, "
          f"{stats.job_crashes} job crashes, {stats.restarts} restarts, "
          f"{stats.jobs_failed} permanent failures | "
          f"goodput {stats.goodput:.1%}, "
          f"lost {stats.lost_gpu_hours:.1f} GPU-h, "
          f"MTTR {stats.mttr / 60.0:.1f} min{censored}")


def cmd_simulate(args) -> int:
    if args.out:
        _, result, elapsed = _run_traced(args, args.out)
    else:
        cluster, history, jobs = _load(args)
        print(f"{len(jobs)} jobs on {cluster.n_gpus} GPUs "
              f"({len(cluster.vcs)} VCs) under {args.scheduler}")
        started = time.perf_counter()
        simulator = Simulator(cluster, jobs,
                              make_scheduler(args.scheduler, history),
                              faults=_fault_spec(args),
                              observers=_observers(args))
        result = simulator.run()
        elapsed = time.perf_counter() - started
        _print_sanitizer_summary(simulator)
    print(ascii_table(_HEADERS, [_summary_row(args.scheduler, result,
                                              elapsed)]))
    _print_fault_summary(result)
    if args.export:
        with open(args.export, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["job_id", "user", "vc", "gpu_num", "duration",
                             "jct", "queue_delay", "preemptions",
                             "finished_in_profiler"])
            for record in result.records:
                writer.writerow([
                    record.job_id, record.user, record.vc, record.gpu_num,
                    f"{record.duration:.1f}", f"{record.jct:.1f}",
                    f"{record.queue_delay:.1f}", record.preemptions,
                    int(record.finished_in_profiler),
                ])
        print(f"wrote {len(result.records)} records to {args.export}")
    return 0


def cmd_compare(args) -> int:
    names = [n.strip() for n in args.schedulers.split(",") if n.strip()]
    for name in names:
        if name not in SCHEDULER_CHOICES:
            logger.error("unknown scheduler %r", name)
            return 2
    rows = []
    for name in names:
        cluster, history, jobs = _load(args)
        started = time.perf_counter()
        # A fresh spec per scheduler: every run replays the identical
        # seeded fault timeline, keeping the comparison apples-to-apples.
        result = Simulator(cluster, jobs,
                           make_scheduler(name, history),
                           faults=_fault_spec(args),
                           observers=_observers(args)).run()
        rows.append(_summary_row(name, result,
                                 time.perf_counter() - started))
        logger.info("%s: done in %.1fs", name,
                    time.perf_counter() - started)
    print(ascii_table(_HEADERS, rows, title="Scheduler comparison"))
    return 0


def cmd_models(args) -> int:
    from repro.core import (
        PackingAnalyzeModel,
        ThroughputPredictModel,
        WorkloadEstimateModel,
    )
    from repro.workloads import InterferenceModel

    _, history, _ = _load(args)
    packing = PackingAnalyzeModel().fit(InterferenceModel())
    print("Packing Analyze Model (Figure 6):")
    print(packing.explain_text())
    print(ascii_table(["feature", "Gini importance"],
                      packing.feature_importances(), precision=3))

    throughput = ThroughputPredictModel().fit_events(
        [j.submit_time for j in history])
    print("\nThroughput Predict Model importances (Figure 7a):")
    print(ascii_table(["feature", "avg |score|"],
                      throughput.explain_global().top_features(8),
                      precision=3))

    estimator = WorkloadEstimateModel().fit(history)
    job = history[len(history) // 2]
    local = estimator.explain_local(job)
    print(f"\nWorkload Estimate Model local explanation for {job.name!r} "
          "(Figure 7c):")
    print(ascii_table(["feature", "value", "score"],
                      local.sorted_by_magnitude(), precision=3))
    return 0


def cmd_packing(args) -> int:
    import numpy as np

    from repro.core import PackingAnalyzeModel
    from repro.workloads import InterferenceModel, get_profile, \
        measure_all_pairs

    interference = InterferenceModel()
    measurements = measure_all_pairs(interference)
    model = PackingAnalyzeModel().fit(interference)
    packable = [m for m in measurements
                if model.sharing_score(get_profile(m.config_a))
                + model.sharing_score(get_profile(m.config_b)) <= 2]
    rejected = [m for m in measurements if m not in packable]
    good = sum(1 for m in packable if m.average_speed >= args.threshold)
    print(ascii_table(
        ["decision", "pairs", "mean speed"],
        [["packable (GSS <= 2)", len(packable),
          float(np.mean([m.average_speed for m in packable]))],
         ["rejected (GSS > 2)", len(rejected),
          float(np.mean([m.average_speed for m in rejected]))]],
        title="Indolent Packing decisions (Figure 5)"))
    print(f"interference-free rate: {good / max(1, len(packable)):.1%} "
          f"(threshold {args.threshold})")
    return 0


def cmd_report(args) -> int:
    from repro.obs import SeriesCollector
    from repro.obs.audit import DecisionAudit
    from repro.obs.lineage import LineageCollector
    from repro.obs.report import build_report, write_report

    profiler = SimProfiler()
    series = SeriesCollector(interval=args.series_interval)
    lineage = LineageCollector()
    audit = DecisionAudit(attribution=True)
    simulator, result, _ = _run_traced(args, args.out, profiler, series,
                                       lineage, audit)
    _print_fault_summary(result)
    passes = profiler.pass_summary()
    print(f"scheduler passes: {int(passes['count'])}, latency "
          f"p50 {1e3 * passes['p50']:.3f} ms, "
          f"p95 {1e3 * passes['p95']:.3f} ms, "
          f"max {1e3 * passes['max']:.3f} ms")
    if not (audit.records or audit.refits):
        audit = None  # the scheduler emits no decisions
    document = build_report(result, scheduler=args.scheduler,
                            trace=args.trace, jobs=len(simulator.jobs),
                            seed=args.seed, profiler=profiler,
                            series=series, audit=audit, lineage=lineage)
    html_path, json_path = write_report(document, args.out)
    if audit is not None:
        decisions, with_attr = audit.attribution_coverage()
        if decisions:
            print(f"attribution coverage: {with_attr}/{decisions} "
                  f"({with_attr / decisions:.1%}) main-cluster "
                  "placements")
    for path in (html_path, json_path):
        print(f"wrote {path}")
    return 0


def _nearest_ids(target: int, known, n: int = 3) -> List[int]:
    """The n known job ids nearest ``target`` by digit edit distance.

    Ties break on numeric distance then on the id itself, so the
    suggestion list is deterministic for a given index.
    """
    ids = sorted(set(known))
    distances = levenshtein_distance_matrix(
        [str(target)], [str(jid) for jid in ids])[0].tolist()
    ranked = sorted(zip(distances, ids),
                    key=lambda pair: (pair[0], abs(pair[1] - target),
                                      pair[1]))
    return [jid for _, jid in ranked[:n]]


def _suggest_ids(target: int, known) -> str:
    """``"; did you mean 17, 71 or 107?"`` (empty when nothing known)."""
    nearest = _nearest_ids(target, known)
    if not nearest:
        return ""
    listed = ", ".join(str(jid) for jid in nearest[:-1])
    tail = (f"{listed} or {nearest[-1]}" if listed
            else str(nearest[-1]))
    return f"; did you mean {tail}?"


def _parse_what_if(specs) -> dict:
    """``FEATURE=VALUE`` strings -> override dict; ValueError on junk."""
    overrides = {}
    for spec in specs:
        name, eq, raw = spec.partition("=")
        if not eq or not name.strip():
            raise ValueError(f"expected FEATURE=VALUE, got {spec!r}")
        try:
            overrides[name.strip()] = float(raw)
        except ValueError:
            raise ValueError(
                f"non-numeric value in {spec!r}") from None
    return overrides


def cmd_why(args) -> int:
    import json as _json

    from repro.obs.audit import DecisionAudit
    from repro.obs.lineage import (
        LineageCollector,
        critical_path,
        decompose,
        lineage_from_trace,
    )

    try:
        overrides = _parse_what_if(args.what_if or [])
    except ValueError as exc:
        print(f"error: bad --what-if: {exc}", file=sys.stderr)
        return 2
    if os.path.isfile(args.trace) and args.trace.endswith(".jsonl"):
        # Offline: rebuild the causal DAG and the audit from an exported
        # event log.
        if overrides:
            print("error: --what-if needs the frozen models of a live "
                  "run; it cannot read an events.jsonl", file=sys.stderr)
            return 2
        from repro.obs.tracer import events_from_dicts, read_jsonl
        records = read_jsonl(args.trace)
        collector = lineage_from_trace(events_from_dicts(records))
        audit = DecisionAudit.from_dicts(records)
        source = args.trace
    else:
        cluster, history, jobs = _load(args)
        if args.format != "json":  # keep JSON stdout machine-parseable
            print(f"{len(jobs)} jobs on {cluster.n_gpus} GPUs "
                  f"({len(cluster.vcs)} VCs) under {args.scheduler} "
                  "[lineage]")
        collector = LineageCollector()
        audit = DecisionAudit(attribution=True)
        Simulator(cluster, jobs, make_scheduler(args.scheduler, history),
                  faults=_fault_spec(args),
                  observers=_observers(args, collector, audit)).run()
        source = f"{args.scheduler} × {args.trace}"
    try:
        decomposition = decompose(collector, args.job_id)
    except KeyError:
        hint = _suggest_ids(args.job_id, collector.job_ids())
        print(f"error: no lineage recorded for job {args.job_id}{hint}",
              file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    chain = critical_path(collector, args.job_id)
    decisions = audit.for_job(args.job_id)
    counterfactual = None
    if overrides:
        try:
            counterfactual = audit.counterfactual(args.job_id, **overrides)
        except (KeyError, ValueError) as exc:
            message = exc.args[0] if exc.args else exc
            print(f"error: counterfactual failed: {message}",
                  file=sys.stderr)
            return 2

    if args.format == "json":
        document = {
            "source": source,
            "decomposition": decomposition.as_dict(),
            "critical_path": [e.as_dict() for e in chain],
            "decisions": [d.to_dict() for d in decisions],
            "counterfactual": (counterfactual.to_dict()
                               if counterfactual is not None else None),
        }
        print(_json.dumps(document, indent=2, sort_keys=True))
        return 0

    jct = decomposition.jct
    print(f"job {args.job_id} ({decomposition.outcome}) — "
          f"JCT {jct:,.1f} s  [submit t={decomposition.submit_time:,.1f}, "
          f"end t={decomposition.end_time:,.1f}; {source}]")
    rows = [[name, seconds, (seconds / jct if jct > 0 else 0.0)]
            for name, seconds in decomposition.components().items()]
    rows.append(["total", decomposition.total(),
                 1.0 if jct > 0 else 0.0])
    print(ascii_table(["component", "seconds", "share"], rows))
    if abs(decomposition.residual) > 0:
        print(f"(fsum residual {decomposition.residual:.3e} folded into "
              "the largest component)")
    if decomposition.blockers:
        blamed = sorted(decomposition.blockers.items(),
                        key=lambda kv: (-kv[1], kv[0]))
        listed = ", ".join(f"job {jid} (+{seconds:,.1f} s)"
                           for jid, seconds in blamed)
        print(f"blocked by: {listed}")
        if decomposition.unattributed_wait > 1e-9:
            print(f"  plus {decomposition.unattributed_wait:,.1f} s of "
                  "main-queue wait with no nameable blocker")
    elif decomposition.pending_main > 1e-9:
        print(f"main-queue wait {decomposition.pending_main:,.1f} s "
              "had no nameable blocker (idle capacity / policy wait)")
    else:
        print("never waited in the main queue")
    if args.path > 0 and chain:
        shown = chain[-args.path:]
        print(f"critical path (last {len(shown)} of {len(chain)} "
              "events):")
        for event in shown:
            who = "" if event.job_id is None else f" job={event.job_id}"
            route = collector.route_of(event)
            via = f" routed={route}" if route else ""
            print(f"  t={event.time:>12,.1f}  {event.kind}{who}{via}")
    if decisions:
        print(f"placement decisions ({len(decisions)}):")
        for decision in decisions:
            print(f"  {decision.explain()}")
    else:
        print(f"no placement decisions recorded for job {args.job_id}")
    if counterfactual is not None:
        print(counterfactual.render())
    return 0


def cmd_serve(args) -> int:
    from repro.serve import ServeConfig, ServeDaemon
    from repro.serve.config import ConfigMismatchError
    from repro.serve.recovery import RecoveryError

    # With no config flag at all this is a restart (or a default-config
    # genesis): pass None and let the daemon use the stored config, so
    # `repro serve --state-dir DIR` alone always reboots an existing
    # store instead of tripping the config-compatibility check.
    requested = (args.trace, args.scheduler, args.jobs, args.seed,
                 args.faults, args.batch, args.events_per_tick)
    if all(value is None for value in requested):
        config = None
    else:
        config = ServeConfig(trace=(args.trace or "venus").lower(),
                             scheduler=args.scheduler or "lucid",
                             jobs=args.jobs,
                             seed=args.seed, faults=args.faults,
                             batch=8 if args.batch is None else args.batch,
                             events_per_tick=(64 if args.events_per_tick
                                              is None
                                              else args.events_per_tick))
    daemon = ServeDaemon(args.state_dir, config,
                         poll_interval=args.poll_interval,
                         snapshot_every=args.snapshot_every,
                         http_port=args.http_port,
                         inbox_capacity=args.inbox_capacity,
                         durable=not args.no_fsync,
                         exit_when_idle=args.exit_when_idle,
                         telemetry=not args.no_telemetry,
                         telemetry_refresh=args.telemetry_refresh)
    try:
        report = daemon.start()
    except ConfigMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecoveryError as exc:
        print(f"error: recovery failed: {exc}", file=sys.stderr)
        return 1
    print(report.describe())
    if daemon.http is not None:
        host, port = daemon.http.address
        surfaces = "POST /submit, GET /status /metrics /healthz"
        if daemon.live is not None:
            surfaces += " /dashboard"
        print(f"http frontend on http://{host}:{port} ({surfaces})")
    daemon.install_signal_handlers()
    ticks = daemon.run_forever()
    print(f"drained cleanly after {ticks} tick(s) this boot "
          f"(service tick {daemon.core.tick})")
    return 0


def cmd_serve_status(args) -> int:
    """Scrape a live daemon's /metrics + /healthz; one-screen summary.

    Exit codes: 0 healthy, 1 reachable-but-unhealthy (stale heartbeat
    or degraded core), 2 unreachable.
    """
    import json
    import urllib.error
    import urllib.request

    base = args.url.rstrip("/")

    def scrape(path):
        request = urllib.request.Request(
            base + path, headers={"Accept": "application/json"})
        try:
            with urllib.request.urlopen(request,
                                        timeout=args.timeout) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    try:
        _, metrics = scrape("/metrics")
        health_code, health = scrape("/healthz")
        _, status = scrape("/status")
    except (OSError, ValueError) as exc:
        print(f"error: cannot scrape {base}: {exc}", file=sys.stderr)
        return 2

    healthy = health_code == 200 and bool(health.get("ok"))
    if args.format == "json":
        print(json.dumps({"healthy": healthy, "health": health,
                          "metrics": metrics,
                          "recovery": status.get("recovery")},
                         indent=2, sort_keys=True))
        return 0 if healthy else 1

    verdict = "healthy" if healthy else (
        "DEGRADED" if health.get("degraded") else "STALE")
    print(f"serve @ {base}: {verdict}")
    print(f"  recovery         {status.get('recovery')}")
    rows = (
        ("service tick", metrics.get("ticks")),
        ("ticks this boot", metrics.get("ticks_this_boot")),
        ("sim clock", f"{metrics.get('sim_now', 0.0):,.0f} s"),
        ("events processed", f"{metrics.get('events_processed', 0):,}"),
        ("jobs", f"{metrics.get('jobs_finished', 0)} finished / "
                 f"{metrics.get('jobs_total', 0)} admitted"),
        ("inbox pending", metrics.get("inbox_pending")),
        ("snapshots", f"{metrics.get('snapshots')} "
                      f"(newest at tick "
                      f"{metrics.get('last_snapshot_tick')}, "
                      f"age {metrics.get('snapshot_age_ticks')} "
                      f"tick(s))"),
        ("WAL", f"{metrics.get('wal_segments')} segment(s), "
                f"{metrics.get('wal_bytes', 0):,} bytes"),
        ("store", f"{metrics.get('store_bytes', 0):,} bytes"),
        ("heartbeat age", f"{health.get('heartbeat_age_s')} s "
                          f"(budget {health.get('heartbeat_budget_s')} "
                          f"s, stale={health.get('stale')})"),
        ("degraded", health.get("degraded") or False),
        ("telemetry", metrics.get("telemetry")),
    )
    for label, value in rows:
        print(f"  {label:<16} {value}")
    if metrics.get("telemetry"):
        print(f"  dashboard        {base}/dashboard")
    return 0 if healthy else 1


def cmd_serve_chaos(args) -> int:
    from repro.serve import ServeConfig
    from repro.serve.chaos import chaos_run

    config = ServeConfig(trace=args.trace.lower(),
                         scheduler=args.scheduler, jobs=args.jobs,
                         seed=args.seed, faults=args.faults,
                         batch=args.batch,
                         events_per_tick=args.events_per_tick)
    result = chaos_run(args.workdir, config, points=args.points,
                       chaos_seed=args.chaos_seed,
                       timeout=args.timeout, progress=print)
    print(result.describe())
    return 0 if result.ok else 1


def cmd_lint(args) -> int:
    from repro.checks import (
        find_package_dir,
        format_json,
        format_sarif,
        format_text,
        lint_paths,
        lint_project,
    )

    findings = []
    plain = []
    for path in args.paths:
        package_dir = find_package_dir(path)
        if package_dir is None:
            plain.append(path)
        else:
            findings.extend(lint_project(package_dir))
    findings.extend(lint_paths(plain))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))

    if args.format == "sarif":
        print(format_sarif(findings, os.getcwd()))
    elif args.format == "json":
        print(format_json(findings))
    else:
        print(format_text(findings))
    return 1 if findings else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(args.log_level, fmt=args.log_format)
    handlers = {
        "simulate": cmd_simulate,
        "compare": cmd_compare,
        "models": cmd_models,
        "packing": cmd_packing,
        "lint": cmd_lint,
        "report": cmd_report,
        "why": cmd_why,
        "serve": cmd_serve,
        "serve-status": cmd_serve_status,
        "serve-chaos": cmd_serve_chaos,
    }
    # User-input errors exit with code 2 and a one-line message instead of
    # a traceback: missing files, unparsable traces, bad --faults specs.
    from repro.faults import FaultSpecError
    from repro.traces.io import TraceParseError
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe early (``repro why ... | head -1``).
        # Point stdout at devnull so the interpreter's exit flush does
        # not raise again, and exit non-zero without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except FileNotFoundError as exc:
        missing = getattr(exc, "filename", None) or exc
        print(f"error: file not found: {missing}", file=sys.stderr)
        return 2
    except FaultSpecError as exc:
        print(f"error: invalid --faults spec: {exc}", file=sys.stderr)
        return 2
    except TraceParseError as exc:
        print(f"error: invalid trace: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
