"""Reproducibility tooling: determinism linter + whole-program analyzer.

Every number this reproduction reports rests on the simulator being
bit-deterministic under a seed.  This package defends that guarantee with
three tools:

* :mod:`repro.checks.lint` — an AST-based determinism linter with
  repo-specific per-file rules (RPR000..RPR010): no global RNG calls, no
  wall-clock reads in simulation paths, no unordered ``set``/dict-view
  iteration in decision code, no float ``==`` on simulated time, and
  more.  Run it with ``python -m repro lint src tests``.
* :mod:`repro.checks.graph` + :mod:`repro.checks.rules` — a
  whole-program analyzer: one pass builds the module import graph,
  per-module symbol tables and an approximate call graph, then three
  rule packs run over it — architecture (RPR100..RPR104: cycles,
  layering DAG conformance, private cross-package access), replay
  safety (RPR110..RPR113: state mutation outside the WAL apply path,
  uncovered event kinds, wall-clock/RNG reachability into digest code)
  and hot path (RPR120..RPR123: allocation patterns in profiler-hot
  functions).  Run it with ``python -m repro lint --project``;
  :mod:`repro.checks.project` adds SARIF output and baseline
  ratcheting (RPR130 flags suppressions that no longer fire).
* :mod:`repro.checks.sanitizer` — a runtime :class:`SimSanitizer` that,
  when enabled via ``Simulator(sanitize=True)`` / ``--sanitize``, asserts
  cluster/job state invariants at every event dispatch (GPU allocation
  conservation, monotone event clock, legal job state-machine transitions,
  queue consistency, fault-flag coherence).
"""

from repro.checks.graph import ProjectIndex, build_index
from repro.checks.lint import (
    RPR002_ALLOWLIST,
    RPR009_ALLOWLIST,
    RULES,
    Finding,
    SuppressionTracker,
    apply_noqa,
    format_json,
    format_text,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.checks.project import (
    ALL_RULES,
    baseline_delta,
    format_sarif,
    lint_project,
    load_baseline,
    write_baseline,
)
from repro.checks.rules import GRAPH_RULES, RuleContext, run_graph_rules
from repro.checks.sanitizer import SanitizerError, SimSanitizer

__all__ = [
    "ALL_RULES",
    "GRAPH_RULES",
    "RPR002_ALLOWLIST",
    "RPR009_ALLOWLIST",
    "RULES",
    "Finding",
    "ProjectIndex",
    "RuleContext",
    "SanitizerError",
    "SimSanitizer",
    "SuppressionTracker",
    "apply_noqa",
    "baseline_delta",
    "build_index",
    "format_json",
    "format_sarif",
    "format_text",
    "lint_file",
    "lint_paths",
    "lint_project",
    "lint_source",
    "load_baseline",
    "run_graph_rules",
    "write_baseline",
]
