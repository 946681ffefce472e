"""Reproducibility tooling: determinism linter + whole-program analyzer.

Every number this reproduction reports rests on the simulator being
bit-deterministic under a seed.  This package defends that guarantee with
three tools:

* :mod:`repro.checks.lint` — an AST-based determinism linter with
  repo-specific per-file rules (RPR000..RPR010): no global RNG calls, no
  wall-clock reads in simulation paths, no unordered ``set``/dict-view
  iteration in decision code, no float ``==`` on simulated time, and
  more.
* :mod:`repro.checks.graph` + :mod:`repro.checks.rules` — a
  whole-program analyzer: one pass builds the module import graph,
  per-module symbol tables and an approximate call graph, then three
  rule packs run over it — architecture (RPR100..RPR104: cycles,
  layering DAG conformance, private cross-package access), replay
  safety (RPR110..RPR113: state mutation outside the WAL apply path,
  uncovered event kinds, wall-clock/RNG reachability into digest code)
  and hot path (RPR120..RPR123: allocation patterns in profiler-hot
  functions).  :mod:`repro.checks.project` runs it together with the
  file rules, flags suppressions that no longer fire (RPR130) and
  writes SARIF.
* :mod:`repro.checks.sanitizer` — a runtime :class:`SimSanitizer` that,
  when enabled via ``Simulator(sanitize=True)`` / ``--sanitize``, asserts
  cluster/job state invariants at every event dispatch (GPU allocation
  conservation, monotone event clock, legal job state-machine transitions,
  queue consistency, fault-flag coherence) and checks every scheduling
  pass against a lockstep reference run without pass memos.

``python -m repro lint src tests`` runs both linters: whole-program
mode on each path that names a top-level package (``src``), the
per-file rules on the rest (``tests``).  Any finding fails it.
"""

from repro.checks.graph import ProjectIndex, build_index
from repro.checks.lint import (
    RPR002_ALLOWLIST,
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
    find_package_dir,
    format_sarif,
    lint_project,
)
from repro.checks.rules import GRAPH_RULES, RuleContext, run_graph_rules
from repro.checks.sanitizer import SanitizerError, SimSanitizer

__all__ = [
    "ALL_RULES",
    "GRAPH_RULES",
    "RPR002_ALLOWLIST",
    "RULES",
    "Finding",
    "ProjectIndex",
    "RuleContext",
    "SanitizerError",
    "SimSanitizer",
    "SuppressionTracker",
    "apply_noqa",
    "build_index",
    "find_package_dir",
    "format_json",
    "format_sarif",
    "format_text",
    "lint_file",
    "lint_paths",
    "lint_project",
    "lint_source",
    "run_graph_rules",
]
