"""Graph rule packs (RPR1xx) over the whole-program project index.

Three packs, each consuming the :class:`~repro.checks.graph.ProjectIndex`
built once per ``repro lint --project`` run:

* :mod:`repro.checks.rules.architecture` — RPR100..RPR104: import
  cycles, layering conformance against the DAG declared in
  ``pyproject.toml`` (``[tool.repro.layers]``), cross-package private
  imports, umbrella imports, entry-point imports.
* :mod:`repro.checks.rules.replay` — RPR110, RPR112, RPR113: replay
  safety of the serve subsystem (SimCore mutations outside
  ``apply_tick_record``, wall-clock/RNG and unordered iteration
  reachable from digest-computing code).
* :mod:`repro.checks.rules.hotpath` — RPR120..RPR123: allocation and
  per-item-model-call patterns inside functions that emit the
  profiler's hot span and counter names (``hotpath.HOT_NAMES``).

Suppression semantics match the file rules: a ``# repro: noqa`` (or
``# repro: noqa RPR121``) comment on the flagged line suppresses the
finding; the project runner tracks which suppressions fire so unused
ones surface as RPR130.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.checks.graph import ProjectIndex
from repro.checks.lint import Finding, SuppressionTracker

__all__ = [
    "GRAPH_RULES",
    "RuleContext",
    "run_graph_rules",
]

#: code -> (one-line summary, fix hint) for the graph rule packs.
GRAPH_RULES: Dict[str, Tuple[str, str]] = {
    "RPR100": ("import cycle between project modules",
               "break the cycle: move the shared names into a lower "
               "layer, or make one edge lazy (function-scoped import)"),
    "RPR101": ("module-level import violates the declared layering DAG",
               "depend only on the packages [tool.repro.layers.allowed] "
               "grants this package, or move the code down a layer"),
    "RPR102": ("cross-package import of a private (_-prefixed) name",
               "import the public API of the other package; promote the "
               "name (drop the underscore) if it is genuinely shared"),
    "RPR103": ("umbrella import of the top-level package from a "
               "subpackage",
               "import the defining module directly (e.g. "
               "repro.sim.engine) — umbrella imports hide the real "
               "dependency and can recurse through __init__"),
    "RPR104": ("entry-point module imported from library code",
               "cli/__main__ are leaves of the import DAG; move the "
               "shared helper into a library package instead"),
    "RPR110": ("SimCore state mutated outside the apply_tick_record path",
               "route every SimCore mutation through apply_tick_record "
               "so WAL replay reproduces it; reads are fine"),
    "RPR112": ("wall-clock/RNG call reachable from digest/replay code",
               "digest-feeding state must be a pure function of the "
               "journaled inputs; hoist the read out of the replay "
               "path or allowlist instrumentation in RPR002_ALLOWLIST"),
    "RPR113": ("unordered iteration reachable from digest/replay code",
               "wrap the iterable in sorted(...); iteration order feeds "
               "the digest via state mutation order"),
    "RPR120": ("deepcopy inside a profiler-hot function",
               "deepcopy on the hot path dominates the profile; share "
               "immutable state or copy only the mutated fields"),
    "RPR121": ("sorted() allocation on a profiler-hot loop path",
               "hoist the sort out of the loop, maintain a sorted "
               "index, or use an order-free aggregate (any/min/max)"),
    "RPR122": ("per-iteration comprehension allocation in a hot loop",
               "hoist the allocation out of the loop or fold the "
               "computation into the existing pass"),
    "RPR123": ("per-item model predict call inside a hot loop",
               "batch the predictions (predict over a vector) outside "
               "the loop instead of one model call per item"),
    "RPR130": ("unused suppression",
               "delete the stale # repro: noqa comment or allowlist "
               "entry; the suppression surface must ratchet down"),
}


@dataclass
class RuleContext:
    """Everything a graph rule pack needs besides the index."""

    index: ProjectIndex
    #: Repo root used to locate pyproject.toml and to relativize
    #: finding paths.
    repo_root: str
    pyproject_path: Optional[str] = None
    #: When set, packs record allowlist suppressions they apply here so
    #: RPR130 can tell live entries from dead ones.
    tracker: Optional["SuppressionTracker"] = None


def run_graph_rules(ctx: RuleContext) -> List[Finding]:
    """Run every graph rule pack; findings sorted, not noqa-filtered
    (the project runner applies suppression uniformly)."""
    from repro.checks.rules.architecture import check_architecture
    from repro.checks.rules.hotpath import check_hotpath
    from repro.checks.rules.replay import check_replay

    findings: List[Finding] = []
    findings.extend(check_architecture(ctx))
    findings.extend(check_replay(ctx))
    findings.extend(check_hotpath(ctx))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings
