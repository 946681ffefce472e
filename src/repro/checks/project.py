"""``repro lint --project``: file rules + graph rules, SARIF, ratchet.

One project run:

1. builds the whole-program :class:`~repro.checks.graph.ProjectIndex`
   over ``src/repro`` (every module parsed once, parse failures become
   RPR000 findings instead of crashes);
2. runs the per-file rules (RPR000–RPR010) over every indexed module
   and the graph rule packs (RPR100+) over the index, with one shared
   :class:`~repro.checks.lint.SuppressionTracker` so ``# repro: noqa``
   comments and allowlist entries suppress uniformly;
3. reports suppressions that fired nothing as RPR130 — the suppression
   surface ratchets down, not just up.

Output formats: text, JSON, and SARIF 2.1.0 (for GitHub code
scanning).  The committed findings baseline
(``benchmarks/lint_baseline.json``) supports ``--ratchet``: CI fails
only on findings *not* in the baseline, so pre-existing debt never
blocks an unrelated change while new debt always does.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from repro.checks.graph import ProjectIndex, build_index
from repro.checks.lint import (
    RPR002_ALLOWLIST,
    RPR009_ALLOWLIST,
    RULES,
    Finding,
    SuppressionTracker,
    apply_noqa,
    lint_source,
)
from repro.checks.rules import GRAPH_RULES, RuleContext, run_graph_rules

__all__ = [
    "ALL_RULES",
    "BASELINE_SCHEMA",
    "baseline_delta",
    "fingerprint",
    "format_sarif",
    "lint_project",
    "load_baseline",
    "write_baseline",
]

#: Every rule the project mode can emit: file rules + graph rules.
ALL_RULES: Dict[str, Tuple[str, str]] = {**RULES, **GRAPH_RULES}

BASELINE_SCHEMA = "repro-lint-baseline/v1"

_SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                 "master/Schemata/sarif-schema-2.1.0.json")


def _repo_root_for(package_dir: str) -> str:
    """Repo root guess: ``<root>/src/<pkg>`` -> ``<root>``, else parent."""
    parent = os.path.dirname(os.path.abspath(package_dir))
    if os.path.basename(parent) == "src":
        return os.path.dirname(parent)
    return parent


def find_package_dir(path: str) -> str:
    """Resolve a CLI path to the package root to index.

    ``path`` may be the package itself (has ``__init__.py``) or a
    directory holding exactly one package (the ``src`` layout).
    """
    if os.path.isfile(os.path.join(path, "__init__.py")):
        return path
    candidates = []
    try:
        entries = sorted(os.listdir(path))
    except OSError:
        raise FileNotFoundError(path)
    for entry in entries:
        full = os.path.join(path, entry)
        if os.path.isfile(os.path.join(full, "__init__.py")):
            candidates.append(full)
    if len(candidates) == 1:
        return candidates[0]
    raise FileNotFoundError(
        f"{path}: expected a package directory (or a src/ directory "
        f"holding exactly one package); found {len(candidates)}")


def lint_project(package_dir: str,
                 repo_root: Optional[str] = None,
                 tracker: Optional[SuppressionTracker] = None,
                 ) -> List[Finding]:
    """Run file + graph rules over one package tree; sorted findings."""
    if repo_root is None:
        repo_root = _repo_root_for(package_dir)
    if tracker is None:
        tracker = SuppressionTracker()
    index = build_index(package_dir)

    findings: List[Finding] = []
    for mod_name in sorted(index.modules,
                           key=lambda m: index.modules[m].path):
        module = index.modules[mod_name]
        if module.error is not None:
            line, col, message = module.error
            findings.append(Finding(
                code="RPR000", path=module.path, line=line, col=col,
                message=message, hint=RULES["RPR000"][1]))
            continue
        findings.extend(lint_source(module.source, module.path, tracker))

    pyproject = os.path.join(repo_root, "pyproject.toml")
    ctx = RuleContext(
        index=index, repo_root=repo_root,
        pyproject_path=pyproject if os.path.exists(pyproject) else None,
        tracker=tracker)
    graph_findings = run_graph_rules(ctx)
    findings.extend(_apply_noqa_by_module(graph_findings, index, tracker))
    findings.extend(_unused_suppressions(tracker, index))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def _apply_noqa_by_module(findings: List[Finding], index: ProjectIndex,
                          tracker: SuppressionTracker) -> List[Finding]:
    """Graph findings honor the same ``# repro: noqa`` comments."""
    by_path: Dict[str, List[Finding]] = {}
    for finding in findings:
        by_path.setdefault(finding.path, []).append(finding)
    sources = {m.path: m.source for m in index.modules.values()}
    kept: List[Finding] = []
    for path in sorted(by_path):
        source = sources.get(path)
        if source is None:
            kept.extend(by_path[path])
            continue
        kept.extend(apply_noqa(by_path[path], source, path, tracker))
    return kept


def _resolve_suffix(index: ProjectIndex, suffix: str) -> Optional[str]:
    """Path of the indexed module an allowlist key points at, if any."""
    for mod_name in sorted(index.modules):
        path = index.modules[mod_name].path.replace(os.sep, "/")
        if path == suffix or path.endswith("/" + suffix):
            return index.modules[mod_name].path
    return None


def _unused_suppressions(tracker: SuppressionTracker,
                         index: ProjectIndex) -> List[Finding]:
    """RPR130: suppressions that fired nothing in this run."""
    findings: List[Finding] = []
    hint = GRAPH_RULES["RPR130"][1]
    for (path, line) in sorted(tracker.noqa):
        if (path, line) in tracker.noqa_used:
            continue
        codes = tracker.noqa[(path, line)]
        what = "all rules" if codes is None else ", ".join(sorted(codes))
        findings.append(Finding(
            code="RPR130", path=path, line=line, col=0,
            message=f"'# repro: noqa' ({what}) suppresses nothing on "
                    "this line", hint=hint))
    allowlists: List[Tuple[str, Dict[str, object]]] = [
        ("RPR002_ALLOWLIST", dict(RPR002_ALLOWLIST)),
        ("RPR009_ALLOWLIST", dict(RPR009_ALLOWLIST)),
    ]
    for name, allowlist in allowlists:
        for suffix in sorted(allowlist):
            target = _resolve_suffix(index, suffix)
            if target is None:
                continue  # module outside this scan; cannot judge
            functions = allowlist[suffix]
            if functions is None:
                if (name, suffix, None) not in tracker.allowlist_used:
                    findings.append(Finding(
                        code="RPR130", path=target, line=1, col=0,
                        message=f"{name} entry {suffix!r} suppresses "
                                "nothing", hint=hint))
            elif isinstance(functions, frozenset):
                for fn in sorted(functions):
                    if (name, suffix, fn) not in tracker.allowlist_used:
                        findings.append(Finding(
                            code="RPR130", path=target, line=1, col=0,
                            message=f"{name} entry {suffix!r} function "
                                    f"{fn!r} suppresses nothing",
                            hint=hint))
    return findings


# ----------------------------------------------------------------------
# Baseline / ratchet
# ----------------------------------------------------------------------
def fingerprint(finding: Finding, repo_root: str) -> str:
    """Line-number-free identity of a finding, stable across edits."""
    return "|".join((finding.code, _rel(finding.path, repo_root),
                     finding.message))


def _rel(path: str, repo_root: str) -> str:
    abspath = os.path.abspath(path)
    root = os.path.abspath(repo_root)
    if abspath.startswith(root + os.sep):
        path = abspath[len(root) + 1:]
    return path.replace(os.sep, "/")


def load_baseline(path: str) -> Dict[str, int]:
    """Fingerprint -> allowed count; empty when the file is absent."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return {}
    raw = data.get("fingerprints", {}) if isinstance(data, dict) else {}
    if not isinstance(raw, dict):
        return {}
    return {str(k): int(v) for k, v in raw.items()
            if isinstance(v, int) and v > 0}


def write_baseline(path: str, findings: List[Finding],
                   repo_root: str) -> None:
    counts: Dict[str, int] = {}
    for finding in findings:
        key = fingerprint(finding, repo_root)
        counts[key] = counts.get(key, 0) + 1
    payload = {"schema": BASELINE_SCHEMA, "fingerprints": counts}
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def baseline_delta(findings: List[Finding], baseline: Dict[str, int],
                   repo_root: str) -> List[Finding]:
    """Findings beyond the baseline's per-fingerprint allowance."""
    groups: Dict[str, List[Finding]] = {}
    for finding in findings:
        groups.setdefault(fingerprint(finding, repo_root),
                          []).append(finding)
    fresh: List[Finding] = []
    for key in sorted(groups):
        allowed = baseline.get(key, 0)
        extra = groups[key][allowed:]
        fresh.extend(extra)
    fresh.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return fresh


# ----------------------------------------------------------------------
# SARIF 2.1.0
# ----------------------------------------------------------------------
def format_sarif(findings: List[Finding],
                 repo_root: Optional[str] = None) -> str:
    """SARIF 2.1.0 document for GitHub code scanning upload."""
    root = repo_root if repo_root is not None else os.getcwd()
    codes = sorted({f.code for f in findings})
    rules = []
    for code in codes:
        summary, hint = ALL_RULES.get(code, ("unknown rule", ""))
        rules.append({
            "id": code,
            "shortDescription": {"text": summary},
            "help": {"text": hint},
            "defaultConfiguration": {"level": "error"},
        })
    results = []
    for finding in findings:
        results.append({
            "ruleId": finding.code,
            "level": "error",
            "message": {"text": f"{finding.message} "
                                f"(hint: {finding.hint})"},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": _rel(finding.path, root),
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": max(1, finding.line),
                        "startColumn": max(1, finding.col + 1),
                    },
                },
            }],
        })
    document = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "informationUri":
                        "https://github.com/repro/repro#static-analysis",
                    "version": "1.0.0",
                    "rules": rules,
                },
            },
            "originalUriBaseIds": {
                "SRCROOT": {"uri": "file:///" + os.path.abspath(root)
                            .replace(os.sep, "/").lstrip("/") + "/"},
            },
            "results": results,
        }],
    }
    return json.dumps(document, indent=2, sort_keys=True)
