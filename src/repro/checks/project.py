"""Whole-program lint: file rules + graph rules, and SARIF output.

``repro lint PATH...`` runs this mode on every path that names a
top-level package (:func:`find_package_dir`) and the per-file rules on
the rest.  One project run:

1. builds the whole-program :class:`~repro.checks.graph.ProjectIndex`
   over ``src/repro`` (every module parsed once, parse failures become
   RPR000 findings instead of crashes);
2. runs the per-file rules (RPR000–RPR010) over every indexed module
   and the graph rule packs (RPR100+) over the index, with one shared
   :class:`~repro.checks.lint.SuppressionTracker` so ``# repro: noqa``
   comments and allowlist entries suppress uniformly;
3. reports suppressions that fired nothing as RPR130, so the
   suppression surface can only shrink.

Output formats: text, JSON, and SARIF 2.1.0 (for GitHub code
scanning).  Any finding fails the run.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from repro.checks.graph import ProjectIndex, build_index
from repro.checks.lint import (
    RPR002_ALLOWLIST,
    RULES,
    Finding,
    SuppressionTracker,
    apply_noqa,
    lint_source,
    python_files,
)
from repro.checks.rules import GRAPH_RULES, RuleContext, run_graph_rules

__all__ = [
    "ALL_RULES",
    "find_package_dir",
    "format_sarif",
    "lint_project",
]

#: Every rule the project mode can emit: file rules + graph rules.
ALL_RULES: Dict[str, Tuple[str, str]] = {**RULES, **GRAPH_RULES}

_SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                 "master/Schemata/sarif-schema-2.1.0.json")


def _repo_root_for(package_dir: str) -> str:
    """Repo root guess: ``<root>/src/<pkg>`` -> ``<root>``, else parent."""
    parent = os.path.dirname(os.path.abspath(package_dir))
    if os.path.basename(parent) == "src":
        return os.path.dirname(parent)
    return parent


def _is_package(path: str) -> bool:
    return os.path.isfile(os.path.join(path, "__init__.py"))


def find_package_dir(path: str) -> Optional[str]:
    """The top-level package ``path`` names, or ``None``.

    That is ``path`` itself when it is a package whose parent is not
    one, or the single such package inside ``path`` when ``path`` holds
    no other Python file (the ``src`` layout), so that no file goes
    unlinted.  A subpackage is not a root: indexed on its own it would
    mis-name its modules for the layering rules, so it gets only the
    per-file rules.
    """
    if _is_package(path):
        parent = os.path.dirname(os.path.abspath(path))
        return None if _is_package(parent) else path
    if not os.path.isdir(path):
        return None
    packages = [os.path.join(path, entry)
                for entry in sorted(os.listdir(path))
                if _is_package(os.path.join(path, entry))]
    if len(packages) != 1:
        return None
    inside = os.path.join(packages[0], "")
    loose = [name for name in python_files([path])
             if not name.startswith(inside)]
    return None if loose else packages[0]


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
    for suffix in sorted(RPR002_ALLOWLIST):
        target = _resolve_suffix(index, suffix)
        if target is None:
            continue  # module outside this scan; cannot judge
        if suffix not in tracker.allowlist_used:
            findings.append(Finding(
                code="RPR130", path=target, line=1, col=0,
                message=f"RPR002_ALLOWLIST entry {suffix!r} suppresses "
                        "nothing", hint=hint))
    return findings


def _rel(path: str, repo_root: str) -> str:
    abspath = os.path.abspath(path)
    root = os.path.abspath(repo_root)
    if abspath.startswith(root + os.sep):
        path = abspath[len(root) + 1:]
    return path.replace(os.sep, "/")


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
