"""Architecture pack: RPR100–RPR104 over the module import graph.

The authoritative layering DAG lives in ``pyproject.toml``::

    [tool.repro.layers.allowed]
    sim = ["cluster", "obs", "workloads"]
    app = ["*"]                # top-level modules (cli, __main__)

    [tool.repro.layers.overrides]
    "checks.sanitizer" = ["cluster", "workloads"]

    [tool.repro.layers]
    forbidden = ["sim -> obs.report", "models -> sim"]

``allowed`` constrains *module-level* imports (lazy imports are the
sanctioned cycle-breaking escape hatch and are exempt); ``forbidden``
edges are denied at any laziness (module-level **and** lazy), which is
what gives "sim must never import serve" real teeth.  Top-level modules
(``repro/cli.py``…) form the pseudo-package ``app``.

Reading the TOML is stdlib-only: ``tomllib`` on Python 3.11+, a small
fallback parser (tables + string arrays, all this section needs) on
3.9/3.10.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.checks.graph import ImportEdge, ProjectIndex
from repro.checks.lint import Finding
from repro.checks.rules import GRAPH_RULES, RuleContext

__all__ = ["LayersConfig", "check_architecture", "load_layers"]

#: Pseudo-package for top-level modules of the project package.
APP_LAYER = "app"

#: Entry-point modules (RPR104): leaves of the import DAG.
_ENTRYPOINT_MODULES = frozenset({"cli", "__main__"})


@dataclass
class LayersConfig:
    """Parsed ``[tool.repro.layers]`` section."""

    #: package -> allowed imported packages ("*" = everything).
    allowed: Dict[str, List[str]] = field(default_factory=dict)
    #: module relname -> allowed packages (overrides the package rule).
    overrides: Dict[str, List[str]] = field(default_factory=dict)
    #: "src -> dest" patterns denied at any laziness.
    forbidden: List[Tuple[str, str]] = field(default_factory=list)


# ----------------------------------------------------------------------
# TOML loading (stdlib-only)
# ----------------------------------------------------------------------
_TABLE_RE = re.compile(r"^\[(?P<name>[^\]]+)\]\s*(?:#.*)?$")
_KEY_RE = re.compile(
    r"^(?P<key>\"[^\"]*\"|'[^']*'|[A-Za-z0-9_.-]+)\s*=\s*(?P<value>.*)$")
_STRING_RE = re.compile(r"\"([^\"]*)\"|'([^']*)'")


def _strip_comment(line: str) -> str:
    out: List[str] = []
    quote: Optional[str] = None
    for ch in line:
        if quote is None and ch == "#":
            break
        if ch in ("'", '"'):
            if quote is None:
                quote = ch
            elif quote == ch:
                quote = None
        out.append(ch)
    return "".join(out).rstrip()


def _mini_toml_tables(text: str) -> Dict[str, Dict[str, List[str]]]:
    """Tiny TOML subset: named tables holding string-array values.

    Handles exactly what ``[tool.repro.layers]`` uses — ``[table]``
    headers, quoted or bare keys, single- or multi-line arrays of
    strings — which keeps Python 3.9/3.10 (no ``tomllib``) working.
    """
    tables: Dict[str, Dict[str, List[str]]] = {}
    current: Optional[str] = None
    pending_key: Optional[str] = None
    pending_buf = ""
    for raw in text.splitlines():
        line = _strip_comment(raw).strip()
        if not line and pending_key is None:
            continue
        if pending_key is not None:
            pending_buf += " " + line
            if pending_buf.count("[") <= pending_buf.count("]"):
                value = [a or b for a, b in
                         _STRING_RE.findall(pending_buf)]
                if current is not None:
                    tables.setdefault(current, {})[pending_key] = value
                pending_key = None
                pending_buf = ""
            continue
        table_match = _TABLE_RE.match(line)
        if table_match is not None:
            current = table_match.group("name").strip()
            tables.setdefault(current, {})
            continue
        key_match = _KEY_RE.match(line)
        if key_match is None or current is None:
            continue
        key = key_match.group("key").strip("\"'")
        value_text = key_match.group("value").strip()
        if not value_text.startswith("["):
            continue  # only string arrays matter to the layers section
        if value_text.count("[") > value_text.count("]"):
            pending_key = key
            pending_buf = value_text
            continue
        tables.setdefault(current, {})[key] = \
            [a or b for a, b in _STRING_RE.findall(value_text)]
    return tables


def _layers_from_mapping(allowed: Dict[str, List[str]],
                         overrides: Dict[str, List[str]],
                         forbidden: List[str]) -> LayersConfig:
    config = LayersConfig(allowed=dict(allowed), overrides=dict(overrides))
    for entry in forbidden:
        parts = [p.strip() for p in entry.split("->")]
        if len(parts) == 2 and parts[0] and parts[1]:
            config.forbidden.append((parts[0], parts[1]))
    return config


def load_layers(pyproject_path: str) -> Optional[LayersConfig]:
    """Parse ``[tool.repro.layers]``; ``None`` when absent/unreadable."""
    try:
        with open(pyproject_path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError:
        return None
    allowed: Dict[str, List[str]] = {}
    overrides: Dict[str, List[str]] = {}
    forbidden: List[str] = []
    try:
        import tomllib
    except ModuleNotFoundError:
        tables = _mini_toml_tables(text)
        allowed = tables.get("tool.repro.layers.allowed", {})
        overrides = tables.get("tool.repro.layers.overrides", {})
        raw_forbidden = tables.get("tool.repro.layers", {})
        forbidden = raw_forbidden.get("forbidden", [])
    else:
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError:
            return None
        layers = data.get("tool", {}).get("repro", {}).get("layers", {})
        if not isinstance(layers, dict):
            return None
        raw_allowed = layers.get("allowed", {})
        raw_overrides = layers.get("overrides", {})
        if isinstance(raw_allowed, dict):
            allowed = {str(k): [str(x) for x in v]
                       for k, v in raw_allowed.items()
                       if isinstance(v, list)}
        if isinstance(raw_overrides, dict):
            overrides = {str(k): [str(x) for x in v]
                         for k, v in raw_overrides.items()
                         if isinstance(v, list)}
        raw = layers.get("forbidden", [])
        if isinstance(raw, list):
            forbidden = [str(x) for x in raw]
    if not allowed and not overrides and not forbidden:
        return None
    return _layers_from_mapping(allowed, overrides, forbidden)


# ----------------------------------------------------------------------
# The pack
# ----------------------------------------------------------------------
def _finding(code: str, path: str, line: int, col: int,
             message: str) -> Finding:
    return Finding(code=code, path=path, line=line, col=col,
                   message=message, hint=GRAPH_RULES[code][1])


def _layer_of(index: ProjectIndex, module: str) -> str:
    pkg = index.package_of(module)
    return pkg if pkg else APP_LAYER


def _matches(index: ProjectIndex, pattern: str, module: str) -> bool:
    """Does a forbidden-edge pattern match a module?

    Patterns are ``*``, a package name (``sim``), a dotted module
    relname (``obs.report``) or the pseudo-package ``app``.
    """
    if pattern == "*":
        return True
    if pattern == APP_LAYER:
        return _layer_of(index, module) == APP_LAYER
    rel = index.relname(module)
    return rel == pattern or rel.startswith(pattern + ".")


def check_architecture(ctx: RuleContext) -> List[Finding]:
    index = ctx.index
    findings: List[Finding] = []

    # RPR100: cycles in the module-level import graph.
    for cycle in index.find_cycles():
        head = index.modules[cycle[0]]
        chain = " -> ".join(index.relname(m) or m for m in cycle)
        findings.append(_finding(
            "RPR100", head.path, 1, 0,
            f"import cycle: {chain} (module-level imports only; break "
            "one edge or make it lazy)"))

    layers: Optional[LayersConfig] = None
    if ctx.pyproject_path is not None:
        layers = load_layers(ctx.pyproject_path)

    for mod_name in sorted(index.modules):
        module = index.modules[mod_name]
        src_layer = _layer_of(index, mod_name)
        src_rel = index.relname(mod_name)
        for edge in module.imports:
            if edge.type_checking:
                continue  # typing-only: no runtime dependency
            findings.extend(_check_edge(index, layers, module.path,
                                        src_layer, src_rel, edge))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def _check_edge(index: ProjectIndex, layers: Optional[LayersConfig],
                path: str, src_layer: str, src_rel: str,
                edge: ImportEdge) -> List[Finding]:
    findings: List[Finding] = []
    dest_module = index._edge_dest_module(edge)
    dest_rel = index.relname(dest_module)
    dest_layer = _layer_of(index, dest_module)

    # RPR103: umbrella import from inside a subpackage.
    if edge.dest == index.package and src_layer != APP_LAYER:
        what = (f"from {index.package} import {edge.name}"
                if edge.name is not None else f"import {index.package}")
        findings.append(_finding(
            "RPR103", path, edge.line, edge.col,
            f"{what!r} reaches through the top-level package from "
            f"{src_rel or edge.src}; import the defining module "
            "directly"))

    # RPR104: entry-point modules are import leaves.
    if dest_rel in _ENTRYPOINT_MODULES and src_rel not in \
            _ENTRYPOINT_MODULES:
        findings.append(_finding(
            "RPR104", path, edge.line, edge.col,
            f"{src_rel or edge.src} imports entry-point module "
            f"{dest_rel}; entry points import the library, never the "
            "reverse"))

    # RPR102: cross-package private-name import.
    private = None
    if edge.name is not None and edge.name.startswith("_") \
            and not edge.name.startswith("__"):
        private = edge.name
    elif dest_rel.rsplit(".", 1)[-1].startswith("_") \
            and not dest_rel.rsplit(".", 1)[-1].startswith("__"):
        private = dest_rel.rsplit(".", 1)[-1]
    if private is not None and src_layer != dest_layer:
        findings.append(_finding(
            "RPR102", path, edge.line, edge.col,
            f"{src_rel or edge.src} imports private name {private!r} "
            f"from package {dest_layer!r}; cross-package access must "
            "use the public API"))

    if layers is None:
        return findings

    # Forbidden edges: any laziness.
    for src_pat, dest_pat in layers.forbidden:
        if _matches(index, src_pat, edge.src) \
                and _matches(index, dest_pat, dest_module):
            findings.append(_finding(
                "RPR101", path, edge.line, edge.col,
                f"forbidden dependency: {src_rel or edge.src} -> "
                f"{dest_rel or dest_module} (denied by "
                f"'{src_pat} -> {dest_pat}' in [tool.repro.layers], "
                "even for lazy imports)"))
            break

    # Allowed DAG: module-level edges only; lazy imports are the
    # sanctioned escape hatch for deliberate cycles.
    if edge.lazy:
        return findings
    if dest_module == index.package:
        return findings  # umbrella import: RPR103's domain
    if src_layer == dest_layer:
        return findings
    granted: Optional[List[str]] = layers.overrides.get(src_rel)
    if granted is None:
        granted = layers.allowed.get(src_layer)
    if granted is None:
        return findings  # undeclared package: unconstrained
    if "*" in granted or dest_layer in granted:
        return findings
    findings.append(_finding(
        "RPR101", path, edge.line, edge.col,
        f"layering violation: {src_rel or edge.src} (package "
        f"{src_layer!r}) imports {dest_rel or dest_module} (package "
        f"{dest_layer!r}); allowed for {src_layer!r}: "
        f"{sorted(granted)}"))
    return findings
