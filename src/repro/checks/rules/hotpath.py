"""Hot-path pack: RPR120–RPR123 inside profiler-hot functions.

The hot set is seeded from :data:`HOT_NAMES`, the profiler span and
counter names of Lucid's per-pass work (``lucid.control``,
``speed_refreshes``, …).  Each name is mapped to the functions that
emit it — call sites of ``profile_span("…")`` / ``profile_count("…")``
(or the profiler's own ``span``/``count`` methods) with a matching
string literal — and the set is closed over the call graph.  The set
lives in source, so the verdict on a tree depends on no data file.

Propagation tracks *loop carry*: a function is "loop-hot" when some
hot call chain to it passes through a call site inside a loop.  The
loop-carry is what makes a per-call ``sorted()`` in a helper equivalent
to a sorted-in-loop at the caller.  Rules:

* **RPR120** — ``copy.deepcopy`` anywhere in a hot function.
* **RPR121** — ``sorted()`` lexically inside a loop of a hot function,
  or anywhere in a loop-hot function.
* **RPR122** — list/dict/set comprehension lexically inside a loop of a
  hot function (a fresh allocation per iteration).
* **RPR123** — per-item model calls (``.predict`` / ``.safe_predict``)
  inside a loop or comprehension of a hot function.

This pack feeds ROADMAP item 1 (the Lucid 10–20× hot-path gap): its
findings are exactly the allocation patterns the profiler blames.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, List, Optional, Set

from repro.checks.graph import FuncNode, ProjectIndex
from repro.checks.lint import Finding
from repro.checks.rules import GRAPH_RULES, RuleContext

__all__ = ["HOT_NAMES", "check_hotpath"]

#: Profiler span and counter names whose emitting functions seed the
#: hot set.  Adding a name widens the pack, so it changes lint output.
HOT_NAMES: FrozenSet[str] = frozenset({
    "lucid.control", "lucid.orchestrate", "lucid.profiler",
    "estimator_predictions", "speed_refreshes"})

#: Call names that register a profiler span/counter with a literal.
_PROFILE_CALLS = frozenset({"profile_span", "profile_count", "span",
                            "count"})

#: Model-prediction method names (RPR123).
_PREDICT_METHODS = frozenset({"predict", "safe_predict"})


def _finding(code: str, path: str, line: int, col: int,
             message: str) -> Finding:
    return Finding(code=code, path=path, line=line, col=col,
                   message=message, hint=GRAPH_RULES[code][1])


def _hot_roots(index: ProjectIndex) -> List[str]:
    """Functions containing a profile_span/count call whose literal
    is one of :data:`HOT_NAMES`."""
    roots: Set[str] = set()
    for mod_name in sorted(index.modules):
        module = index.modules[mod_name]
        for qname in sorted(module.functions):
            node = module.functions[qname].node
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                name = None
                if isinstance(func, ast.Name):
                    name = func.id
                elif isinstance(func, ast.Attribute):
                    name = func.attr
                if name not in _PROFILE_CALLS or not sub.args:
                    continue
                first = sub.args[0]
                if isinstance(first, ast.Constant) \
                        and isinstance(first.value, str) \
                        and first.value in HOT_NAMES:
                    roots.add(qname)
                    break
    return sorted(roots)


def check_hotpath(ctx: RuleContext) -> List[Finding]:
    index = ctx.index
    roots = _hot_roots(index)
    if not roots:
        return []
    hot = index.loop_reachable(roots)
    findings: List[Finding] = []
    for qname in sorted(hot):
        info = index.functions.get(qname)
        if info is None:
            continue
        module = index.modules[info.module]
        findings.extend(_scan_function(
            module.path, qname, info.node, loop_hot=hot[qname]))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


class _HotScanner(ast.NodeVisitor):
    """Lexical scan of one hot function for RPR120..RPR123 patterns."""

    def __init__(self, path: str, qname: str, loop_hot: bool) -> None:
        self.path = path
        self.short = qname.rsplit(".", 1)[-1]
        self.loop_hot = loop_hot
        self.loop_depth = 0
        self.findings: List[Finding] = []

    def _where(self) -> str:
        if self.loop_depth > 0:
            return f"inside a loop of hot function {self.short}()"
        return (f"in {self.short}(), which hot callers invoke "
                "per loop iteration")

    # -- loops ---------------------------------------------------------
    def _visit_loop_stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self.visit(node.iter)
            self.visit(node.target)
            body = node.body
            orelse = node.orelse
        else:
            assert isinstance(node, ast.While)
            self.visit(node.test)
            body = node.body
            orelse = node.orelse
        self.loop_depth += 1
        for stmt in body:
            self.visit(stmt)
        self.loop_depth -= 1
        for stmt in orelse:
            self.visit(stmt)

    def visit_For(self, node: ast.For) -> None:
        self._visit_loop_stmt(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._visit_loop_stmt(node)

    def visit_While(self, node: ast.While) -> None:
        self._visit_loop_stmt(node)

    # Nested defs run on their own profile; skip them here (they are
    # scanned as their own functions when hot).
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    # Error paths are cold by definition: an allocation inside a raise
    # expression or an except handler never runs on the steady-state
    # hot path.
    def visit_Raise(self, node: ast.Raise) -> None:
        return

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        return

    # -- comprehensions (RPR122 + loop context for RPR123) -------------
    def _visit_comp(self, node: ast.expr, kind: str) -> None:
        if self.loop_depth > 0 and kind != "generator":
            self.findings.append(_finding(
                "RPR122", self.path, node.lineno, node.col_offset,
                f"{kind} comprehension allocates a fresh container "
                f"every iteration {self._where()}"))
        # The first generator's iterable is evaluated once, outside the
        # comprehension's implicit loop.
        assert isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                 ast.GeneratorExp))
        self.visit(node.generators[0].iter)
        self.loop_depth += 1
        for pos, gen in enumerate(node.generators):
            if pos > 0:
                self.visit(gen.iter)
            self.visit(gen.target)
            for cond in gen.ifs:
                self.visit(cond)
        if isinstance(node, ast.DictComp):
            self.visit(node.key)
            self.visit(node.value)
        else:
            self.visit(node.elt)
        self.loop_depth -= 1

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comp(node, "list")

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comp(node, "set")

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comp(node, "dict")

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comp(node, "generator")

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name: Optional[str] = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name == "deepcopy":
            self.findings.append(_finding(
                "RPR120", self.path, node.lineno, node.col_offset,
                f"deepcopy in hot function {self.short}() — a full "
                "object-graph copy on the profiled hot path"))
        elif name == "sorted" and isinstance(func, ast.Name):
            if self.loop_depth > 0 or self.loop_hot:
                self.findings.append(_finding(
                    "RPR121", self.path, node.lineno, node.col_offset,
                    f"sorted() allocates and sorts {self._where()}"))
        elif name in _PREDICT_METHODS and isinstance(func, ast.Attribute):
            if self.loop_depth > 0:
                self.findings.append(_finding(
                    "RPR123", self.path, node.lineno, node.col_offset,
                    f"per-item model .{name}() call {self._where()}; "
                    "batch the predictions instead"))
        self.generic_visit(node)


def _scan_function(path: str, qname: str, node: FuncNode,
                   loop_hot: bool) -> List[Finding]:
    scanner = _HotScanner(path, qname, loop_hot)
    for stmt in node.body:
        scanner.visit(stmt)
    return scanner.findings
