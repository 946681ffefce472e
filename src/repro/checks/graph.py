"""Whole-program project index for the graph rule packs (RPR1xx).

The per-file linter (:mod:`repro.checks.lint`) sees one module at a
time, so it cannot check the invariants that now matter most — layering
conformance, replay-safe mutation routing, hot-path reachability.  This
module parses every ``.py`` file under one package root *once* into a
:class:`ProjectIndex`:

* the **module import graph**, with every edge classified as
  module-level, lazy (inside a function body) or ``TYPE_CHECKING``-only;
* a **per-module symbol table** (functions, classes, imported names);
* an approximate **intra-project call graph** with attribute-call
  resolution through class definitions: ``self.x`` attributes assigned
  from ``ClassName(...)`` constructors resolve precisely, everything
  else falls back to class-hierarchy-analysis by method name.

The index is purely syntactic (``ast`` only — nothing is imported or
executed) and deterministic: all traversals sort, so two builds over
the same files produce identical graphs regardless of file discovery
order.  Rule packs in :mod:`repro.checks.rules` consume the index.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Mapping, Optional, Sequence, Set,
                    Tuple, Union)

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ImportEdge",
    "ModuleInfo",
    "ProjectIndex",
    "build_index",
]

FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Pseudo-function name holding a module's top-level statements.
MODULE_SCOPE = "<module>"

#: Cap on name-based (CHA) fallback resolution: a bare name defined in
#: more places than this is too ambiguous to produce useful edges.
_FALLBACK_CAP = 8

#: Names never resolved by bare-name fallback: builtin functions and
#: common container/str methods.  A project method that happens to share
#: one of these names is still resolved through the precise paths
#: (self./attribute-type/module lookup), just not by name alone.
_GENERIC_NAMES = frozenset({
    "add", "append", "extend", "insert", "remove", "discard", "pop",
    "popitem", "clear", "update", "setdefault", "get", "keys", "values",
    "items", "copy", "sort", "reverse", "index", "count", "split",
    "rsplit", "join", "strip", "lstrip", "rstrip", "startswith",
    "endswith", "format", "encode", "decode", "read", "write", "close",
    "open", "flush", "readline", "readlines", "seek",
    "digest", "hexdigest",
    "max", "min", "sum", "len", "sorted", "abs", "round", "repr", "str",
    "int", "float", "bool", "list", "dict", "set", "tuple", "frozenset",
    "print", "next", "iter", "enumerate", "zip", "range", "map",
    "filter", "any", "all", "isinstance", "issubclass", "getattr",
    "setattr", "hasattr", "super", "type", "id", "hash", "vars",
})


@dataclass(frozen=True)
class ImportEdge:
    """One project-internal import statement."""

    src: str                  #: importing module (dotted)
    dest: str                 #: imported module (dotted, project-internal)
    name: Optional[str]       #: ``from dest import name`` (None otherwise)
    line: int
    col: int
    lazy: bool                #: inside a function/method body
    type_checking: bool       #: under ``if TYPE_CHECKING:``


@dataclass(frozen=True)
class CallSite:
    """One call (or callable reference) found in a function body."""

    caller: str               #: qualified name of the enclosing function
    name: str                 #: bare callee name (``predict``)
    owner: Optional[str]      #: dotted owner text (``self.binder``) or None
    kind: str                 #: ``"call"`` or ``"ref"`` (callable argument)
    line: int
    col: int
    in_loop: bool             #: lexically inside a loop / comprehension


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qname: str                #: ``repro.sim.engine.Simulator.step_batch``
    module: str
    name: str                 #: bare name
    cls: Optional[str]        #: enclosing class bare name, or None
    line: int
    col: int
    node: FuncNode


@dataclass
class ClassInfo:
    """One class definition with constructor-inferred attribute types."""

    qname: str
    module: str
    name: str
    line: int
    bases: List[str] = field(default_factory=list)
    #: ``self.attr`` -> bare class name, from ``self.attr = ClassName(...)``.
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: method bare name -> function qname.
    methods: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """Everything the index knows about one module."""

    name: str                 #: dotted module name (``repro.sim.engine``)
    path: str                 #: filesystem path
    source: str
    tree: Optional[ast.Module]
    #: (line, col, message) when the module failed to parse.
    error: Optional[Tuple[int, int, str]] = None
    is_package: bool = False  #: the module is an ``__init__.py``
    imports: List[ImportEdge] = field(default_factory=list)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    calls: List[CallSite] = field(default_factory=list)
    #: local name -> (module, original name or None when the name *is*
    #: a module); covers ``from m import f as g`` and ``from p import m``.
    imported_names: Dict[str, Tuple[str, Optional[str]]] = \
        field(default_factory=dict)


def _is_type_checking_test(test: ast.expr) -> bool:
    """``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:`` guard?"""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _owner_text(node: ast.expr) -> Optional[str]:
    """Dotted text of a Name/Attribute chain, or None when dynamic."""
    parts: List[str] = []
    cur: ast.expr = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None


class _ModuleVisitor(ast.NodeVisitor):
    """Single pass collecting imports, defs, classes and call sites."""

    def __init__(self, info: ModuleInfo, package: str) -> None:
        self.info = info
        self.package = package
        self._func_stack: List[str] = []        # qname segments
        self._class_stack: List[ClassInfo] = []
        self._loop_depth = 0
        self._type_checking = 0

    # -- scope helpers -------------------------------------------------
    def _caller(self) -> str:
        if self._func_stack:
            return self._func_stack[-1]
        return f"{self.info.name}.{MODULE_SCOPE}"

    def _lazy(self) -> bool:
        return bool(self._func_stack)

    # -- imports -------------------------------------------------------
    def _add_edge(self, dest: str, name: Optional[str],
                  node: ast.stmt) -> None:
        if dest != self.package and not dest.startswith(self.package + "."):
            return
        self.info.imports.append(ImportEdge(
            src=self.info.name, dest=dest, name=name,
            line=node.lineno, col=node.col_offset,
            lazy=self._lazy(), type_checking=self._type_checking > 0))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._add_edge(alias.name, None, node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = self._resolve_from(node)
        if base is None:
            return
        for alias in node.names:
            self._add_edge(base, alias.name, node)
            bound = alias.asname or alias.name
            if base == self.package or base.startswith(self.package + "."):
                self.info.imported_names[bound] = (base, alias.name)

    def _resolve_from(self, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        # Relative import: resolve against this module's package path.
        parts = self.info.name.split(".")
        if not self.info.is_package:
            parts = parts[:-1]
        drop = node.level - 1
        if drop > 0:
            if drop >= len(parts):
                return None
            parts = parts[:len(parts) - drop]
        if node.module:
            parts = parts + node.module.split(".")
        return ".".join(parts) if parts else None

    # -- TYPE_CHECKING guards ------------------------------------------
    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking_test(node.test):
            self._type_checking += 1
            for stmt in node.body:
                self.visit(stmt)
            self._type_checking -= 1
            for stmt in node.orelse:
                self.visit(stmt)
            return
        self.visit(node.test)
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    # -- definitions ---------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        prefix = (self._class_stack[-1].qname if self._class_stack
                  else self.info.name)
        cls = ClassInfo(qname=f"{prefix}.{node.name}",
                        module=self.info.name, name=node.name,
                        line=node.lineno)
        for base in node.bases:
            text = _owner_text(base)
            if text is not None:
                cls.bases.append(text.split(".")[-1])
        self.info.classes[cls.qname] = cls
        self._class_stack.append(cls)
        for stmt in node.body:
            self.visit(stmt)
        self._class_stack.pop()

    def _visit_func(self, node: FuncNode) -> None:
        if self._func_stack:
            prefix = self._func_stack[-1]
        elif self._class_stack:
            prefix = self._class_stack[-1].qname
        else:
            prefix = self.info.name
        qname = f"{prefix}.{node.name}"
        cls = self._class_stack[-1] if (self._class_stack
                                        and not self._func_stack) else None
        self.info.functions[qname] = FunctionInfo(
            qname=qname, module=self.info.name, name=node.name,
            cls=cls.name if cls is not None else None,
            line=node.lineno, col=node.col_offset, node=node)
        if cls is not None:
            cls.methods[node.name] = qname
        self._func_stack.append(qname)
        outer_loop = self._loop_depth
        self._loop_depth = 0
        for stmt in node.body:
            self.visit(stmt)
        self._loop_depth = outer_loop
        self._func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_func(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_func(node)

    # -- attribute type inference --------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        if self._class_stack and isinstance(node.value, ast.Call):
            ctor = _owner_text(node.value.func)
            if ctor is not None:
                cls_name = ctor.split(".")[-1]
                for target in node.targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        self._class_stack[-1].attr_types[target.attr] = \
                            cls_name
        self.generic_visit(node)

    # -- loops / comprehensions ----------------------------------------
    def _visit_loop(self, node: Union[ast.For, ast.AsyncFor,
                                      ast.While]) -> None:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self.visit(node.iter)       # evaluated once, outside the loop
            self.visit(node.target)
        else:
            self.visit(node.test)
        self._loop_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        self._loop_depth -= 1
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_For(self, node: ast.For) -> None:
        self._visit_loop(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._visit_loop(node)

    def visit_While(self, node: ast.While) -> None:
        self._visit_loop(node)

    def _visit_comp(self, node: Union[ast.ListComp, ast.SetComp,
                                      ast.DictComp,
                                      ast.GeneratorExp]) -> None:
        # A comprehension body runs once per element: treat as a loop.
        # The FIRST generator's iterable is evaluated exactly once,
        # outside that loop (like a For statement's iter); everything
        # else — element, conditions, nested generators — runs per item.
        self.visit(node.generators[0].iter)
        self._loop_depth += 1
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
        self._loop_depth -= 1

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comp(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comp(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comp(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comp(node)

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name: Optional[str] = None
        owner: Optional[str] = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
            owner = _owner_text(func.value) or "?"
        if name is not None:
            self.info.calls.append(CallSite(
                caller=self._caller(), name=name, owner=owner,
                kind="call", line=node.lineno, col=node.col_offset,
                in_loop=self._loop_depth > 0))
        # Callable references passed as arguments (callbacks): resolve
        # lazily — unresolvable names simply produce no edges.
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Name):
                self.info.calls.append(CallSite(
                    caller=self._caller(), name=arg.id, owner=None,
                    kind="ref", line=arg.lineno, col=arg.col_offset,
                    in_loop=self._loop_depth > 0))
            elif isinstance(arg, ast.Attribute):
                ref_owner = _owner_text(arg.value)
                self.info.calls.append(CallSite(
                    caller=self._caller(), name=arg.attr,
                    owner=ref_owner or "?", kind="ref",
                    line=arg.lineno, col=arg.col_offset,
                    in_loop=self._loop_depth > 0))
        self.generic_visit(node)


class ProjectIndex:
    """Import graph + symbol tables + approximate call graph."""

    def __init__(self, package: str, root: str,
                 modules: Dict[str, ModuleInfo]) -> None:
        self.package = package
        self.root = root
        self.modules = modules
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self._by_name: Dict[str, List[str]] = {}
        self._class_by_name: Dict[str, List[str]] = {}
        self._subclasses: Dict[str, List[str]] = {}
        for mod_name in sorted(modules):
            module = modules[mod_name]
            for qname in sorted(module.functions):
                self.functions[qname] = module.functions[qname]
                bare = module.functions[qname].name
                self._by_name.setdefault(bare, []).append(qname)
            for qname in sorted(module.classes):
                self.classes[qname] = module.classes[qname]
                bare = module.classes[qname].name
                self._class_by_name.setdefault(bare, []).append(qname)
        for qname in sorted(self.classes):
            for base in self.classes[qname].bases:
                for base_qname in self._class_by_name.get(base, []):
                    self._subclasses.setdefault(base_qname, []).append(qname)
        self._edges: Optional[Dict[str, List[Tuple[str, CallSite]]]] = None

    # -- module-level structure ----------------------------------------
    def relname(self, module: str) -> str:
        """Module name without the package prefix (``sim.engine``)."""
        if module == self.package:
            return ""
        prefix = self.package + "."
        return module[len(prefix):] if module.startswith(prefix) else module

    def package_of(self, module: str) -> str:
        """First-level package of a module; ``""`` for top-level ones."""
        rel = self.relname(module)
        if "." not in rel:
            mod = self.modules.get(module)
            if mod is not None and mod.is_package and rel:
                return rel
            return ""
        return rel.split(".", 1)[0]

    def import_graph(self, include_lazy: bool = False,
                     include_type_checking: bool = False,
                     ) -> Dict[str, Set[str]]:
        """Module -> imported project modules, filtered by edge class."""
        graph: Dict[str, Set[str]] = {name: set() for name in self.modules}
        for name in sorted(self.modules):
            for edge in self.modules[name].imports:
                if edge.type_checking and not include_type_checking:
                    continue
                if edge.lazy and not include_lazy:
                    continue
                dest = self._edge_dest_module(edge)
                if dest != name and dest in self.modules:
                    graph[name].add(dest)
        return graph

    def _edge_dest_module(self, edge: ImportEdge) -> str:
        """Effective destination module (``from p import m`` -> ``p.m``)."""
        if edge.name is not None:
            candidate = f"{edge.dest}.{edge.name}"
            if candidate in self.modules:
                return candidate
        return edge.dest

    def find_cycles(self) -> List[List[str]]:
        """Strongly connected components (size > 1) of the module-level
        import graph, each sorted, the list sorted by first member."""
        graph = self.import_graph()
        order: List[str] = []
        seen: Set[str] = set()

        def _dfs1(start: str) -> None:
            stack: List[Tuple[str, List[str]]] = [
                (start, sorted(graph.get(start, set())))]
            seen.add(start)
            while stack:
                node, nexts = stack[-1]
                if nexts:
                    nxt = nexts.pop(0)
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append((nxt, sorted(graph.get(nxt, set()))))
                else:
                    order.append(node)
                    stack.pop()

        for node in sorted(graph):
            if node not in seen:
                _dfs1(node)
        reverse: Dict[str, Set[str]] = {name: set() for name in graph}
        for src in graph:
            for dst in graph[src]:
                reverse[dst].add(src)
        assigned: Set[str] = set()
        components: List[List[str]] = []
        for node in reversed(order):
            if node in assigned:
                continue
            component: List[str] = []
            stack2: List[str] = [node]
            assigned.add(node)
            while stack2:
                cur = stack2.pop()
                component.append(cur)
                for prev in sorted(reverse.get(cur, set())):
                    if prev not in assigned:
                        assigned.add(prev)
                        stack2.append(prev)
            if len(component) > 1:
                components.append(sorted(component))
        components.sort()
        return components

    # -- call graph ----------------------------------------------------
    def _resolve_through_init(self, module: str, name: str,
                              depth: int = 0) -> List[str]:
        """Find function ``module.name``, following package ``__init__``
        re-exports up to a few hops."""
        qname = f"{module}.{name}"
        if qname in self.functions:
            return [qname]
        cls_qname = qname
        if cls_qname in self.classes:
            init = self.classes[cls_qname].methods.get("__init__")
            return [init] if init is not None else []
        mod = self.modules.get(module)
        if mod is not None and depth < 3:
            target = mod.imported_names.get(name)
            if target is not None and target[1] is not None:
                return self._resolve_through_init(target[0], target[1],
                                                  depth + 1)
        return []

    def _method_candidates(self, cls_qname: str, name: str) -> List[str]:
        """Methods named ``name`` on a class, its project ancestors and
        its project descendants (CHA through the class hierarchy)."""
        found: Set[str] = set()
        # Up the hierarchy to the first definition.
        queue = [cls_qname]
        visited: Set[str] = set()
        while queue:
            cur = queue.pop(0)
            if cur in visited or cur not in self.classes:
                continue
            visited.add(cur)
            cls = self.classes[cur]
            if name in cls.methods:
                found.add(cls.methods[name])
            else:
                for base in cls.bases:
                    queue.extend(self._class_by_name.get(base, []))
        # Down the hierarchy: overriding subclasses.
        queue = [cls_qname]
        visited = set()
        while queue:
            cur = queue.pop(0)
            if cur in visited:
                continue
            visited.add(cur)
            cls2 = self.classes.get(cur)
            if cls2 is not None and name in cls2.methods:
                found.add(cls2.methods[name])
            queue.extend(self._subclasses.get(cur, []))
        return sorted(found)

    def _fallback_by_name(self, name: str) -> List[str]:
        if name in _GENERIC_NAMES:
            return []
        candidates = self._by_name.get(name, [])
        if not candidates or len(candidates) > _FALLBACK_CAP:
            return []
        return list(candidates)

    def resolve_call(self, site: CallSite) -> List[str]:
        """Possible callee qnames for one call site (sorted).

        Name-based fallback only applies to real ``call`` sites: a bare
        name passed as an argument (kind ``ref``) resolves precisely or
        not at all — otherwise every local variable that happens to
        share a method's name would wire a bogus call edge.
        """
        fallback = (self._fallback_by_name if site.kind == "call"
                    else lambda _name: [])
        if site.caller.endswith("." + MODULE_SCOPE):
            module_name: Optional[str] = site.caller.rsplit(".", 1)[0]
        elif site.caller in self.functions:
            module_name = self.functions[site.caller].module
        else:
            module_name = None
        if module_name is None or module_name not in self.modules:
            # Module scope of a module we know by prefix.
            parts = site.caller.split(".")
            while parts and ".".join(parts) not in self.modules:
                parts.pop()
            module_name = ".".join(parts) if parts else None
        if module_name is None:
            return fallback(site.name)
        module = self.modules[module_name]
        caller_cls = self._caller_class(site.caller, module)
        if site.owner is None:
            return self._resolve_name(module, site.name, fallback)
        if site.owner in ("self", "cls") and caller_cls is not None:
            found = self._method_candidates(caller_cls.qname, site.name)
            return found if found else fallback(site.name)
        if site.owner not in ("?", None):
            head, _, rest = site.owner.partition(".")
            if head in ("self", "cls") and caller_cls is not None \
                    and rest and "." not in rest:
                attr_cls = self._attr_type(caller_cls, rest)
                if attr_cls is not None:
                    found = self._method_candidates(attr_cls, site.name)
                    if found:
                        return found
            if not rest:
                resolved = self._resolve_owner_head(module, head, site.name)
                if resolved is not None:
                    return resolved
        return fallback(site.name)

    def _attr_type(self, cls: ClassInfo, attr: str) -> Optional[str]:
        bare = cls.attr_types.get(attr)
        if bare is None:
            return None
        candidates = self._class_by_name.get(bare, [])
        return candidates[0] if candidates else None

    def _caller_class(self, caller: str,
                      module: ModuleInfo) -> Optional[ClassInfo]:
        info = self.functions.get(caller)
        if info is None or info.cls is None:
            return None
        cls_qname = caller.rsplit(".", 1)[0]
        return self.classes.get(cls_qname)

    def _resolve_name(self, module: ModuleInfo, name: str,
                      fallback: Callable[[str], List[str]]) -> List[str]:
        local = f"{module.name}.{name}"
        if local in self.functions:
            return [local]
        if local in self.classes:
            init = self.classes[local].methods.get("__init__")
            return [init] if init is not None else []
        target = module.imported_names.get(name)
        if target is not None and target[1] is not None:
            found = self._resolve_through_init(target[0], target[1])
            if found:
                return found
        return fallback(name)

    def _resolve_owner_head(self, module: ModuleInfo, head: str,
                            name: str) -> Optional[List[str]]:
        """Resolve ``head.name()`` where head is an imported module,
        an imported class, or a local class."""
        local_cls = f"{module.name}.{head}"
        if local_cls in self.classes:
            return self._method_candidates(local_cls, name)
        target = module.imported_names.get(head)
        if target is None:
            return None
        base, orig = target
        if orig is None:
            return self._resolve_through_init(base, name) or []
        candidate_mod = f"{base}.{orig}"
        if candidate_mod in self.modules:
            return self._resolve_through_init(candidate_mod, name) or []
        cls_qname = f"{base}.{orig}"
        if cls_qname in self.classes:
            return self._method_candidates(cls_qname, name)
        return None

    def call_edges(self) -> Dict[str, List[Tuple[str, CallSite]]]:
        """caller qname -> sorted ``(callee qname, site)`` pairs."""
        if self._edges is not None:
            return self._edges
        edges: Dict[str, List[Tuple[str, CallSite]]] = {}
        for mod_name in sorted(self.modules):
            for site in self.modules[mod_name].calls:
                for callee in self.resolve_call(site):
                    edges.setdefault(site.caller, []).append((callee, site))
        for caller in edges:
            edges[caller].sort(key=lambda pair: (pair[0], pair[1].line,
                                                 pair[1].col))
        self._edges = edges
        return edges

    def reachable(self, roots: Sequence[str]) -> Set[str]:
        """Function qnames reachable from ``roots`` via the call graph."""
        edges = self.call_edges()
        seen: Set[str] = set()
        queue = sorted(set(roots))
        while queue:
            cur = queue.pop(0)
            if cur in seen:
                continue
            seen.add(cur)
            for callee, _site in edges.get(cur, []):
                if callee not in seen:
                    queue.append(callee)
        return seen

    def loop_reachable(self, roots: Sequence[str]) -> Dict[str, bool]:
        """Reachability with loop-carry: ``qname -> True`` when some hot
        call chain to it passes through a call site inside a loop."""
        edges = self.call_edges()
        state: Dict[str, bool] = {}
        queue: List[Tuple[str, bool]] = [(r, False) for r in sorted(set(roots))]
        while queue:
            cur, loop = queue.pop(0)
            prev = state.get(cur)
            if prev is not None and (prev or not loop):
                continue
            state[cur] = loop if prev is None else (prev or loop)
            for callee, site in edges.get(cur, []):
                queue.append((callee, loop or site.in_loop))
        return state


def _module_name(package: str, package_dir: str, path: str,
                 ) -> Tuple[str, bool]:
    rel = os.path.relpath(path, package_dir)
    parts = rel.replace(os.sep, "/").split("/")
    assert parts[-1].endswith(".py")
    is_package = parts[-1] == "__init__.py"
    if is_package:
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][:-3]
    return ".".join([package] + [p for p in parts if p]), is_package


def _discover(package_dir: str) -> List[str]:
    files: List[str] = []
    for root, dirs, names in os.walk(package_dir):
        dirs[:] = sorted(d for d in dirs
                         if d != "__pycache__" and not d.startswith("."))
        files.extend(os.path.join(root, n) for n in sorted(names)
                     if n.endswith(".py"))
    return files


def build_index(package_dir: str,
                files: Optional[Sequence[str]] = None,
                sources: Optional[Mapping[str, str]] = None,
                ) -> ProjectIndex:
    """Parse every module under ``package_dir`` into a project index.

    ``package_dir`` is the package root itself (e.g. ``src/repro``); the
    package name is its basename.  ``files`` overrides discovery (any
    order — the index is order-independent); ``sources`` maps paths to
    source text for callers that already read the files.  Files that do
    not parse still get a :class:`ModuleInfo` carrying ``error`` so
    rules can report a parse-failure finding instead of crashing.
    """
    package_dir = os.path.normpath(package_dir)
    package = os.path.basename(os.path.abspath(package_dir))
    if files is None:
        files = _discover(package_dir)
    modules: Dict[str, ModuleInfo] = {}
    for path in sorted(set(files)):
        name, is_package = _module_name(package, package_dir, path)
        source = ""
        error: Optional[Tuple[int, int, str]] = None
        tree: Optional[ast.Module] = None
        try:
            if sources is not None and path in sources:
                source = sources[path]
            else:
                with open(path, "r", encoding="utf-8") as handle:
                    source = handle.read()
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            error = (exc.lineno or 1, exc.offset or 0,
                     str(exc.msg or "syntax error"))
        except (OSError, ValueError, UnicodeDecodeError) as exc:
            error = (1, 0, str(exc))
        info = ModuleInfo(name=name, path=path, source=source, tree=tree,
                          error=error, is_package=is_package)
        if tree is not None:
            _ModuleVisitor(info, package).visit(tree)
            info.imports.sort(key=lambda e: (e.line, e.col, e.dest))
            info.calls.sort(key=lambda c: (c.line, c.col, c.name))
        modules[name] = info
    return ProjectIndex(package=package, root=package_dir, modules=modules)
