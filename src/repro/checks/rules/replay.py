"""Replay-safety pack: RPR110, RPR112, RPR113 over the serve/digest graph.

The serve subsystem's recovery invariant (DESIGN.md): state is a pure
function of the journaled inputs, and ``apply_tick_record`` is the only
code path that mutates :class:`SimCore` from a tick record.  These
rules machine-check that invariant across module boundaries:

* **RPR110** — any function reachable from ``serve.daemon`` /
  ``serve.recovery`` that mutates SimCore state (attribute assignment,
  in-place container mutation, or a call to a mutating SimCore method)
  outside the ``apply_tick_record`` path.  Mutating methods are
  *derived* from the AST of ``SimCore`` and ``Simulator`` themselves,
  so new mutators are covered automatically.
* **RPR112** — wall-clock/RNG calls reachable from digest-computing
  code (``state_digest`` / ``SimCore.digest`` / ``apply_tick_record``)
  via the call graph — the cross-function extension of RPR001/RPR002.
  Modules already policed per-file (``SIM_PACKAGES``) and the
  ``RPR002_ALLOWLIST`` instrumentation exemptions are respected.
* **RPR113** — unordered iteration (RPR003 patterns) in functions
  reachable from the digest roots but living outside the per-file
  decision packages, where iteration order still feeds the digest
  through mutation order.

Each ``EventKind`` member's replay story is declared on the member
itself (:mod:`repro.sim.events`), whose constructor rejects a member
without one, so no rule here re-reads it.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.checks.graph import (
    MODULE_SCOPE,
    FuncNode,
    ModuleInfo,
    ProjectIndex,
)
from repro.checks.lint import (
    DECISION_PACKAGES,
    SIM_PACKAGES,
    _DATETIME_BANNED,
    _NP_RANDOM_ALLOWED,
    _SET_COMBINATORS,
    _TIME_BANNED,
    Finding,
    _rpr002_allowlisted,
)
from repro.checks.rules import GRAPH_RULES, RuleContext

__all__ = ["check_replay"]

#: Container methods that mutate their receiver in place.
_MUTATING_METHODS = frozenset({
    "add", "append", "extend", "insert", "remove", "discard", "pop",
    "popitem", "clear", "update", "setdefault", "push",
})

#: SimCore methods exempt from mutator classification: constructors
#: build fresh cores, and the snapshot serializers stash-and-restore
#: (``to_blob`` nulls the tracer around pickling, under ``finally``).
_CORE_CONSTRUCTORS = frozenset({"__init__", "genesis", "from_blob"})
_CORE_READONLY = frozenset({"to_blob"})


def _finding(code: str, path: str, line: int, col: int,
             message: str) -> Finding:
    return Finding(code=code, path=path, line=line, col=col,
                   message=message, hint=GRAPH_RULES[code][1])


def _module(index: ProjectIndex, rel: str) -> Optional[ModuleInfo]:
    return index.modules.get(f"{index.package}.{rel}")


def _is_self_rooted(node: ast.expr) -> bool:
    cur = node
    while isinstance(cur, (ast.Attribute, ast.Subscript)):
        cur = cur.value
    return isinstance(cur, ast.Name) and cur.id == "self"


def _self_mutators(cls_node: ast.ClassDef) -> Set[str]:
    """Method names that assign/mutate ``self`` state (syntactically)."""
    mutators: Set[str] = set()
    for stmt in cls_node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if _mutates_self(stmt):
            mutators.add(stmt.name)
    return mutators


def _mutates_self(func: FuncNode) -> bool:
    for node in ast.walk(func):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)) \
                    and _is_self_rooted(target):
                return True
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATING_METHODS \
                and isinstance(node.func.value, (ast.Attribute,
                                                 ast.Subscript)) \
                and _is_self_rooted(node.func.value):
            return True
    return False


def _find_class(module: Optional[ModuleInfo],
                name: str) -> Optional[ast.ClassDef]:
    if module is None or module.tree is None:
        return None
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _core_mutators(index: ProjectIndex) -> Set[str]:
    """Mutating SimCore method names, derived from the class bodies."""
    core_mod = _module(index, "serve.core")
    sim_mod = _module(index, "sim.engine")
    core_cls = _find_class(core_mod, "SimCore")
    if core_cls is None:
        return set()
    sim_cls = _find_class(sim_mod, "Simulator")
    sim_mutators = _self_mutators(sim_cls) if sim_cls is not None else set()
    mutators = _self_mutators(core_cls)
    # A SimCore method that calls a mutating Simulator method through
    # ``self.sim`` is itself a mutator (e.g. advance -> step_batch).
    for stmt in core_cls.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in sim_mutators \
                    and isinstance(node.func.value, ast.Attribute) \
                    and node.func.value.attr == "sim" \
                    and _is_self_rooted(node.func.value):
                mutators.add(stmt.name)
                break
    return (mutators - _CORE_CONSTRUCTORS) - _CORE_READONLY


def _is_core_expr(node: ast.expr) -> bool:
    """``core`` / ``self.core`` / ``...core`` — a SimCore reference."""
    if isinstance(node, ast.Name):
        return node.id == "core"
    if isinstance(node, ast.Attribute):
        return node.attr == "core"
    return False


# ----------------------------------------------------------------------
# RPR110
# ----------------------------------------------------------------------
def _check_rpr110(index: ProjectIndex) -> List[Finding]:
    daemon = _module(index, "serve.daemon")
    recovery = _module(index, "serve.recovery")
    if daemon is None and recovery is None:
        return []
    mutators = _core_mutators(index)
    roots: List[str] = []
    for mod in (daemon, recovery):
        if mod is None:
            continue
        roots.append(f"{mod.name}.{MODULE_SCOPE}")
        roots.extend(sorted(mod.functions))
    reachable = index.reachable(roots)
    serve_prefix = f"{index.package}.serve."
    findings: List[Finding] = []
    for qname in sorted(reachable):
        info = index.functions.get(qname)
        if info is None or not info.module.startswith(serve_prefix):
            continue
        if info.name == "apply_tick_record" or info.cls == "SimCore":
            continue  # the sanctioned mutation path and the core itself
        module = index.modules[info.module]
        findings.extend(_scan_core_mutations(module.path, qname,
                                             info.node, mutators))
    return findings


def _scan_core_mutations(path: str, qname: str, func: FuncNode,
                         mutators: Set[str]) -> List[Finding]:
    findings: List[Finding] = []
    short = qname.rsplit(".", 1)[-1]
    for node in ast.walk(func):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            base = target
            while isinstance(base, ast.Subscript):
                base = base.value
            if isinstance(base, ast.Attribute) \
                    and _is_core_expr(base.value):
                findings.append(_finding(
                    "RPR110", path, node.lineno, node.col_offset,
                    f"{short}() assigns SimCore.{base.attr} directly; "
                    "only apply_tick_record may mutate core state"))
        if not isinstance(node, ast.Call) \
                or not isinstance(node.func, ast.Attribute):
            continue
        func_attr = node.func
        if _is_core_expr(func_attr.value) and func_attr.attr in mutators:
            findings.append(_finding(
                "RPR110", path, node.lineno, node.col_offset,
                f"{short}() calls mutating SimCore.{func_attr.attr}() "
                "outside the apply_tick_record path"))
        elif func_attr.attr in _MUTATING_METHODS \
                and isinstance(func_attr.value, ast.Attribute) \
                and _is_core_expr(func_attr.value.value):
            findings.append(_finding(
                "RPR110", path, node.lineno, node.col_offset,
                f"{short}() mutates SimCore.{func_attr.value.attr} in "
                "place outside the apply_tick_record path"))
    return findings


# ----------------------------------------------------------------------
# RPR112 / RPR113: reachability from digest-computing code
# ----------------------------------------------------------------------
class _Aliases:
    """Module-level import aliases for clock/RNG detection."""

    def __init__(self, tree: ast.Module) -> None:
        self.time_aliases: Set[str] = set()
        self.time_funcs: Set[str] = set()
        self.datetime_names: Set[str] = set()
        self.datetime_modules: Set[str] = set()
        self.random_aliases: Set[str] = set()
        self.random_funcs: Set[str] = set()
        self.numpy_aliases: Set[str] = set()
        self.np_random_aliases: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "time":
                        self.time_aliases.add(bound)
                    elif alias.name == "random":
                        self.random_aliases.add(bound)
                    elif alias.name == "numpy":
                        self.numpy_aliases.add(bound)
                    elif alias.name == "numpy.random":
                        self.np_random_aliases.add(
                            alias.asname or "numpy")
                    elif alias.name == "datetime":
                        self.datetime_modules.add(bound)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module == "time":
                        self.time_funcs.add(bound)
                    elif node.module == "random":
                        self.random_funcs.add(bound)
                    elif node.module == "numpy" \
                            and alias.name == "random":
                        self.np_random_aliases.add(bound)
                    elif node.module == "datetime" \
                            and alias.name in ("datetime", "date"):
                        self.datetime_names.add(bound)


def _banned_call(node: ast.Call, aliases: _Aliases
                 ) -> Optional[Tuple[str, bool]]:
    """Describe a wall-clock/RNG call and say whether it reads the wall
    clock, or return None when the call is clean."""
    func = node.func
    if isinstance(func, ast.Name):
        if func.id in aliases.time_funcs and func.id in _TIME_BANNED:
            return f"{func.id}() reads the wall clock", True
        if func.id in aliases.random_funcs:
            return f"random.{func.id}() draws from the global RNG", False
        return None
    if not isinstance(func, ast.Attribute):
        return None
    owner = func.value
    if isinstance(owner, ast.Name):
        if owner.id in aliases.time_aliases and func.attr in _TIME_BANNED:
            return f"time.{func.attr}() reads the wall clock", True
        if owner.id in aliases.random_aliases:
            return f"random.{func.attr}() draws from the global RNG", False
        if owner.id in aliases.datetime_names \
                and func.attr in _DATETIME_BANNED:
            return f"datetime.{func.attr}() reads the wall clock", True
        if owner.id in aliases.np_random_aliases:
            if func.attr not in _NP_RANDOM_ALLOWED:
                return (f"np.random.{func.attr}() draws from the global "
                        "NumPy RNG", False)
            if func.attr == "default_rng" and not node.args \
                    and not node.keywords:
                return "np.random.default_rng() without a seed", False
        return None
    if isinstance(owner, ast.Attribute):
        if owner.attr == "random" and isinstance(owner.value, ast.Name) \
                and owner.value.id in aliases.numpy_aliases:
            if func.attr not in _NP_RANDOM_ALLOWED:
                return (f"np.random.{func.attr}() draws from the global "
                        "NumPy RNG", False)
            if func.attr == "default_rng" and not node.args \
                    and not node.keywords:
                return "np.random.default_rng() without a seed", False
        if owner.attr in ("datetime", "date") \
                and isinstance(owner.value, ast.Name) \
                and owner.value.id in aliases.datetime_modules \
                and func.attr in _DATETIME_BANNED:
            return (f"datetime.{owner.attr}.{func.attr}() reads the wall "
                    "clock", True)
    return None


def _digest_roots(index: ProjectIndex) -> List[str]:
    roots: List[str] = []
    core = _module(index, "serve.core")
    recovery = _module(index, "serve.recovery")
    if core is not None:
        for qname in sorted(core.functions):
            info = core.functions[qname]
            if info.name == "state_digest" or (info.cls == "SimCore"
                                               and info.name == "digest"):
                roots.append(qname)
    if recovery is not None:
        for qname in sorted(recovery.functions):
            if recovery.functions[qname].name == "apply_tick_record":
                roots.append(qname)
    return roots


def _chain(parents: Dict[str, Optional[str]], qname: str,
           index: ProjectIndex) -> str:
    chain: List[str] = []
    cur: Optional[str] = qname
    while cur is not None and len(chain) < 8:
        prefix = index.package + "."
        chain.append(cur[len(prefix):] if cur.startswith(prefix) else cur)
        cur = parents.get(cur)
    return " <- ".join(chain)


def _reachable_with_parents(index: ProjectIndex, roots: Sequence[str],
                            ) -> Dict[str, Optional[str]]:
    edges = index.call_edges()
    parents: Dict[str, Optional[str]] = {}
    queue: List[str] = []
    for root in sorted(set(roots)):
        parents[root] = None
        queue.append(root)
    while queue:
        cur = queue.pop(0)
        for callee, _site in edges.get(cur, []):
            if callee not in parents:
                parents[callee] = cur
                queue.append(callee)
    return parents


def _check_rpr112_113(ctx: RuleContext) -> List[Finding]:
    index = ctx.index
    roots = _digest_roots(index)
    if not roots:
        return []
    parents = _reachable_with_parents(index, roots)
    findings: List[Finding] = []
    alias_cache: Dict[str, _Aliases] = {}
    for qname in sorted(parents):
        info = index.functions.get(qname)
        if info is None:
            continue
        module = index.modules[info.module]
        if module.tree is None:
            continue
        package = index.package_of(info.module)
        chain = _chain(parents, qname, index)
        if package not in SIM_PACKAGES:
            if info.module not in alias_cache:
                alias_cache[info.module] = _Aliases(module.tree)
            aliases = alias_cache[info.module]
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call):
                    banned = _banned_call(node, aliases)
                    if banned is None:
                        continue
                    reason, clock = banned
                    # The allowlist exempts wall-clock reads only, and
                    # it is consulted only for a detected read, so
                    # RPR130 sees an entry that exempts nothing.
                    if not (clock and _rpr002_allowlisted(module.path,
                                                          ctx.tracker)):
                        findings.append(_finding(
                            "RPR112", module.path, node.lineno,
                            node.col_offset,
                            f"{reason} in digest/replay-reachable code "
                            f"({chain})"))
        if package not in DECISION_PACKAGES:
            findings.extend(_scan_unordered(module.path, info.node, chain))
    return findings


def _is_unordered_expr(node: ast.expr) -> bool:
    """Hash-ordered iterables only: ``set``/``frozenset`` literals,
    constructors and combinators.  Dict views are deliberately NOT
    flagged here — dict iteration is insertion-ordered and therefore
    deterministic under replay; the stricter per-file RPR003 still
    polices them inside decision packages."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in ("set", "frozenset")
        if isinstance(func, ast.Attribute):
            if func.attr in _SET_COMBINATORS:
                return _is_unordered_expr(func.value)
    return False


def _scan_unordered(path: str, func: FuncNode, chain: str,
                    ) -> List[Finding]:
    findings: List[Finding] = []
    iters: List[ast.expr] = []
    for node in ast.walk(func):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters.extend(gen.iter for gen in node.generators)
    for expr in iters:
        if _is_unordered_expr(expr):
            findings.append(_finding(
                "RPR113", path, expr.lineno, expr.col_offset,
                "unordered iteration in digest/replay-reachable code "
                f"({chain}); mutation order feeds the digest"))
    return findings


def check_replay(ctx: RuleContext) -> List[Finding]:
    index = ctx.index
    findings: List[Finding] = []
    findings.extend(_check_rpr110(index))
    findings.extend(_check_rpr112_113(ctx))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings
