"""AST-based determinism linter (the ``RPR`` rules).

The simulator's headline numbers (Table 3/4 deltas, the <4.6% fidelity
claim) are only meaningful if a run is *bit-deterministic under a seed*.
This linter statically enforces the coding rules that protect that
property as the codebase grows.  Rules are repo-specific by design — they
encode this project's conventions, not generic style:

========  ============================================================
RPR001    No global ``random.*`` / ``np.random.*`` convenience calls in
          simulation packages; randomness must flow through an injected,
          seeded ``np.random.Generator``.
RPR002    No wall-clock reads (``time.time``, ``time.monotonic``,
          ``time.perf_counter``, ``datetime.now``, ...) in simulation
          paths; simulated time is ``engine.now``, full stop.
          Instrumentation that measures the *simulator itself* (and
          never feeds wall time back into simulated state) is exempted
          by :data:`RPR002_ALLOWLIST` — a per-module allowlist —
          instead of per-line noqa comments.
RPR003    No iteration over a raw ``set`` / ``frozenset`` / dict view in
          scheduling or placement decision code without ``sorted(...)``
          — unordered iteration makes tie-breaking depend on hash seeds
          or insertion history.
RPR004    No float ``==`` / ``!=`` against simulated-time expressions;
          compare with an epsilon or ``<=`` / ``>=``.
RPR005    No mutable default arguments (shared state across calls).
RPR006    ``EventKind`` exhaustiveness: every enum member must be
          dispatched (``sim/engine.py`` or ``faults/runtime.py``).
RPR007    No bare or overbroad ``except`` (``Exception``/
          ``BaseException``) unless the handler re-raises.
RPR008    Public sim entry points (``simulate*``/``generate*``/
          ``sample*``/...) must thread a ``seed``/``rng``/spec
          parameter so callers control determinism.
RPR009    No raw ``open(path, "w")`` writes to state/sink paths in the
          durability-sensitive packages (``serve``, ``obs``): a crash
          mid-write leaves a truncated file at the final path.  Writes
          must go through :mod:`repro.obs.ioutil`
          (``atomic_write_text`` or the stream-to-``tmp_path``-then-
          rename pattern).  Streaming into ``open(tmp_path(p), "w")``
          is recognized and allowed.
RPR010    No builtin ``hash()`` of a non-int value in decision, model,
          trace or digest code: ``str``/``bytes`` hashes are salted per
          process (``PYTHONHASHSEED``), so a decision or digest built on
          them differs between runs and between a crashed daemon and its
          recovery.  Use a stable digest (``zlib.crc32``, ``hashlib``).
          ``__hash__`` bodies are exempt (they only feed hashing).
========  ============================================================

Suppression: append ``# repro: noqa`` (all rules) or
``# repro: noqa RPR002`` (specific codes, comma-separated) to the
offending line, ideally with a justification comment nearby.
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
import tokenize
from dataclasses import asdict, dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

__all__ = [
    "RPR002_ALLOWLIST",
    "RULES",
    "Finding",
    "SuppressionTracker",
    "apply_noqa",
    "format_json",
    "format_text",
    "lint_file",
    "lint_paths",
    "lint_source",
    "python_files",
]

#: code -> (one-line summary, fix hint).
RULES: Dict[str, Tuple[str, str]] = {
    "RPR000": ("file does not parse",
               "fix the syntax error; unparsable files cannot be vetted"),
    "RPR001": ("global RNG call in a simulation package",
               "inject a seeded np.random.Generator (np.random.default_rng"
               "(seed)) and thread it through"),
    "RPR002": ("wall-clock read in a simulation path",
               "use the engine's simulated clock (engine.now); wall time "
               "breaks replay determinism"),
    "RPR003": ("iteration over an unordered collection in decision code",
               "wrap the iterable in sorted(...) so tie-breaking is "
               "deterministic"),
    "RPR004": ("float equality against simulated time",
               "compare with an epsilon (abs(a - b) <= eps) or an "
               "inequality"),
    "RPR005": ("mutable default argument",
               "default to None and create the list/dict/set inside the "
               "function"),
    "RPR006": ("EventKind member not exhaustively handled",
               "dispatch the member in sim/engine.py (or faults/runtime.py)"),
    "RPR007": ("bare or overbroad except clause",
               "catch the specific exceptions the block can raise, or "
               "re-raise after cleanup"),
    "RPR008": ("public sim entry point without a seed/rng parameter",
               "add a seed/rng parameter (or take a *Spec object that "
               "carries one) so callers control determinism"),
    "RPR009": ("raw in-place write to a state/sink path",
               "write via repro.obs.ioutil.atomic_write_text (or stream "
               "into tmp_path(p) and os.replace); a crash mid-write must "
               "never leave a truncated file at the final path"),
    "RPR010": ("builtin hash() of a non-int value in decision/digest code",
               "use a process-stable digest such as zlib.crc32(text."
               "encode('utf-8')); str/bytes hash() is salted per process"),
}

#: Packages whose modules are "simulation paths" (RPR001/RPR002/RPR004).
SIM_PACKAGES = frozenset(
    {"sim", "core", "schedulers", "faults", "workloads", "cluster"})
#: Packages holding scheduling/placement decision code (RPR003).
DECISION_PACKAGES = frozenset(
    {"sim", "core", "schedulers", "faults", "cluster"})
#: Packages whose public entry points must thread a seed (RPR008).
ENTRYPOINT_PACKAGES = frozenset(
    {"sim", "core", "schedulers", "faults", "workloads", "traces"})
#: Packages holding durable state / observability sinks (RPR009).
STATE_SINK_PACKAGES = frozenset({"serve", "obs"})
#: Packages whose values feed decisions, traces or digests (RPR010).
STABLE_HASH_PACKAGES = SIM_PACKAGES | {"models", "traces", "serve"}

#: np.random attributes that are legitimate Generator plumbing.
_NP_RANDOM_ALLOWED = frozenset({
    "Generator", "BitGenerator", "SeedSequence", "default_rng",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})
#: Wall-clock functions of the ``time`` module.
_TIME_BANNED = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "clock",
})
#: Wall-clock constructors on datetime/date objects.
_DATETIME_BANNED = frozenset({"now", "utcnow", "today"})
#: Attribute calls that return dict views.
_DICT_VIEW_ATTRS = frozenset({"keys", "values", "items"})
#: Set methods whose result is another unordered set.
_SET_COMBINATORS = frozenset({
    "union", "intersection", "difference", "symmetric_difference", "copy",
})
#: Identifier fragments that denote simulated-time values (RPR004).
_TIME_NAMES = frozenset({
    "now", "time", "submit_time", "finish_time", "first_start_time",
    "start_time", "end_time", "last_update", "time_limit_at", "eta",
    "deadline", "makespan", "timestamp", "peek_time", "arrival_time",
})
#: Entry-point name prefixes that must thread a seed (RPR008).
_ENTRYPOINT_PREFIXES = (
    "simulate", "generate", "sample", "perturb", "synthesize",
    "randomize", "shuffle", "jitter",
)
#: Parameter names that satisfy RPR008 (a *Spec carries its own seed).
_SEED_PARAMS = frozenset({"seed", "rng", "random_state", "generator", "spec"})

#: RPR002 instrumentation allowlist: modules whose wall-clock reads
#: measure the simulator itself (profiling, latency telemetry) rather
#: than simulated time.  Entries are path suffixes (``/``-separated)
#: and exempt the whole module.  Prefer this list over per-line noqa
#: comments: the exemption is reviewed in one place and survives line
#: moves.  An entry that suppresses no finding in a whole-program run
#: is flagged RPR130 — delete it.  The self-profiler is wall-clock
#: measurement by definition; ``obs/`` is outside per-file RPR002's
#: scope, but the cross-function RPR112 (digest reachability) consults
#: this list too.
RPR002_ALLOWLIST: FrozenSet[str] = frozenset({"obs/prof.py"})

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\s+(?P<codes>[A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*))?",
)


@dataclass(frozen=True)
class Finding:
    """One linter finding, pointing at a source location."""

    code: str
    path: str
    line: int
    col: int
    message: str
    hint: str

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: {self.code} "
                f"{self.message} (hint: {self.hint})")


def _comment_lines(source: str) -> Dict[int, str]:
    """line -> comment text, via tokenize so docstring mentions of the
    noqa marker are never mistaken for real suppressions."""
    comments: Dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                comments[tok.start[0]] = tok.string
    except (tokenize.TokenError, SyntaxError, IndentationError):
        # Untokenizable source: fall back to whole-line matching.
        return {i: line for i, line in
                enumerate(source.splitlines(), start=1)}
    return comments


def _noqa_map(source: str) -> Dict[int, Optional[Set[str]]]:
    """``line -> suppressed codes`` (``None`` = every code) from comments."""
    suppressed: Dict[int, Optional[Set[str]]] = {}
    for lineno, comment in _comment_lines(source).items():
        match = _NOQA_RE.search(comment)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            suppressed[lineno] = None
        else:
            suppressed[lineno] = {c.strip() for c in codes.split(",")}
    return suppressed


class SuppressionTracker:
    """Records which suppressions actually fired during a lint run.

    A whole-program run threads one tracker through every file and
    graph rule; suppressions that never matched a finding surface as
    RPR130 ("unused suppression") so the suppression surface can only
    shrink.  ``# repro: noqa`` comments are keyed by ``(path, line)``;
    :data:`RPR002_ALLOWLIST` entries by their path suffix.
    """

    def __init__(self) -> None:
        #: (path, line) -> codes the comment names (None = all codes).
        self.noqa: Dict[Tuple[str, int], Optional[Set[str]]] = {}
        self.noqa_used: Set[Tuple[str, int]] = set()
        self.allowlist_used: Set[str] = set()

    def register_noqa(self, path: str, line: int,
                      codes: Optional[Set[str]]) -> None:
        self.noqa[(path, line)] = codes

    def mark_noqa_used(self, path: str, line: int) -> None:
        self.noqa_used.add((path, line))


def _rpr002_allowlisted(path: str,
                        tracker: Optional[SuppressionTracker]) -> bool:
    """Whether ``path`` is an :data:`RPR002_ALLOWLIST` module.

    Call only once a wall-clock read was *detected*: a hit is recorded
    with the tracker as a suppression that fired, which is what the
    RPR130 unused-suppression rule needs to know.
    """
    normalized = os.path.normpath(path).replace(os.sep, "/")
    for suffix in sorted(RPR002_ALLOWLIST):
        if normalized == suffix or normalized.endswith("/" + suffix):
            if tracker is not None:
                tracker.allowlist_used.add(suffix)
            return True
    return False


def _is_int_expr(node: ast.expr) -> bool:
    """Whether ``node`` is syntactically an ``int`` (whose hash is the
    value itself, unsalted)."""
    if isinstance(node, ast.Constant):
        return type(node.value) is int
    if isinstance(node, ast.UnaryOp):
        return _is_int_expr(node.operand)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("int", "len"))


def _path_packages(path: str) -> Set[str]:
    """Directory names along ``path`` (used for rule scoping)."""
    parts = os.path.normpath(path).split(os.sep)
    return set(parts[:-1])


class _Scope:
    """Per-function tracking of locals bound to set-typed values."""

    def __init__(self) -> None:
        self.set_vars: Set[str] = set()


class _DeterminismVisitor(ast.NodeVisitor):
    """Single-file pass implementing rules RPR001..RPR005, 7, 8, 9, 10."""

    def __init__(self, path: str,
                 tracker: Optional[SuppressionTracker] = None) -> None:
        self.path = path
        self.tracker = tracker
        self.findings: List[Finding] = []
        packages = _path_packages(path)
        self.in_sim = bool(packages & SIM_PACKAGES)
        self.in_decision = bool(packages & DECISION_PACKAGES)
        self.in_entrypoint = bool(packages & ENTRYPOINT_PACKAGES)
        self.in_state_sink = bool(packages & STATE_SINK_PACKAGES)
        self.in_stable_hash = bool(packages & STABLE_HASH_PACKAGES)
        # Import aliases discovered while walking.
        self.random_aliases: Set[str] = set()       # stdlib random module
        self.random_funcs: Set[str] = set()         # from random import X
        self.numpy_aliases: Set[str] = set()        # numpy / np
        self.np_random_aliases: Set[str] = set()    # numpy.random as npr
        self.time_aliases: Set[str] = set()         # time module
        self.time_funcs: Set[str] = set()           # from time import X
        self.datetime_names: Set[str] = set()       # datetime/date classes
        self.datetime_modules: Set[str] = set()     # datetime module
        # Names bound to tmp_path(...) results (RPR009 exemption).
        self.tmp_path_vars: Set[str] = set()
        self._scopes: List[_Scope] = [_Scope()]
        self._func_depth = 0
        self._class_depth = 0
        self._func_names: List[str] = []

    # -- helpers -------------------------------------------------------
    def _report(self, code: str, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            code=code, path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message, hint=RULES[code][1]))

    def _is_set_var(self, name: str) -> bool:
        return any(name in scope.set_vars for scope in reversed(self._scopes))

    # -- imports -------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self.random_aliases.add(bound)
            elif alias.name in ("numpy", "numpy.random"):
                if alias.name == "numpy.random" and alias.asname:
                    self.np_random_aliases.add(alias.asname)
                else:
                    self.numpy_aliases.add(bound)
            elif alias.name == "time":
                self.time_aliases.add(bound)
            elif alias.name == "datetime":
                self.datetime_modules.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name
            if node.module == "random":
                self.random_funcs.add(bound)
            elif node.module == "numpy" and alias.name == "random":
                self.np_random_aliases.add(bound)
            elif node.module == "time":
                self.time_funcs.add(bound)
            elif node.module == "datetime" and alias.name in ("datetime",
                                                              "date"):
                self.datetime_names.add(bound)
        self.generic_visit(node)

    # -- RPR001 / RPR002: calls ---------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if self.in_sim:
            self._check_rng_call(node)
            self._check_clock_call(node)
        if self.in_state_sink:
            self._check_raw_write(node)
        if self.in_stable_hash:
            self._check_builtin_hash(node)
        self.generic_visit(node)

    # -- RPR010: salted builtin hash() ----------------------------------
    def _check_builtin_hash(self, node: ast.Call) -> None:
        if not (isinstance(node.func, ast.Name) and node.func.id == "hash"
                and len(node.args) == 1):
            return
        if self._func_names and self._func_names[-1] == "__hash__":
            return
        if _is_int_expr(node.args[0]):
            return
        self._report("RPR010", node,
                     "hash() of a possibly non-int value is salted per "
                     "process (PYTHONHASHSEED)")

    # -- RPR009: raw in-place writes ----------------------------------
    @staticmethod
    def _is_tmp_path_call(node: Optional[ast.expr]) -> bool:
        if not isinstance(node, ast.Call):
            return False
        inner = node.func
        return (isinstance(inner, ast.Name) and inner.id == "tmp_path") \
            or (isinstance(inner, ast.Attribute)
                and inner.attr == "tmp_path")

    def _check_raw_write(self, node: ast.Call) -> None:
        func = node.func
        if not (isinstance(func, ast.Name) and func.id == "open"):
            return
        mode: Optional[str] = None
        if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant) \
                and isinstance(node.args[1].value, str):
            mode = node.args[1].value
        for keyword in node.keywords:
            if keyword.arg == "mode" \
                    and isinstance(keyword.value, ast.Constant) \
                    and isinstance(keyword.value.value, str):
                mode = keyword.value.value
        if mode is None or not any(flag in mode for flag in "wx"):
            return  # read or append mode: no truncation hazard
        # open(tmp_path(p), "w") or open(tmp, "w") where tmp came from
        # tmp_path(...): the sanctioned stream-then-rename pattern — the
        # final path is never exposed mid-write.
        target = node.args[0] if node.args else None
        if self._is_tmp_path_call(target):
            return
        if isinstance(target, ast.Name) and target.id in self.tmp_path_vars:
            return
        self._report("RPR009", node,
                     f"open(..., {mode!r}) truncates the destination in "
                     "place; a crash mid-write corrupts it")

    def _check_rng_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in self.random_funcs:
                self._report("RPR001", node,
                             f"call to random.{func.id}() uses the global "
                             "stdlib RNG")
            return
        if not isinstance(func, ast.Attribute):
            return
        owner = func.value
        # random.<anything>(...)
        if isinstance(owner, ast.Name) and owner.id in self.random_aliases:
            self._report("RPR001", node,
                         f"call to random.{func.attr}() uses the global "
                         "stdlib RNG")
            return
        # np.random.<attr>(...) or npr.<attr>(...)
        is_np_random = (
            (isinstance(owner, ast.Attribute) and owner.attr == "random"
             and isinstance(owner.value, ast.Name)
             and owner.value.id in self.numpy_aliases)
            or (isinstance(owner, ast.Name)
                and owner.id in self.np_random_aliases))
        if not is_np_random:
            return
        if func.attr not in _NP_RANDOM_ALLOWED:
            self._report("RPR001", node,
                         f"np.random.{func.attr}() draws from the global "
                         "NumPy RNG")
        elif func.attr == "default_rng" and not node.args and not node.keywords:
            self._report("RPR001", node,
                         "np.random.default_rng() without a seed is "
                         "entropy-seeded (nondeterministic)")

    def _report_clock(self, node: ast.Call, message: str) -> None:
        """RPR002 report point: allowlist checked *after* detection so
        suppression hits are observable (RPR130)."""
        if _rpr002_allowlisted(self.path, self.tracker):
            return
        self._report("RPR002", node, message)

    def _check_clock_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in self.time_funcs and func.id in _TIME_BANNED:
                self._report_clock(node,
                                   f"{func.id}() reads the wall clock")
            return
        if not isinstance(func, ast.Attribute):
            return
        owner = func.value
        if (isinstance(owner, ast.Name) and owner.id in self.time_aliases
                and func.attr in _TIME_BANNED):
            self._report_clock(node,
                               f"time.{func.attr}() reads the wall clock")
            return
        if func.attr not in _DATETIME_BANNED:
            return
        if isinstance(owner, ast.Name) and owner.id in self.datetime_names:
            self._report_clock(node,
                               f"datetime.{func.attr}() reads the wall "
                               "clock")
        elif (isinstance(owner, ast.Attribute)
              and owner.attr in ("datetime", "date")
              and isinstance(owner.value, ast.Name)
              and owner.value.id in self.datetime_modules):
            self._report_clock(node,
                               f"datetime.{owner.attr}.{func.attr}() reads "
                               "the wall clock")

    # -- RPR003: unordered iteration ----------------------------------
    def _is_unordered(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return self._is_set_var(node.id)
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            # set algebra: a | b, a - b, ... on a known set operand
            return (self._is_unordered(node.left)
                    or self._is_unordered(node.right))
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in ("set", "frozenset")
        if isinstance(func, ast.Attribute):
            if func.attr in _DICT_VIEW_ATTRS and not node.args:
                return True
            if func.attr in _SET_COMBINATORS:
                return self._is_unordered(func.value)
        return False

    def _check_iterable(self, iterable: ast.expr) -> None:
        if not self.in_decision:
            return
        if isinstance(iterable, ast.Call) and isinstance(
                iterable.func, ast.Name) and iterable.func.id == "sorted":
            return
        if self._is_unordered(iterable):
            what = ("a dict view" if isinstance(iterable, ast.Call)
                    and isinstance(iterable.func, ast.Attribute)
                    and iterable.func.attr in _DICT_VIEW_ATTRS
                    else "an unordered set")
            self._report("RPR003", iterable,
                         f"iterating {what} makes decision order "
                         "hash/insertion dependent")

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.expr) -> None:
        for gen in getattr(node, "generators", []):
            self._check_iterable(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    def visit_Assign(self, node: ast.Assign) -> None:
        is_set = self._is_unordered(node.value) or (
            isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id in ("set", "frozenset"))
        is_tmp = self._is_tmp_path_call(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                scope = self._scopes[-1]
                if is_set:
                    scope.set_vars.add(target.id)
                else:
                    scope.set_vars.discard(target.id)
                if is_tmp:
                    self.tmp_path_vars.add(target.id)
                else:
                    self.tmp_path_vars.discard(target.id)
        self.generic_visit(node)

    # -- RPR004: float equality on simulated time ----------------------
    @staticmethod
    def _mentions_time(node: ast.expr) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in _TIME_NAMES:
                return True
            if isinstance(sub, ast.Attribute) and sub.attr in _TIME_NAMES:
                return True
        return False

    @staticmethod
    def _is_exempt_operand(node: ast.expr) -> bool:
        """Comparisons against strings/None are identity-ish, not float."""
        return isinstance(node, ast.Constant) and (
            node.value is None or isinstance(node.value, str))

    def visit_Compare(self, node: ast.Compare) -> None:
        if self.in_sim and any(isinstance(op, (ast.Eq, ast.NotEq))
                               for op in node.ops):
            operands = [node.left] + list(node.comparators)
            if (not any(self._is_exempt_operand(o) for o in operands)
                    and any(self._mentions_time(o) for o in operands)):
                self._report("RPR004", node,
                             "exact float comparison on a simulated-time "
                             "expression")
        self.generic_visit(node)

    # -- RPR005 / RPR008: function definitions -------------------------
    def _check_defaults(self, node: ast.arguments) -> None:
        for default in list(node.defaults) + [d for d in node.kw_defaults
                                              if d is not None]:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set,
                                           ast.ListComp, ast.DictComp,
                                           ast.SetComp))
            if (isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in ("list", "dict", "set")):
                mutable = True
            if mutable:
                self._report("RPR005", default,
                             "mutable default is shared across calls")

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # Methods are not entry points (their class threads the seed, e.g.
        # TraceGenerator(spec)); only module-level functions face RPR008.
        self._class_depth += 1
        self.generic_visit(node)
        self._class_depth -= 1

    def _check_entrypoint(self, node: ast.FunctionDef) -> None:
        if (not self.in_entrypoint or self._func_depth > 0
                or self._class_depth > 0 or node.name.startswith("_")):
            return
        if not node.name.startswith(_ENTRYPOINT_PREFIXES):
            return
        args = node.args
        names = {a.arg for a in (args.posonlyargs + args.args
                                 + args.kwonlyargs)}
        if args.kwarg is not None:
            names.add(args.kwarg.arg)
        ok = any(n in _SEED_PARAMS or n.endswith(("_seed", "_rng", "_spec"))
                 for n in names)
        if not ok:
            self._report("RPR008", node,
                         f"entry point {node.name}() cannot be seeded by "
                         "its caller")

    def _visit_function(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node.args)
        self._check_entrypoint(node)
        self._scopes.append(_Scope())
        self._func_depth += 1
        self._func_names.append(node.name)
        self.generic_visit(node)
        self._func_names.pop()
        self._func_depth -= 1
        self._scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- RPR007: overbroad except --------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report("RPR007", node, "bare except swallows everything "
                         "including KeyboardInterrupt")
        else:
            name = None
            if isinstance(node.type, ast.Name):
                name = node.type.id
            elif isinstance(node.type, ast.Attribute):
                name = node.type.attr
            if name in ("Exception", "BaseException"):
                reraises = any(isinstance(sub, ast.Raise) and sub.exc is None
                               for sub in ast.walk(node))
                if not reraises:
                    self._report("RPR007", node,
                                 f"except {name} without re-raise hides "
                                 "real failures")
        self.generic_visit(node)


# ----------------------------------------------------------------------
# RPR006: EventKind exhaustiveness (cross-file project rule)
# ----------------------------------------------------------------------
def _enum_members(events_tree: ast.Module) -> Dict[str, int]:
    """``member name -> definition line`` of the EventKind enum.

    A member is a class-level assignment of a string, or of a tuple
    whose first element is the string value (the declared stories
    follow it).
    """
    members: Dict[str, int] = {}
    for node in events_tree.body:
        if not (isinstance(node, ast.ClassDef) and node.name == "EventKind"):
            continue
        for stmt in node.body:
            if not (isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)):
                continue
            value = stmt.value
            if isinstance(value, ast.Tuple) and value.elts:
                value = value.elts[0]
            if isinstance(value, ast.Constant) and isinstance(value.value,
                                                              str):
                members[stmt.targets[0].id] = stmt.lineno
    return members


def _referenced_members(path: str) -> Set[str]:
    """EventKind members referenced (``EventKind.X``) in a dispatch file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
    except (OSError, SyntaxError):
        return set()
    refs: Set[str] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "EventKind"):
            refs.add(node.attr)
    return refs


def _check_eventkind(path: str, tree: ast.Module) -> List[Finding]:
    """RPR006 for an ``events.py`` defining ``EventKind``.

    Dispatch coverage is looked for in the sibling ``engine.py`` and in
    ``../faults/runtime.py``.
    """
    members = _enum_members(tree)
    if not members:
        return []
    directory = os.path.dirname(os.path.abspath(path))
    parent = os.path.dirname(directory)
    dispatched: Set[str] = set()
    for candidate in (os.path.join(directory, "engine.py"),
                      os.path.join(parent, "faults", "runtime.py")):
        dispatched |= _referenced_members(candidate)
    return [Finding(code="RPR006", path=path, line=line, col=4,
                    message=f"EventKind.{name} is never dispatched in "
                            "sim/engine.py or faults/runtime.py",
                    hint=RULES["RPR006"][1])
            for name, line in sorted(members.items())
            if name not in dispatched]


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def lint_source(source: str, path: str = "<string>",
                tracker: Optional[SuppressionTracker] = None,
                ) -> List[Finding]:
    """Lint one module's source; returns noqa-filtered findings.

    Any parse failure — syntax error, null bytes, broken encoding —
    becomes an RPR000 finding with the file/line instead of an
    exception, so one bad file cannot take down a whole lint run.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(code="RPR000", path=path, line=exc.lineno or 1,
                        col=exc.offset or 0, message=str(exc.msg),
                        hint=RULES["RPR000"][1])]
    except ValueError as exc:  # e.g. null bytes in the source
        return [Finding(code="RPR000", path=path, line=1, col=0,
                        message=str(exc), hint=RULES["RPR000"][1])]
    visitor = _DeterminismVisitor(path, tracker=tracker)
    visitor.visit(tree)
    findings = visitor.findings
    if os.path.basename(path) == "events.py":
        findings = findings + _check_eventkind(path, tree)
    return apply_noqa(findings, source, path, tracker)


def apply_noqa(findings: Sequence[Finding], source: str, path: str,
               tracker: Optional[SuppressionTracker] = None,
               ) -> List[Finding]:
    """Drop findings suppressed by ``# repro: noqa`` comments, recording
    registration and use with the tracker (RPR130)."""
    suppressed = _noqa_map(source)
    if tracker is not None:
        for line, codes in suppressed.items():
            tracker.register_noqa(path, line, codes)
    kept: List[Finding] = []
    for finding in findings:
        codes = suppressed.get(finding.line, frozenset())
        if codes is None or (codes and finding.code in codes):
            if tracker is not None:
                tracker.mark_noqa_used(path, finding.line)
            continue
        kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return kept


def lint_file(path: str,
              tracker: Optional[SuppressionTracker] = None,
              ) -> List[Finding]:
    """Lint one ``.py`` file from disk (unreadable files -> RPR000)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        return [Finding(code="RPR000", path=path, line=1, col=0,
                        message=str(exc), hint=RULES["RPR000"][1])]
    return lint_source(source, path, tracker)


def python_files(paths: Sequence[str]) -> List[str]:
    """The ``.py`` files named by or under ``paths`` (``__pycache__``
    and dot-directories skipped).

    Raises ``FileNotFoundError`` for a path that does not exist, so CLI
    typos fail loudly instead of reporting a clean empty run.
    """
    files: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs
                                 if d != "__pycache__"
                                 and not d.startswith("."))
                files.extend(os.path.join(root, n) for n in sorted(names)
                             if n.endswith(".py"))
        else:
            raise FileNotFoundError(path)
    return files


def lint_paths(paths: Sequence[str]) -> List[Finding]:
    """Lint files and/or directory trees; see :func:`python_files`."""
    findings: List[Finding] = []
    for name in python_files(paths):
        findings.extend(lint_file(name))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def format_text(findings: Sequence[Finding]) -> str:
    """Human-readable report, one finding per line plus a summary."""
    if not findings:
        return "determinism lint: clean"
    lines = [f.format() for f in findings]
    by_code: Dict[str, int] = {}
    for finding in findings:
        by_code[finding.code] = by_code.get(finding.code, 0) + 1
    summary = ", ".join(f"{code} x{count}"
                        for code, count in sorted(by_code.items()))
    lines.append(f"determinism lint: {len(findings)} finding(s) ({summary})")
    return "\n".join(lines)


def format_json(findings: Sequence[Finding]) -> str:
    """Machine-readable report (stable key order)."""
    return json.dumps({
        "findings": [asdict(f) for f in findings],
        "count": len(findings),
    }, indent=2, sort_keys=True)
