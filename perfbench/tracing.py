"""Span recording around public functions of the program, from outside.

A :class:`SpanRecorder` times wrapped calls with one clock and keeps a
stack of open spans, so every span knows its parent (the nearest
enclosing wrapped call).  Self time is a span's duration minus the
durations of its direct children.  Cheap, high-volume layers are
aggregated per ``(name, parent)``; layers marked ``detail`` also keep
every span as ``(name, start, end, parent)`` so latency percentiles can
be computed from them.

:class:`Patch` installs wrappers by replacing attributes on modules and
classes -- at the place the caller looks the function up -- and puts the
original objects back on :meth:`Patch.restore`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

ROOT = "<root>"


class SpanRecorder:
    """Collects nested spans from wrapped calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        #: While false, wrappers call straight through and record nothing.
        self.enabled = True
        #: Open spans: ``[name, start, child_seconds]``.
        self._stack: List[List[Any]] = []
        #: ``(name, parent) -> [calls, total_s, self_s]``.
        self.aggregate: Dict[Tuple[str, str], List[float]] = {}
        #: Full records of ``detail`` layers: ``(name, start, end, parent)``.
        self.spans: List[Tuple[str, float, float, str]] = []
        #: ``name -> [hits, calls]`` for layers with an outcome test.
        self.outcomes: Dict[str, List[int]] = {}
        #: Sum of the durations of root spans (no wrapped parent).
        self.root_seconds = 0.0

    def wrap(self, name: str, fn: Callable[..., Any], detail: bool = False,
             hit: Optional[Callable[[Any], bool]] = None
             ) -> Callable[..., Any]:
        """Return ``fn`` wrapped in a span called ``name``.

        ``hit`` classifies a return value as a useful outcome (for hit
        ratios).
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = recorder._stack
            frame = [name, recorder.clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = recorder.clock()
                stack.pop()
                recorder._close(frame, end, detail)
            if hit is not None:
                counts = recorder.outcomes.setdefault(name, [0, 0])
                counts[1] += 1
                if hit(result):
                    counts[0] += 1
            return result

        wrapper.__perfbench_original__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _close(self, frame: List[Any], end: float, detail: bool) -> None:
        name, start, children = frame
        duration = end - start
        if self._stack:
            parent_frame = self._stack[-1]
            parent_frame[2] += duration
            parent = parent_frame[0]
        else:
            parent = ROOT
            self.root_seconds += duration
        entry = self.aggregate.get((name, parent))
        if entry is None:
            entry = self.aggregate[(name, parent)] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - children
        if detail:
            self.spans.append((name, start, end, parent))

    # -- summaries --------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer name: ``calls``, ``s`` and ``self_s``.

        ``s`` sums only the outermost activations of a name, so a layer
        that recurses into itself is not counted twice.
        """
        out: Dict[str, Dict[str, float]] = {}
        for (name, parent), (calls, total, own) in self.aggregate.items():
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += calls
            row["self_s"] += own
            if parent != name:
                row["s"] += total
        return out

    def durations(self, name: str) -> List[float]:
        """Durations of every recorded span of a ``detail`` layer."""
        return [end - start for n, start, end, _ in self.spans if n == name]


@contextlib.contextmanager
def paused(recorder: Optional[SpanRecorder]) -> Iterator[None]:
    """Record nothing inside the block (checks that are not the work)."""
    if recorder is None:
        yield
        return
    before = recorder.enabled
    recorder.enabled = False
    try:
        yield
    finally:
        recorder.enabled = before


class Patch:
    """Replace attributes with wrappers and restore them afterwards.

    A target is ``"module.path:attr"`` or ``"module.path:Class.attr"``.
    Only attributes defined directly on the module or class can be
    patched, so restoring puts back exactly the object that was there.
    """

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    @staticmethod
    def resolve(target: str) -> Tuple[Any, str]:
        module_name, _, path = target.partition(":")
        owner: Any = importlib.import_module(module_name)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        if attr not in vars(owner):
            raise AttributeError(f"{target}: not defined on {owner!r}")
        return owner, attr

    def install(self, target: str,
                make: Callable[[Callable[..., Any]], Callable[..., Any]]
                ) -> None:
        owner, attr = self.resolve(target)
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patch":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()
