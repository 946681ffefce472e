"""The file inbox: runtime job submission by atomic file drop.

Clients (and the daemon's own HTTP ``/submit`` endpoint) place job-spec
JSON files into ``<state_dir>/inbox/``.  The daemon polls the inbox
each service tick and admits up to ``batch`` specs in **sorted filename
order** — that ordering, together with the durable consumed-set, is
what makes the admission schedule independent of wall-clock timing:
a recovered daemon and a never-crashed control admit the identical
sequence.

Drops must be atomic (write a ``.tmp`` sibling, then rename); the
daemon ignores non-``.json`` names, so a half-written temp file is
never picked up.  The inbox is *bounded*: when ``capacity`` pending
specs are already waiting, :meth:`Inbox.submit` raises
:class:`InboxFullError` — the HTTP layer maps this to ``429`` with a
``Retry-After`` hint — which is the service's burst backpressure.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set

from repro.obs.ioutil import atomic_write_text
from repro.obs.logutil import get_logger

__all__ = ["Inbox", "InboxFullError", "InboxItem", "highest_seq",
           "name_seq"]

logger = get_logger("serve.inbox")

_NAME_RE = re.compile(r"^job-(\d{8})\.json$")


def name_seq(name: str) -> Optional[int]:
    """The sequence number of a ``job-<seq>.json`` name, else ``None``."""
    match = _NAME_RE.match(name)
    return int(match.group(1)) if match else None


def highest_seq(names: Iterable[str]) -> int:
    """The highest ``job-<seq>.json`` number among ``names`` (0 if none)."""
    return max((seq for seq in map(name_seq, names) if seq is not None),
               default=0)


def _unconsumed(names: Iterable[str], consumed: Set[str]) -> List[str]:
    return [name for name in names
            if name.endswith(".json") and name not in consumed]


class InboxFullError(RuntimeError):
    """The inbox is at capacity; retry after ``retry_after`` seconds."""

    def __init__(self, capacity: int, retry_after: float) -> None:
        super().__init__(
            f"inbox is full ({capacity} pending specs); "
            f"retry in {retry_after:.0f}s")
        self.capacity = capacity
        self.retry_after = retry_after


@dataclass(frozen=True)
class InboxItem:
    """One polled inbox file: its spec, or the reason it is unreadable."""

    name: str
    spec: Optional[Dict[str, Any]]
    error: Optional[str] = None


class Inbox:
    """Bounded spec-file inbox under one directory."""

    def __init__(self, inbox_dir: str, capacity: int = 64,
                 retry_after: float = 5.0) -> None:
        self.inbox_dir = inbox_dir
        self.capacity = capacity
        self.retry_after = retry_after
        os.makedirs(inbox_dir, exist_ok=True)

    # -- polling (daemon side) -----------------------------------------
    def pending(self, consumed: Set[str]) -> List[str]:
        """Unconsumed ``.json`` filenames in admission (sorted) order."""
        return sorted(_unconsumed(os.listdir(self.inbox_dir), consumed))

    def poll(self, consumed: Set[str], batch: int) -> List[InboxItem]:
        """Read the next admission batch (up to ``batch`` specs)."""
        items: List[InboxItem] = []
        for name in self.pending(consumed)[:batch]:
            path = os.path.join(self.inbox_dir, name)
            try:
                with open(path, "r") as handle:
                    spec = json.load(handle)
            except (OSError, ValueError) as exc:
                items.append(InboxItem(name, None, f"unreadable spec: {exc}"))
                continue
            if not isinstance(spec, dict):
                items.append(InboxItem(
                    name, None, "spec file must hold a JSON object"))
                continue
            items.append(InboxItem(name, spec))
        if items:
            logger.debug("poll: %d item(s), first %s", len(items),
                         items[0].name)
        return items

    def remove(self, names: Iterable[str]) -> None:
        """Delete consumed spec files (their content lives in the WAL)."""
        for name in names:
            try:
                os.unlink(os.path.join(self.inbox_dir, name))
            except FileNotFoundError:
                pass

    # -- submission (client side) --------------------------------------
    def next_name(self, names: Iterable[str], consumed_seq: int) -> str:
        """A fresh ``job-<seq>.json`` name, never reusing a consumed one.

        ``names`` is a listing of the inbox and ``consumed_seq`` the
        highest sequence number ever consumed, which is durable (rebuilt
        from snapshots and WAL tick records).  Names stay unique across
        restarts even after consumed files are deleted (a reused name
        would be silently skipped by the consumed-set), and the cost
        follows the pending files, not the history.
        """
        return f"job-{max(highest_seq(names), consumed_seq) + 1:08d}.json"

    def submit(self, spec: Dict[str, Any], consumed: Set[str],
               consumed_seq: int) -> str:
        """Atomically drop ``spec`` into the inbox; returns the filename.

        Raises :class:`InboxFullError` when ``capacity`` specs are
        already pending (burst backpressure).
        """
        names = os.listdir(self.inbox_dir)
        pending = len(_unconsumed(names, consumed))
        if pending >= self.capacity:
            logger.warning("inbox full: %d pending >= capacity %d",
                           pending, self.capacity)
            raise InboxFullError(self.capacity, self.retry_after)
        name = self.next_name(names, consumed_seq)
        atomic_write_text(os.path.join(self.inbox_dir, name),
                          json.dumps(spec, sort_keys=True, indent=2) + "\n")
        logger.debug("submitted %s (%d pending)", name, pending + 1)
        return name
