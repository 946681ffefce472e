"""Scheduler factory: instantiate any scheduler of the evaluation by name.

Lives in ``core`` (the top of the library layering DAG — ``core`` may
depend on ``schedulers``) so that subsystems like ``serve`` can build
schedulers without umbrella-importing the top-level ``repro`` package.
``repro.make_scheduler`` re-exports this function unchanged.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence, Union

__all__ = ["make_scheduler"]


def make_scheduler(name: str,
                   history: Union[Sequence[Any], Callable[[], Sequence[Any]]],
                   **kwargs: Any) -> Any:
    """Instantiate a scheduler by name.

    Parameters
    ----------
    name:
        One of ``fifo``, ``sjf``, ``qssf``, ``tiresias``, ``horus``,
        ``lucid``.
    history:
        Historical jobs (required by the learned schedulers; ignored by
        the others), or a zero-argument callable returning them, called
        only when the scheduler trains on history.
    kwargs:
        Forwarded to the scheduler constructor (e.g. ``config=`` for
        Lucid).
    """
    # Lazy: pulling in every scheduler (and Lucid's model stack) is too
    # heavy for module import time.
    from repro.core.lucid import LucidScheduler
    from repro.schedulers import (
        FIFOScheduler,
        HorusScheduler,
        QSSFScheduler,
        SJFScheduler,
        TiresiasScheduler,
    )

    def past() -> Sequence[Any]:
        return history() if callable(history) else history

    factories = {
        "fifo": lambda: FIFOScheduler(**kwargs),
        "sjf": lambda: SJFScheduler(**kwargs),
        "qssf": lambda: QSSFScheduler(past(), **kwargs),
        "tiresias": lambda: TiresiasScheduler(**kwargs),
        "horus": lambda: HorusScheduler(past(), **kwargs),
        "lucid": lambda: LucidScheduler(past(), **kwargs),
    }
    try:
        return factories[name.lower()]()
    except KeyError:
        raise KeyError(f"unknown scheduler {name!r}; "
                       f"known: {sorted(factories)}") from None
