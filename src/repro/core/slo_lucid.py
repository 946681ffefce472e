"""SLO-aware Lucid (paper §6 future work, in the spirit of Chronus).

The paper's first extension direction is "supporting more scheduling
objectives like fairness and SLO-guarantee".  ``SLOLucidScheduler`` adds
deadline awareness on top of Lucid's machinery:

* Jobs may carry a ``deadline`` (assign one with
  :func:`repro.traces.slo.assign_deadlines`).
* A deadline job's *slack* is ``deadline - now - estimated_remaining``.
  Jobs whose slack falls below a guard band are **urgent**: they jump to
  the front of the scheduling pass (before the priority order) so the
  next free consolidated block is theirs, and they are never packed (a
  packed job runs below full speed, eating slack).
* Non-urgent deadline jobs and best-effort jobs schedule exactly as in
  Lucid, so the JCT-optimizing behaviour is preserved when SLOs are easy.

Everything stays non-intrusive: slack uses Lucid's own duration estimate,
never the ground truth.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.lucid import LucidConfig, LucidScheduler
from repro.workloads.job import Job


class SLOLucidScheduler(LucidScheduler):
    """Lucid with an earliest-slack urgency tier for deadline jobs.

    Parameters
    ----------
    history, config, interference:
        As for :class:`LucidScheduler`.
    slack_guard:
        A deadline job becomes urgent when its estimated slack drops below
        ``slack_guard * estimated_remaining`` (relative guard band).
    """

    name = "lucid-slo"

    def __init__(self, history: Sequence[Job],
                 config: Optional[LucidConfig] = None,
                 interference=None,
                 slack_guard: float = 0.5) -> None:
        super().__init__(history, config=config, interference=interference)
        if slack_guard < 0:
            raise ValueError("slack_guard must be non-negative")
        self.slack_guard = slack_guard

    # ------------------------------------------------------------------
    def _slack(self, job: Job) -> Optional[float]:
        if job.deadline is None:
            return None
        return job.deadline - self.engine.now - self._remaining_estimate(job)

    def _is_urgent(self, job: Job) -> bool:
        slack = self._slack(job)
        if slack is None:
            return False
        guard = self.slack_guard * self._remaining_estimate(job)
        return slack <= guard

    def _priority(self, job: Job) -> float:
        # Urgent deadline jobs sort ahead of everything, ordered by slack
        # (most endangered first); the rest keep Lucid's priority.
        slack = self._slack(job)
        if slack is not None and self._is_urgent(job):
            return -1e15 + slack
        return super()._priority(job)

    def _retry_context(self) -> None:
        # The urgent-mate veto lifts as a running mate's guard band
        # shrinks, with no change in its VC, so every queued job is
        # attempted on every pass.
        return None

    def _find_mate(self, job: Job) -> Optional[Job]:
        # Packing slows the packed pair down; an urgent job cannot afford
        # it, and packing *onto* an urgent job would equally eat its slack.
        if self._is_urgent(job):
            return None
        mate = super()._find_mate(job)
        if mate is not None and self._is_urgent(mate):
            return None
        return mate
