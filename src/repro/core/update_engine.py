"""Update Engine (§3.6.2): periodic model maintenance.

Production clusters drift — new users, new model families, shifting
submission patterns.  The Update Engine collects completed-job records in
real time and periodically refits Lucid's learned models so predictions do
not go stale.  The paper measures a 4.8% queuing-delay reduction from
weekly updates on Venus (plus 1.6% more for daily); the refit itself costs
seconds to minutes (Figure 10b), so frequent updates are affordable.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.audit import DecisionAudit
from repro.obs.logutil import get_logger
from repro.workloads.job import JobRecord

logger = get_logger("core.update_engine")


class UpdateEngine:
    """Collects fresh records and refits the estimator on an interval.

    Parameters
    ----------
    estimator:
        The :class:`~repro.core.estimator.WorkloadEstimateModel` to keep
        fresh (its lightweight recurrence statistics update immediately on
        :meth:`collect`; the GA²M itself is refit on the interval).
    interval:
        Seconds of simulated time between refits; ``None`` disables
        refitting entirely (the "static model" baseline of §4.5).
    min_new_records:
        Skip a scheduled refit when fewer new records than this arrived.
    """

    def __init__(self, estimator, interval: Optional[float] = 2 * 86_400.0,
                 min_new_records: int = 50) -> None:
        self.estimator = estimator
        self.interval = interval
        self.min_new_records = min_new_records
        self._new_records = 0
        self._last_refit: Optional[float] = None
        self.refits = 0
        #: Optional :class:`repro.obs.audit.DecisionAudit`; refits are
        #: recorded there so stale-model questions ("was the estimator
        #: fresh when job 42 was placed?") are answerable post-hoc.
        self.audit: Optional[DecisionAudit] = None

    def collect(self, record: JobRecord, now: float) -> None:
        """Absorb one completed job."""
        if self.estimator is None:
            return
        self.estimator.update(record)
        self._new_records += 1
        if self._last_refit is None:
            self._last_refit = now

    def maybe_refit(self, now: float, profiler=None) -> bool:
        """Refit if the interval elapsed and enough new data arrived.

        ``profiler`` is the engine's :class:`~repro.obs.prof.SimProfiler`
        at call time, if any.  Refit wall time is measured through its
        spans — simulation code never reads the wall clock directly
        (RPR002) — and is ``None`` on unprofiled runs.
        """
        if self.estimator is None or self.interval is None:
            return False
        if self._last_refit is None:
            self._last_refit = now
            return False
        if now - self._last_refit < self.interval:
            return False
        if self._new_records < self.min_new_records:
            return False
        wall_seconds: Optional[float] = None
        if profiler is not None:
            before = profiler.span_seconds.get("lucid.refit", 0.0)
            with profiler.span("lucid.refit"):
                self.estimator.refit()
            wall_seconds = (profiler.span_seconds.get("lucid.refit", 0.0)
                            - before)
        else:
            self.estimator.refit()
        r2: Optional[float] = None
        samples: Optional[int] = None
        if self.audit is not None:
            fit_quality = getattr(self.estimator, "fit_quality", None)
            if fit_quality is not None:
                r2, samples = fit_quality()
        logger.info("refit workload estimator at t=%.0fs on %d new records",
                    now, self._new_records)
        if self.audit is not None:
            self.audit.record_refit(now, "workload_estimate",
                                    self._new_records, r2=r2,
                                    samples=samples,
                                    wall_seconds=wall_seconds)
        self._last_refit = now
        self._new_records = 0
        self.refits += 1
        return True
