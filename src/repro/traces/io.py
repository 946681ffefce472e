"""Trace import/export.

The reproduction ships synthetic generators, but a downstream user with
access to the *real* public traces should be able to replay them.  This
module reads and writes job traces as CSV in three dialects:

* **native** — this project's own columns (round-trips everything,
  including resource profiles).
* **helios** — the column layout of the published SenseTime Helios traces
  (``job_id, user, vc, gpu_num, state, submit_time, duration, ...``).
* **philly** — the column layout of the published Microsoft Philly trace
  (``jobid, user, vc, submitted_time, run_time, num_gpus, status, ...``).

External rows carry no resource profiles (those traces predate Lucid's
profiler), so imported jobs are assigned profiles by sampling the model
zoo with the same hierarchical heuristic the paper uses for its own
workload assignment (§4.1): long/large jobs skew toward heavy models.
"""

from __future__ import annotations

import csv
import pathlib
from typing import Dict, List, Optional, Sequence, TextIO, Union

import numpy as np

from repro.workloads.job import Job
from repro.workloads.model_zoo import (
    HEAVY_MODELS,
    LIGHT_MODELS,
    MODEL_ZOO,
    ResourceProfile,
)

NATIVE_COLUMNS = [
    "job_id", "name", "user", "vc", "submit_time", "duration", "gpu_num",
    "gpu_util", "gpu_mem_util", "gpu_mem_mb", "amp", "template_id",
]

#: Completed-state markers accepted when filtering external traces.
_DONE_STATES = {"completed", "pass", "passed", "succeeded", "killed",
                "failed", "canceled", "cancelled"}


class TraceParseError(ValueError):
    """Raised when a trace file cannot be interpreted."""


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------
def write_native_csv(jobs: Sequence[Job],
                     path: Union[str, pathlib.Path, TextIO]) -> int:
    """Write jobs in the native dialect; returns the row count."""
    close = False
    if isinstance(path, (str, pathlib.Path)):
        handle = open(path, "w", newline="")
        close = True
    else:
        handle = path
    try:
        writer = csv.writer(handle)
        writer.writerow(NATIVE_COLUMNS)
        for job in jobs:
            writer.writerow([
                job.job_id, job.name, job.user, job.vc,
                f"{job.submit_time:.3f}", f"{job.duration:.3f}",
                job.gpu_num,
                f"{job.profile.gpu_util:.3f}",
                f"{job.profile.gpu_mem_util:.3f}",
                f"{job.profile.gpu_mem_mb:.3f}",
                int(job.amp),
                "" if job.template_id is None else job.template_id,
            ])
        return len(jobs)
    finally:
        if close:
            handle.close()


# ---------------------------------------------------------------------------
# Import
# ---------------------------------------------------------------------------
def read_trace_csv(path: Union[str, pathlib.Path, TextIO],
                   dialect: str = "auto",
                   seed: int = 0,
                   max_jobs: Optional[int] = None) -> List[Job]:
    """Read a job trace.

    Parameters
    ----------
    path:
        CSV file path or open text handle.
    dialect:
        ``"native"``, ``"helios"``, ``"philly"`` or ``"auto"`` (sniff from
        the header).
    seed:
        RNG seed for profile assignment of external dialects.
    max_jobs:
        Optional cap on imported rows (paper-scale traces are large).
    """
    close = False
    if isinstance(path, (str, pathlib.Path)):
        handle = open(path, newline="")
        close = True
    else:
        handle = path
    try:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise TraceParseError("empty trace file")
        fields = [f.strip().lower() for f in reader.fieldnames]
        reader.fieldnames = fields
        resolved = _resolve_dialect(dialect, fields)
        parser = {
            "native": _parse_native_row,
            "helios": _parse_helios_row,
            "philly": _parse_philly_row,
        }[resolved]
        rng = np.random.default_rng(seed)
        jobs: List[Job] = []
        next_id = 1
        for index, row in enumerate(reader):
            if max_jobs is not None and len(jobs) >= max_jobs:
                break
            parsed = parser(row, index)
            if parsed is None:
                continue
            job_id, name, user, vc, submit, duration, gpus, profile, amp, tid \
                = parsed
            if profile is None:
                profile, amp = _assign_profile(duration, gpus, rng)
            if job_id is None:
                job_id = next_id
            next_id = max(next_id, job_id + 1)
            jobs.append(Job(
                job_id=job_id, name=name, user=user, vc=vc,
                submit_time=submit, duration=duration, gpu_num=gpus,
                profile=profile, amp=amp, template_id=tid,
            ))
        jobs.sort(key=lambda j: (j.submit_time, j.job_id))
        _normalize_epoch(jobs)
        return jobs
    finally:
        if close:
            handle.close()


def _resolve_dialect(dialect: str, fields: List[str]) -> str:
    if dialect != "auto":
        if dialect not in ("native", "helios", "philly"):
            raise TraceParseError(f"unknown dialect {dialect!r}")
        return dialect
    if set(NATIVE_COLUMNS) <= set(fields):
        return "native"
    if "submitted_time" in fields or "run_time" in fields:
        return "philly"
    if "submit_time" in fields and "duration" in fields:
        return "helios"
    raise TraceParseError(
        f"cannot sniff trace dialect from header {fields!r}")


def _get(row: Dict[str, str], *names: str) -> Optional[str]:
    for name in names:
        value = row.get(name)
        if value is not None and value.strip() != "":
            return value.strip()
    return None


def _parse_float(value: Optional[str]) -> Optional[float]:
    if value is None:
        return None
    try:
        return float(value)
    except ValueError:
        return None


def _parse_native_row(row: Dict[str, str], index: int):
    duration = _parse_float(_get(row, "duration"))
    submit = _parse_float(_get(row, "submit_time"))
    gpus = _parse_float(_get(row, "gpu_num"))
    if duration is None or submit is None or gpus is None or duration <= 0:
        return None
    profile = ResourceProfile(
        gpu_util=float(_get(row, "gpu_util")),
        gpu_mem_util=float(_get(row, "gpu_mem_util")),
        gpu_mem_mb=float(_get(row, "gpu_mem_mb")),
        amp=bool(int(_get(row, "amp") or 0)),
    )
    template = _get(row, "template_id")
    return (
        int(float(_get(row, "job_id"))),
        _get(row, "name") or f"job{index}",
        _get(row, "user") or "unknown",
        _get(row, "vc") or "default",
        submit, duration, int(gpus), profile, profile.amp,
        int(template) if template else None,
    )


def _parse_helios_row(row: Dict[str, str], index: int):
    state = (_get(row, "state", "status") or "completed").lower()
    if state not in _DONE_STATES:
        return None
    duration = _parse_float(_get(row, "duration", "run_time"))
    submit = _parse_float(_get(row, "submit_time", "submitted_time"))
    gpus = _parse_float(_get(row, "gpu_num", "num_gpu", "num_gpus"))
    if duration is None or submit is None or duration <= 0:
        return None
    gpu_num = max(1, int(gpus or 1))
    raw_id = _get(row, "job_id", "jobid", "job id")
    return (
        _coerce_id(raw_id),
        _get(row, "job_name", "jobname", "name") or f"job{index}",
        _get(row, "user", "user_name") or "unknown",
        _get(row, "vc", "vc_name", "virtual_cluster") or "default",
        submit, duration, gpu_num, None, False, None,
    )


def _parse_philly_row(row: Dict[str, str], index: int):
    status = (_get(row, "status", "state") or "passed").lower()
    if status not in _DONE_STATES:
        return None
    duration = _parse_float(_get(row, "run_time", "runtime", "duration"))
    submit = _parse_float(_get(row, "submitted_time", "submit_time"))
    gpus = _parse_float(_get(row, "num_gpus", "gpu_num", "num_gpu"))
    if duration is None or submit is None or duration <= 0:
        return None
    raw_id = _get(row, "jobid", "job_id")
    return (
        _coerce_id(raw_id),
        _get(row, "jobname", "job_name") or f"job{index}",
        _get(row, "user", "vc_user") or "unknown",
        _get(row, "vc") or "default",
        submit, duration, max(1, int(gpus or 1)), None, False, None,
    )


def _coerce_id(raw: Optional[str]) -> Optional[int]:
    if raw is None:
        return None
    digits = "".join(ch for ch in raw if ch.isdigit())
    return int(digits) if digits else None


def _assign_profile(duration: float, gpu_num: int,
                    rng: np.random.Generator):
    """Hierarchical workload assignment for external rows (paper §4.1)."""
    heavy_bias = 0.0
    if duration > 6 * 3600.0:
        heavy_bias += 1.0
    if gpu_num >= 8:
        heavy_bias += 1.0
    pool = HEAVY_MODELS if rng.random() < 0.25 * heavy_bias + 0.2 \
        else LIGHT_MODELS
    model = MODEL_ZOO[pool[int(rng.integers(len(pool)))]]
    batch = int(rng.choice(np.array(model.batch_sizes)))
    amp = bool(model.supports_amp and rng.random() < 0.5)
    return model.profile(batch, amp), amp


def _normalize_epoch(jobs: List[Job]) -> None:
    """Shift submissions so the trace starts at t=0 (wall-clock epochs in
    the public traces would otherwise put everything billions of seconds
    out)."""
    if not jobs:
        return
    t0 = jobs[0].submit_time
    if t0 == 0.0:
        return
    for job in jobs:
        job.submit_time -= t0


def split_history(jobs: Sequence[Job], fraction: float = 0.5):
    """Chronologically split an imported trace into (history, evaluation).

    The history half plays the role of the paper's April-August training
    data; evaluation submissions are re-based to start at t=0.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    ordered = sorted(jobs, key=lambda j: j.submit_time)
    cut = int(len(ordered) * fraction)
    history, evaluation = list(ordered[:cut]), list(ordered[cut:])
    if evaluation:
        base = evaluation[0].submit_time
        for job in history:
            job.submit_time -= base
        for job in evaluation:
            job.submit_time -= base
    return history, evaluation
