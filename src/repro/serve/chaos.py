"""Chaos harness: seeded SIGKILL trials with bit-identity assertions.

The harness proves the recovery invariant end to end:

1. **Control run** — stage a trace's jobs as spec files in the inbox,
   boot the daemon as a subprocess with ``--exit-when-idle``, and let
   it run to completion untouched.  Its WAL commit records give the
   reference digest of *every* service tick, and its final snapshot the
   reference terminal state.
2. **Crash trials** — for each seeded kill point, repeat the identical
   staging, SIGKILL the daemon after a pseudo-random fraction of the
   control's wall time, then restart it.  The restarted daemon recovers
   (snapshot + WAL replay) and runs the rest of the workload.

Because every spec is staged *before* boot and admission consumes the
inbox in sorted order with a fixed batch size, the sequence of service
ticks is a pure function of the config — independent of wall-clock
timing, and therefore identical between the control and every trial no
matter where the kill lands.  The assertions exploit that:

* every tick digest a trial commits must equal the control's digest
  for the same tick (bit-identical recovery *and* bit-identical
  post-recovery execution);
* the trial's terminal state digest and summary metrics must equal the
  control's;
* the trial's store must end clean (the post-crash boot drained
  gracefully).

Wall-clock sleeps and the seeded kill-point RNG never touch simulated
time — this module is service tooling, not simulation (it is on the
determinism linter's allowlist for exactly that reason).
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.ioutil import atomic_write_text
from repro.obs.logutil import get_logger
from repro.traces.generator import TraceGenerator
from repro.traces.spec import get_spec
from repro.serve.config import ServeConfig
from repro.serve.core import SimCore
from repro.serve.jobspec import job_to_spec
from repro.serve.store import Store
from repro.serve.wal import WriteAheadLog

__all__ = ["ChaosResult", "TrialResult", "chaos_run", "stage_trace_specs"]

logger = get_logger("serve.chaos")


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one SIGKILL trial."""

    index: int
    kill_after_s: float      #: wall seconds into the run the kill landed
    killed: bool             #: False if the daemon finished first
    ticks_checked: int       #: commit digests compared against control
    failures: List[str]      #: empty = bit-identical recovery

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class ChaosResult:
    """Aggregate outcome of a chaos sweep."""

    control_wall_s: float
    control_ticks: int
    control_final: Dict[str, Any]
    trials: List[TrialResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(trial.ok for trial in self.trials)

    def describe(self) -> str:
        lines = [f"control: {self.control_ticks} ticks in "
                 f"{self.control_wall_s:.1f}s wall "
                 f"(makespan {self.control_final['sim_now']:.0f}s, "
                 f"{self.control_final['events']} events)"]
        for trial in self.trials:
            verdict = "ok" if trial.ok else "FAILED"
            killed = (f"killed at {trial.kill_after_s:.2f}s"
                      if trial.killed else "finished before kill")
            lines.append(
                f"trial {trial.index:2d}: {killed}, "
                f"{trial.ticks_checked} tick digests checked — {verdict}")
            for failure in trial.failures:
                lines.append(f"    {failure}")
        status = "all recoveries bit-identical" if self.ok \
            else "RECOVERY DIVERGENCE DETECTED"
        return "\n".join(lines + [status])


# ----------------------------------------------------------------------
# Staging & inspection helpers
# ----------------------------------------------------------------------
def stage_trace_specs(state_dir: str, config: ServeConfig) -> int:
    """Pre-stage the trace's evaluation jobs as inbox spec files.

    Staging everything before boot pins the admission schedule: the
    daemon consumes ``job-<n>.json`` in sorted order, batch by batch,
    so the tick sequence is timing-independent.  Returns the number of
    specs staged.
    """
    spec = get_spec(config.trace)
    if config.jobs is not None:
        spec = spec.with_jobs(config.jobs)
    if config.seed is not None:
        spec = spec.with_seed(config.seed)
    jobs = TraceGenerator(spec).generate()
    inbox_dir = os.path.join(state_dir, "inbox")
    for index, job in enumerate(jobs, start=1):
        payload = job_to_spec(job)
        payload.pop("job_id", None)  # the daemon assigns service ids
        atomic_write_text(os.path.join(inbox_dir, f"job-{index:08d}.json"),
                          json.dumps(payload, sort_keys=True) + "\n")
    return len(jobs)


def commit_digests(state_dir: str) -> Dict[int, str]:
    """``tick -> digest`` from every WAL commit record in a state dir."""
    wal = WriteAheadLog(os.path.join(state_dir, "wal"), durable=False)
    digests: Dict[int, str] = {}
    for segment in wal.segments():
        for record in wal.replay_segment(segment):
            if record.kind == "commit":
                digests[int(record.rec["tick"])] = \
                    str(record.rec["digest"])
    return digests


def final_state(state_dir: str) -> Dict[str, Any]:
    """Terminal summary of a drained state dir (from its last snapshot)."""
    with Store(state_dir) as store:
        clean = store.is_clean()
        snapshot = store.latest_snapshot()
        if snapshot is None:
            raise RuntimeError(f"{state_dir}: no snapshot to inspect")
        tick, _, digest, blob = snapshot
    core = SimCore.from_blob(blob)
    finished = sum(1 for row in core.job_statuses()
                   if row["status"] == "finished")
    return {"tick": tick, "digest": digest, "clean": clean,
            "sim_now": core.sim.now,
            "events": core.sim._events_processed,
            "jobs": len(core.sim.jobs), "finished": finished,
            "degraded": core.degraded}


# ----------------------------------------------------------------------
# Subprocess driver
# ----------------------------------------------------------------------
def _serve_argv(state_dir: str, config: ServeConfig) -> List[str]:
    argv = [sys.executable, "-m", "repro", "serve",
            "--state-dir", state_dir,
            "--trace", config.trace,
            "--scheduler", config.scheduler,
            "--batch", str(config.batch),
            "--events-per-tick", str(config.events_per_tick),
            "--poll-interval", "0.01",
            "--exit-when-idle", "--no-fsync"]
    if config.jobs is not None:
        argv += ["--jobs", str(config.jobs)]
    if config.seed is not None:
        argv += ["--seed", str(config.seed)]
    if config.faults is not None:
        argv += ["--faults", config.faults]
    return argv


def _spawn(state_dir: str, config: ServeConfig) -> "subprocess.Popen[bytes]":
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(_serve_argv(state_dir, config), env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)


def _run_to_completion(state_dir: str, config: ServeConfig,
                       timeout: float) -> float:
    """Boot the daemon and wait for its idle-exit; returns wall seconds."""
    started = time.monotonic()
    proc = _spawn(state_dir, config)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(
            f"daemon in {state_dir} did not drain within {timeout:.0f}s")
    if code != 0:
        raise RuntimeError(
            f"daemon in {state_dir} exited with code {code}")
    return time.monotonic() - started


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def chaos_run(workdir: str, config: ServeConfig, points: int = 20,
              chaos_seed: int = 1, timeout: float = 600.0,
              progress: Optional[Any] = None) -> ChaosResult:
    """Run the control plus ``points`` seeded SIGKILL trials.

    Kill offsets are drawn from ``random.Random(chaos_seed)`` as
    fractions of the control's wall time, so a sweep is reproducible
    for a given (config, chaos_seed, machine-speed) triple.
    """
    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    control_dir = os.path.join(workdir, "control")
    staged = stage_trace_specs(control_dir, config)
    say(f"control: staged {staged} specs; running to completion")
    control_wall = _run_to_completion(control_dir, config, timeout)
    control_digests = commit_digests(control_dir)
    control_final = final_state(control_dir)
    if not control_final["clean"]:
        raise RuntimeError("control run did not drain cleanly")
    result = ChaosResult(control_wall_s=control_wall,
                         control_ticks=max(control_digests, default=0),
                         control_final=control_final)

    rng = random.Random(chaos_seed)
    fractions = [rng.uniform(0.02, 0.95) for _ in range(points)]
    for index, fraction in enumerate(fractions):
        kill_after = fraction * control_wall
        trial_dir = os.path.join(workdir, f"trial-{index:02d}")
        stage_trace_specs(trial_dir, config)
        proc = _spawn(trial_dir, config)
        killed = True
        try:
            proc.wait(timeout=kill_after)
            killed = False  # finished before the kill point
        except subprocess.TimeoutExpired:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
        say(f"trial {index}: "
            + (f"SIGKILL at {kill_after:.2f}s" if killed
               else "finished early")
            + "; restarting for recovery")
        # The restarted daemon recovers and runs the workload to its
        # end; --exit-when-idle drains it cleanly.
        _run_to_completion(trial_dir, config, timeout)
        trial = _check_trial(index, kill_after, killed, trial_dir,
                             control_digests, control_final)
        result.trials.append(trial)
        say(f"trial {index}: "
            + ("ok" if trial.ok else "; ".join(trial.failures)))
    return result


def _check_trial(index: int, kill_after: float, killed: bool,
                 trial_dir: str, control_digests: Dict[int, str],
                 control_final: Dict[str, Any]) -> TrialResult:
    failures: List[str] = []
    trial_digests = commit_digests(trial_dir)
    checked = 0
    for tick in sorted(trial_digests):
        expected = control_digests.get(tick)
        if expected is None:
            failures.append(
                f"tick {tick}: trial committed a tick the control "
                "never ran")
            continue
        checked += 1
        if trial_digests[tick] != expected:
            failures.append(
                f"tick {tick}: digest {trial_digests[tick][:12]}… != "
                f"control {expected[:12]}…")
    missing = set(control_digests) - set(trial_digests)
    if missing:
        failures.append(
            f"trial never committed tick(s) {sorted(missing)[:5]}")
    trial_final = final_state(trial_dir)
    for key in ("digest", "sim_now", "events", "jobs", "finished",
                "degraded"):
        if trial_final[key] != control_final[key]:
            failures.append(
                f"final {key}: {trial_final[key]!r} != control "
                f"{control_final[key]!r}")
    if not trial_final["clean"]:
        failures.append("trial store not clean after drain")
    return TrialResult(index=index, kill_after_s=kill_after,
                       killed=killed, ticks_checked=checked,
                       failures=failures)
