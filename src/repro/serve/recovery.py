"""Crash recovery: snapshot load + WAL replay + digest verification.

The recovery invariant (DESIGN.md): service state is a pure function of
(config, admitted-spec sequence, tick schedule), all journaled *before*
being applied.  Recovery therefore needs no guesswork:

1. Load the newest snapshot blob from the store (genesis always writes
   a tick-0 snapshot, so one exists whenever a config does).
2. Truncate the active WAL segment's torn tail, if the crash landed
   mid-append.
3. Replay the segment's records past the snapshot's WAL cursor: each
   ``tick`` record re-applies its admission batch and re-advances the
   simulator — both deterministic — and each ``commit`` record's state
   digest is verified against the rebuilt state.  A mismatch is a
   :class:`RecoveryError`, never a silent divergence.
4. If the final tick record lacks its commit (the crash hit between
   journal and commit), the re-applied tick is committed now.

A *clean* store (graceful shutdown) takes the same path; its WAL simply
has no records past the final snapshot, making recovery a no-op — one
code path, exercised on every boot.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.logutil import get_logger, log_context
from repro.serve.config import ServeConfig
from repro.serve.core import SimCore
from repro.serve.store import Store
from repro.serve.wal import WriteAheadLog, segment_name

__all__ = ["RecoveryError", "RecoveryReport", "apply_tick_record",
           "recover"]

logger = get_logger("serve.recovery")


class RecoveryError(RuntimeError):
    """Replayed state diverged from the journaled digests (or the WAL
    sequence is broken) — the store cannot be trusted."""


@dataclass(frozen=True)
class RecoveryReport:
    """What one boot's recovery pass did."""

    genesis: bool           #: brand-new store; no recovery needed
    clean: bool             #: previous shutdown was graceful
    snapshot_tick: int      #: tick of the snapshot replay started from
    replayed_ticks: int     #: tick records re-applied from the WAL
    recommitted: bool       #: final tick lacked its commit; written now
    torn_records: int       #: torn trailing WAL records truncated
    tick: int               #: service tick after recovery

    def describe(self) -> str:
        if self.genesis:
            return "genesis: new store initialised at tick 0"
        mode = "clean restart" if self.clean else "crash recovery"
        extra = " +1 recommitted" if self.recommitted else ""
        return (f"{mode}: snapshot tick {self.snapshot_tick}, "
                f"{self.replayed_ticks} tick(s) replayed{extra}, "
                f"{self.torn_records} torn record(s) dropped, "
                f"resuming at tick {self.tick}")


def _verify(core: SimCore, expected: str, where: str) -> None:
    actual = core.digest()
    if actual != expected:
        raise RecoveryError(
            f"state digest mismatch at {where}: replayed {actual[:12]}… "
            f"!= journaled {expected[:12]}… — replay diverged")


def genesis(store: Store, wal: WriteAheadLog,
            config: ServeConfig) -> Tuple[SimCore, RecoveryReport]:
    """Initialise a brand-new store at tick 0.

    Idempotent under crashes: the config row is written *last*, so a
    kill anywhere before that leaves a store with no config, and the
    next boot simply redoes genesis from scratch (clearing any partial
    WAL segments first).
    """
    for name in wal.segments():
        os.unlink(os.path.join(wal.wal_dir, name))
    core = SimCore.genesis(config)
    digest = core.digest()
    wal.open_segment(0, 0)
    wal.append({"kind": "genesis", "config": config.to_json(),
                "digest": digest})
    store.put_snapshot(0, wal.next_seq, digest, core.to_blob())
    store.init_config(config)  # commit point: genesis is now complete
    logger.info("genesis: %s on %s, digest %s", config.scheduler,
                config.trace, digest[:12])
    return core, RecoveryReport(genesis=True, clean=True, snapshot_tick=0,
                                replayed_ticks=0, recommitted=False,
                                torn_records=0, tick=0)


def recover(store: Store, wal: WriteAheadLog,
            requested: Optional[ServeConfig] = None,
            ) -> Tuple[SimCore, RecoveryReport]:
    """Open (or initialise) the service state; leaves the WAL appendable.

    On return the core reflects every journaled transition, the active
    WAL segment is open for append past the last valid record, and any
    uncommitted trailing tick has been re-applied and committed.
    """
    stored = store.config()
    if stored is None:
        return genesis(store, wal, requested or ServeConfig())
    if requested is not None:
        requested.check_compatible(stored)
    clean = store.is_clean()

    snapshot = store.latest_snapshot()
    if snapshot is None:
        raise RecoveryError("store has a config but no snapshot; "
                            "genesis was interrupted — delete the state "
                            "directory and start over")
    snap_tick, snap_seq, snap_digest, blob = snapshot
    core = SimCore.from_blob(blob)
    _verify(core, snap_digest, f"snapshot tick {snap_tick}")

    segment = segment_name(snap_tick)
    torn = wal.truncate_torn_tail(segment)
    replayed = 0
    last_seq = snap_seq - 1
    pending_tick: Optional[Dict[str, Any]] = None
    # The correlation context binds the segment being replayed (and,
    # per record, the tick) onto every log line emitted below — the
    # engine's and WAL's included — so a crash is traceable from the
    # structured log alone: boot → segment → tick → divergence.
    with log_context(wal_segment=segment, snapshot_tick=snap_tick):
        for record in wal.replay_segment(segment):
            if record.seq < snap_seq:
                last_seq = max(last_seq, record.seq)
                continue
            if record.seq != last_seq + 1:
                raise RecoveryError(
                    f"WAL sequence gap in {segment}: expected "
                    f"{last_seq + 1}, found {record.seq}")
            last_seq = record.seq
            if record.kind == "tick":
                with log_context(tick=int(record.rec["tick"])):
                    apply_tick_record(core, record.rec)
                    logger.debug("replayed tick (seq %d, %d spec(s))",
                                 record.seq,
                                 len(record.rec.get("specs", [])))
                replayed += 1
                pending_tick = record.rec
            elif record.kind == "commit":
                with log_context(tick=int(record.rec["tick"])):
                    _verify(core, str(record.rec["digest"]),
                            f"commit of tick {record.rec['tick']}")
                pending_tick = None
            # "genesis" / "snapshot" markers carry no state transition.

        wal.open_segment(snap_tick, last_seq + 1)
        recommitted = False
        if pending_tick is not None:
            # Crash landed between the tick journal and its commit; the
            # deterministic re-application above already rebuilt the
            # state (including ``core.tick``), so commit it now.
            with log_context(tick=core.tick):
                wal.append({"kind": "commit", "tick": core.tick,
                            "digest": core.digest(),
                            "now": core.sim.now,
                            "events": core.sim._events_processed})
                logger.info("recommitted tick %d after crash between "
                            "journal and commit", core.tick)
            recommitted = True

    report = RecoveryReport(genesis=False, clean=clean,
                            snapshot_tick=snap_tick,
                            replayed_ticks=replayed,
                            recommitted=recommitted, torn_records=torn,
                            tick=core.tick)
    logger.info("%s", report.describe())
    return core, report


def apply_tick_record(core: SimCore,
                      rec: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Apply one journaled tick: admissions, then bounded advance.

    The *only* code path that mutates core state from a tick record —
    the live daemon and WAL replay both call it, so what recovery
    re-applies is by construction what the daemon originally did.  That
    includes ``core.tick``: the record's own tick number is the single
    source of truth, so neither caller touches the counter itself.
    Returns the admission dispositions (deterministic).
    """
    specs = rec.get("specs", [])
    files = rec.get("files", [])
    dispositions = core.admit_specs(specs, files) if files else []
    for name in rec.get("skipped", []):
        core.consume(str(name))
    core.advance()
    core.tick = int(rec["tick"])
    return dispositions
