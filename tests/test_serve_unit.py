"""Unit tests for the serve subsystem's durable building blocks.

Covers the WAL (checksums, torn-tail tolerance, corruption, rotation),
the sqlite store (config, clean flag, snapshots), the bounded inbox
(ordering, backpressure, name reuse), job specs (validation, exact
round-trip), the serve config, and the atomic-write helpers' durability
contract (fsync discipline, verified by monkeypatching ``os.fsync``).
"""

from __future__ import annotations

import json
import os
from typing import List

import pytest

from repro.obs import ioutil
from repro.obs.ioutil import atomic_write_text, tmp_path
from repro.serve import (
    Inbox,
    JobSpecError,
    ServeConfig,
    WalRecord,
    WriteAheadLog,
    job_from_spec,
    job_to_spec,
)
from repro.serve.config import ConfigMismatchError
from repro.serve.inbox import InboxFullError, name_seq
from repro.serve.store import Store
from repro.serve.wal import (
    WalCorruptionError,
    segment_name,
    segment_tick,
)

SPEC = {
    "name": "resnet50", "user": "alice", "vc": "vc1",
    "gpu_num": 2, "duration": 3600.0,
    "profile": {"gpu_util": 60.0, "gpu_mem_util": 30.0,
                "gpu_mem_mb": 12000.0},
}


# ----------------------------------------------------------------------
# WAL
# ----------------------------------------------------------------------
class TestWal:
    def test_segment_names_round_trip(self):
        assert segment_name(0) == "wal-00000000.jsonl"
        assert segment_tick(segment_name(123)) == 123
        assert segment_tick("serve.sqlite") is None
        assert segment_tick("wal-1.jsonl") is None  # unpadded: not ours

    def test_append_replay_round_trip(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal"), durable=False)
        wal.open_segment(0, 0)
        wal.append({"kind": "tick", "tick": 1})
        wal.append({"kind": "commit", "tick": 1, "digest": "d1"})
        wal.close()
        records = list(wal.replay_segment(segment_name(0)))
        assert [r.seq for r in records] == [0, 1]
        assert [r.kind for r in records] == ["tick", "commit"]
        assert records[1].rec["digest"] == "d1"

    def test_seq_continues_across_rotation(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal"), durable=False)
        wal.open_segment(0, 0)
        wal.append({"kind": "tick", "tick": 1})
        wal.open_segment(1, wal.next_seq)  # rotation at snapshot tick 1
        wal.append({"kind": "tick", "tick": 2})
        wal.close()
        assert wal.segments() == [segment_name(0), segment_name(1)]
        (second,) = wal.replay_segment(segment_name(1))
        assert second.seq == 1

    def test_torn_tail_is_tolerated_and_truncated(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal"), durable=False)
        wal.open_segment(0, 0)
        wal.append({"kind": "tick", "tick": 1})
        wal.close()
        path = tmp_path / "wal" / segment_name(0)
        with open(path, "a") as handle:
            handle.write('{"seq": 1, "crc": 0, "rec"')  # crash mid-append
        records = list(wal.replay_segment(segment_name(0)))
        assert [r.seq for r in records] == [0]
        assert wal.truncate_torn_tail(segment_name(0)) == 1
        assert wal.truncate_torn_tail(segment_name(0)) == 0  # idempotent
        assert [r.seq for r in wal.replay_segment(segment_name(0))] == [0]

    def test_checksum_damage_mid_file_is_corruption(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal"), durable=False)
        wal.open_segment(0, 0)
        wal.append({"kind": "tick", "tick": 1})
        wal.append({"kind": "commit", "tick": 1, "digest": "d"})
        wal.close()
        path = tmp_path / "wal" / segment_name(0)
        lines = path.read_text().splitlines(keepends=True)
        first = json.loads(lines[0])
        first["crc"] ^= 1  # flip a checksum bit in a NON-trailing record
        path.write_text(json.dumps(first) + "\n" + lines[1])
        with pytest.raises(WalCorruptionError):
            list(wal.replay_segment(segment_name(0)))

    def test_missing_segment_replays_empty(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal"), durable=False)
        assert list(wal.replay_segment(segment_name(7))) == []
        assert wal.truncate_torn_tail(segment_name(7)) == 0

    def test_append_without_segment_fails(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal"), durable=False)
        with pytest.raises(RuntimeError):
            wal.append({"kind": "tick"})

    def test_record_decode_rejects_damage(self):
        record = WalRecord(seq=3, rec={"kind": "tick"})
        assert WalRecord.decode(record.encode()) == record
        with pytest.raises(ValueError):
            WalRecord.decode(record.encode().replace("tick", "tock"))


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------
class TestStore:
    def test_config_round_trip_and_single_genesis(self, tmp_path):
        config = ServeConfig(trace="venus", scheduler="fifo", jobs=30)
        with Store(str(tmp_path)) as store:
            assert store.config() is None
            store.init_config(config)
            assert store.config() == config
            with pytest.raises(RuntimeError):
                store.init_config(config)
        with Store(str(tmp_path)) as store:  # persists across opens
            assert store.config() == config

    def test_clean_flag_protocol(self, tmp_path):
        with Store(str(tmp_path)) as store:
            assert store.is_clean()  # brand-new store is trusted
            store.mark_dirty()
            assert not store.is_clean()
        with Store(str(tmp_path)) as store:  # SIGKILL leaves dirty behind
            assert not store.is_clean()
            store.mark_clean()
            assert store.is_clean()

    def test_snapshots_latest_wins(self, tmp_path):
        with Store(str(tmp_path)) as store:
            assert store.latest_snapshot() is None
            store.put_snapshot(0, 1, "d0", b"blob0")
            store.put_snapshot(25, 60, "d25", b"blob25")
            assert store.snapshot_ticks() == [25]
            tick, next_seq, digest, blob = store.latest_snapshot()
            assert (tick, next_seq, digest, blob) == (25, 60, "d25",
                                                      b"blob25")

    def test_job_catalog(self, tmp_path):
        with Store(str(tmp_path)) as store:
            store.record_job(2, 1, "admitted", SPEC)
            store.record_job(1, 1, "admitted", SPEC)
            rows = store.jobs()
            assert [row[0] for row in rows] == [1, 2]
            assert rows[0][2] == "admitted"
            assert rows[0][3]["name"] == "resnet50"

    def test_job_catalog_batch_is_one_transaction(self, tmp_path):
        with Store(str(tmp_path)) as store:
            store.record_job(1, 1, "admitted", SPEC)
            statements: List[str] = []
            store._conn.set_trace_callback(statements.append)
            store.record_jobs([(3, 2, "admitted", SPEC),
                               (2, 2, "admitted", dict(SPEC, gpu_num=2))])
            store._conn.set_trace_callback(None)
            assert statements.count("COMMIT") == 1
            assert sum(s.startswith("INSERT") for s in statements) == 2
            rows = store.jobs()
            assert [(row[0], row[1]) for row in rows] == [(1, 1), (2, 2),
                                                          (3, 2)]
            assert rows[1][3]["gpu_num"] == 2


# ----------------------------------------------------------------------
# Inbox
# ----------------------------------------------------------------------
class TestInbox:
    def test_submit_poll_in_sorted_order(self, tmp_path):
        inbox = Inbox(str(tmp_path / "inbox"))
        consumed = set()
        names = [inbox.submit(dict(SPEC, name=f"job{i}"), consumed, 0)
                 for i in range(3)]
        assert names == sorted(names)
        items = inbox.poll(consumed, batch=2)
        assert [item.name for item in items] == names[:2]
        assert items[0].spec["name"] == "job0"

    def test_consumed_names_are_skipped(self, tmp_path):
        inbox = Inbox(str(tmp_path / "inbox"))
        consumed = set()
        first = inbox.submit(dict(SPEC), consumed, 0)
        second = inbox.submit(dict(SPEC), consumed, 0)
        consumed.add(first)
        assert inbox.pending(consumed) == [second]

    def test_capacity_backpressure(self, tmp_path):
        inbox = Inbox(str(tmp_path / "inbox"), capacity=2, retry_after=9.0)
        consumed = set()
        inbox.submit(dict(SPEC), consumed, 0)
        inbox.submit(dict(SPEC), consumed, 0)
        with pytest.raises(InboxFullError) as err:
            inbox.submit(dict(SPEC), consumed, 0)
        assert err.value.retry_after == 9.0

    def test_names_never_reused_after_consumption(self, tmp_path):
        """A consumed-and-deleted name must not be reissued: the durable
        consumed-set would silently skip the new spec."""
        inbox = Inbox(str(tmp_path / "inbox"))
        consumed = set()
        name = inbox.submit(dict(SPEC), consumed, 0)
        consumed.add(name)
        inbox.remove([name])  # daemon deletes after journaling
        assert inbox.submit(dict(SPEC), consumed, name_seq(name)) != name

    def test_unreadable_spec_reported_not_admitted(self, tmp_path):
        inbox = Inbox(str(tmp_path / "inbox"))
        (tmp_path / "inbox" / "job-00000001.json").write_text("{nope")
        (tmp_path / "inbox" / "job-00000002.json").write_text("[1, 2]")
        items = inbox.poll(set(), batch=8)
        assert [item.spec for item in items] == [None, None]
        assert "unreadable" in items[0].error
        assert "object" in items[1].error

    def test_tmp_siblings_invisible(self, tmp_path):
        inbox = Inbox(str(tmp_path / "inbox"))
        (tmp_path / "inbox" / "job-00000001.json.tmp").write_text("{")
        assert inbox.pending(set()) == []


# ----------------------------------------------------------------------
# Job specs
# ----------------------------------------------------------------------
class TestJobSpec:
    def test_round_trip_is_exact(self):
        job = job_from_spec(dict(SPEC, duration=0.1 + 0.2), job_id=7)
        spec = job_to_spec(job)
        again = job_from_spec(json.loads(json.dumps(spec)), job_id=7)
        assert job_to_spec(again) == spec
        assert again.duration == job.duration  # bit-exact float

    @pytest.mark.parametrize("mutate, fragment", [
        (lambda s: s.pop("vc"), "misses required"),
        (lambda s: s.update(gpus=4), "unknown spec fields"),
        (lambda s: s.update(gpu_num=0), "positive integer"),
        (lambda s: s.update(gpu_num=True), "positive integer"),
        (lambda s: s.update(duration=-1.0), "duration"),
        (lambda s: s.update(name=""), "non-empty"),
        (lambda s: s.update(profile={}), "profile misses"),
        (lambda s: s.update(profile="big"), "must be an object"),
    ])
    def test_validation_rejects(self, mutate, fragment):
        spec = json.loads(json.dumps(SPEC))
        mutate(spec)
        with pytest.raises(JobSpecError, match=fragment):
            job_from_spec(spec, job_id=1)


# ----------------------------------------------------------------------
# Serve config
# ----------------------------------------------------------------------
class TestServeConfig:
    def test_json_round_trip(self):
        config = ServeConfig(trace="saturn", scheduler="qssf", jobs=40,
                             seed=3, faults="node_mtbf=1e5", batch=4)
        assert ServeConfig.from_json(config.to_json()) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown serve config"):
            ServeConfig.from_json('{"trace": "venus", "spice": 1}')

    def test_compatible_check_names_the_diff(self):
        stored = ServeConfig(scheduler="lucid")
        with pytest.raises(ConfigMismatchError, match="scheduler"):
            ServeConfig(scheduler="fifo").check_compatible(stored)
        ServeConfig().check_compatible(ServeConfig())  # no-op when equal

    def test_batching_bounds(self):
        with pytest.raises(ValueError):
            ServeConfig(batch=0)
        with pytest.raises(ValueError):
            ServeConfig(events_per_tick=0)


# ----------------------------------------------------------------------
# Atomic-write durability
# ----------------------------------------------------------------------
class TestAtomicWrite:
    def test_no_tmp_left_and_parents_created(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.json"
        atomic_write_text(str(target), "payload")
        assert target.read_text() == "payload"
        assert not os.path.exists(ioutil.tmp_path(str(target)))

    def test_durable_fsyncs_file_and_directory(self, tmp_path,
                                               monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd),
                                                     real_fsync(fd))[1])
        target = str(tmp_path / "state.json")
        atomic_write_text(target, "x", durable=True)
        # One fsync for the tmp file's data, one for the directory entry.
        assert len(synced) == 2

    def test_default_write_skips_fsync(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "fsync", lambda fd: pytest.fail(
            "non-durable write must not fsync"))
        atomic_write_text(str(tmp_path / "report.html"), "x")

    def test_tmp_path_is_a_sibling(self):
        assert tmp_path("/d/out.json") == "/d/out.json.tmp"
