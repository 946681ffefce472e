"""In-process service tests: ticks, recovery bit-identity, HTTP, modes.

The daemon is driven directly (no subprocess, no service loop sleeps):
``tick()`` is called explicitly, "crashes" abandon the store without a
graceful close, and recovered state is compared digest-for-digest with
a never-crashed control — the in-process half of the chaos invariant
(:mod:`tests.test_serve_signals` covers the real-signal half).
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.checks.sanitizer import occupancy_drift
from repro.serve import ServeConfig, ServeDaemon
from repro.serve.chaos import commit_digests, final_state
from repro.serve.config import ConfigMismatchError
from repro.serve.core import SimCore
from repro.serve.http import DegradedError
from repro.serve.inbox import name_seq
from repro.serve.jobspec import JobSpecError
from repro.serve.store import Store
from repro.sim.engine import SimulationError

#: Small, fast service workload (seconds-scale end to end).
CONFIG = ServeConfig(trace="venus", scheduler="fifo", jobs=20, seed=7,
                     batch=8, events_per_tick=64)
#: Tiny batching so a 6-job run spans enough ticks to crash mid-run.
RECOVERY_CONFIG = ServeConfig(trace="venus", scheduler="fifo", jobs=20,
                              seed=7, batch=1, events_per_tick=1)

SPEC = {
    "name": "resnet50", "user": "alice", "vc": "vc01",
    "gpu_num": 1, "duration": 600.0,
    "profile": {"gpu_util": 60.0, "gpu_mem_util": 30.0,
                "gpu_mem_mb": 12000.0},
}


def make_daemon(state_dir, config=CONFIG, **kwargs):
    kwargs.setdefault("durable", False)
    kwargs.setdefault("snapshot_every", 3)
    return ServeDaemon(str(state_dir), config, **kwargs)


def submit_n(daemon, n, **overrides):
    for index in range(n):
        daemon.submit(dict(SPEC, name=f"job{index}", **overrides))


def run_to_idle(daemon, limit=500):
    ticks = 0
    while daemon.tick():
        ticks += 1
        assert ticks < limit, "service never went idle"
    return ticks


def crash(daemon):
    """Abandon the daemon as a SIGKILL would: no drain, no clean flag."""
    daemon.wal.close()
    daemon.store.close()
    daemon._started = False  # neuter close() for the fixture teardown


# ----------------------------------------------------------------------
# The service tick
# ----------------------------------------------------------------------
class TestServiceTicks:
    def test_genesis_then_run_to_completion(self, tmp_path):
        with make_daemon(tmp_path) as daemon:
            assert daemon.recovery.genesis
            submit_n(daemon, 3)
            ticks = run_to_idle(daemon)
            assert ticks >= 1
            statuses = daemon.status()["jobs"]
            assert len(statuses) == 3
            assert all(row["status"] == "finished" for row in statuses)
            assert daemon.metrics()["jobs_finished"] == 3
        with Store(str(tmp_path)) as store:
            assert store.is_clean()
            assert len(store.jobs()) == 3

    def test_tick_is_idle_without_work(self, tmp_path):
        with make_daemon(tmp_path) as daemon:
            assert daemon.tick() is False

    def test_admission_is_journaled_before_applied(self, tmp_path):
        with make_daemon(tmp_path) as daemon:
            submit_n(daemon, 1)
            daemon.tick()
            wal = daemon.wal
            records = [r.rec for segment in wal.segments()
                       for r in wal.replay_segment(segment)]
        kinds = [rec["kind"] for rec in records]
        assert kinds.index("tick") < kinds.index("commit")
        tick_rec = records[kinds.index("tick")]
        # Full specs ride in the WAL: replay needs no inbox files.
        assert tick_rec["specs"][0]["name"] == "job0"
        assert daemon.inbox.pending(set()) == []  # consumed file deleted

    def test_rejected_wide_job_is_cataloged_as_rejection(self, tmp_path):
        with make_daemon(tmp_path) as daemon:
            with pytest.raises(JobSpecError, match="exceeds VC"):
                daemon.submit(dict(SPEC, gpu_num=10_000))
            # Unplaceable specs dropped straight into the inbox (no HTTP
            # validation) must be rejected at admission, not deadlock.
            daemon.inbox.submit(dict(SPEC, gpu_num=10_000),
                                daemon.core.consumed,
                                daemon.core.consumed_seq)
            daemon.tick()
            assert daemon.status()["jobs"] == []

    def test_restart_requires_matching_config(self, tmp_path):
        with make_daemon(tmp_path) as daemon:
            submit_n(daemon, 1)
            daemon.tick()
        other = ServeConfig(trace="venus", scheduler="lucid", jobs=20,
                            seed=7)
        with pytest.raises(ConfigMismatchError, match="scheduler"):
            make_daemon(tmp_path, config=other).start()

    def test_stored_config_used_when_none_requested(self, tmp_path):
        with make_daemon(tmp_path) as daemon:
            submit_n(daemon, 1)
            run_to_idle(daemon)
        with make_daemon(tmp_path, config=None) as daemon:
            assert daemon.core.config == CONFIG


# ----------------------------------------------------------------------
# Crash recovery (in-process)
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def _control(self, state_dir, jobs=6):
        with make_daemon(state_dir, config=RECOVERY_CONFIG) as daemon:
            submit_n(daemon, jobs)
            run_to_idle(daemon)
        return commit_digests(str(state_dir)), final_state(str(state_dir))

    def test_recovery_is_bit_identical_mid_run(self, tmp_path):
        digests, final = self._control(tmp_path / "control", jobs=12)
        assert len(digests) > 10, "workload too small to crash mid-run"

        crashed = tmp_path / "crashed"
        daemon = make_daemon(crashed, config=RECOVERY_CONFIG)
        daemon.start()
        submit_n(daemon, 12)
        for _ in range(10):  # past 3 x snapshot_every=3: replay over one
            daemon.tick()
        crash(daemon)
        with Store(str(crashed)) as store:
            assert not store.is_clean()
            assert store.snapshot_ticks() == [9]  # older ones dropped

        revived = make_daemon(crashed, config=RECOVERY_CONFIG)
        report = revived.start()
        assert not report.genesis and not report.clean
        assert report.snapshot_tick == 9
        assert report.replayed_ticks >= 1
        # The recovered state equals the control's at the same tick …
        assert revived.core.tick == 10
        assert revived.core.digest() == digests[10]
        # … and the rest of the run stays on the control's rails.
        run_to_idle(revived)
        revived.close()
        assert commit_digests(str(crashed)) == digests
        trial_final = final_state(str(crashed))
        assert trial_final["digest"] == final["digest"]
        assert trial_final["clean"]

    def test_inbox_names_stay_above_consumed_after_recovery(self, tmp_path):
        """Every consumed file is deleted before the crash, so only the
        recovered core (snapshot, then WAL replay) knows the names."""
        daemon = make_daemon(tmp_path, config=RECOVERY_CONFIG)
        daemon.start()
        submit_n(daemon, 4)
        for _ in range(4):  # batch=1; snapshot at tick 3, tick 4 in WAL
            daemon.tick()
        assert len(daemon.core.consumed) == 4
        assert daemon.inbox.pending(set()) == []
        crash(daemon)

        revived = make_daemon(tmp_path, config=RECOVERY_CONFIG)
        report = revived.start()
        assert report.snapshot_tick == 3 and report.replayed_ticks == 1
        highest = max(name_seq(name) for name in revived.core.consumed)
        assert revived.core.consumed_seq == highest == 4
        name = revived.submit(dict(SPEC))["file"]
        assert name_seq(name) == highest + 1
        revived.close()

    def test_uncommitted_tick_is_reapplied_and_recommitted(self, tmp_path):
        digests, _ = self._control(tmp_path / "control")
        crashed = tmp_path / "crashed"
        daemon = make_daemon(crashed, config=RECOVERY_CONFIG)
        daemon.start()
        submit_n(daemon, 6)
        daemon.tick()
        # Journal tick 2 but crash before applying/committing it.
        items = daemon.inbox.poll(daemon.core.consumed,
                                  daemon.core.config.batch)
        daemon.wal.append(daemon._tick_record(2, items))
        crash(daemon)

        revived = make_daemon(crashed, config=RECOVERY_CONFIG)
        report = revived.start()
        assert report.recommitted
        assert revived.core.tick == 2
        assert revived.core.digest() == digests[2]
        revived.close()

    def test_torn_wal_tail_is_dropped_on_recovery(self, tmp_path):
        crashed = tmp_path / "crashed"
        daemon = make_daemon(crashed)
        daemon.start()
        submit_n(daemon, 2)
        daemon.tick()
        handle = daemon.wal._handle
        handle.write('{"seq": 99, "crc": 0,')  # torn mid-append
        crash(daemon)

        revived = make_daemon(crashed)
        report = revived.start()
        assert report.torn_records == 1
        assert revived.core.tick == 1
        revived.close()

    def test_clean_restart_replays_nothing(self, tmp_path):
        with make_daemon(tmp_path) as daemon:
            submit_n(daemon, 2)
            run_to_idle(daemon)
            tick = daemon.core.tick
        with make_daemon(tmp_path) as daemon:
            report = daemon.recovery
            assert report.clean and not report.genesis
            assert report.replayed_ticks == 0
            assert report.snapshot_tick == tick  # drain snapshotted


# ----------------------------------------------------------------------
# Degraded mode
# ----------------------------------------------------------------------
class TestDegradedMode:
    def _degrade(self, daemon, monkeypatch):
        submit_n(daemon, 1)
        monkeypatch.setattr(
            type(daemon.core.sim), "step_batch",
            lambda self: (_ for _ in ()).throw(SimulationError("boom")))
        assert daemon.tick()  # the failing tick still commits

    def test_simulation_error_degrades_not_kills(self, tmp_path,
                                                 monkeypatch):
        with make_daemon(tmp_path) as daemon:
            self._degrade(daemon, monkeypatch)
            assert daemon.core.degraded == "boom"
            assert daemon.tick() is False  # no further progress
            with pytest.raises(DegradedError):
                daemon.submit(dict(SPEC))
            healthy, detail = daemon.health()
            assert not healthy and detail["degraded"] == "boom"
            assert daemon.status()["degraded"] == "boom"  # reads serve on

    def test_degraded_flag_survives_recovery(self, tmp_path, monkeypatch):
        daemon = make_daemon(tmp_path)
        daemon.start()
        self._degrade(daemon, monkeypatch)
        crash(daemon)
        # The failure stays in place across the reboot (a deterministic
        # engine fault re-fires during replay), so recovery reaches the
        # identical degraded state the commit record certified.
        revived = make_daemon(tmp_path)
        revived.start()
        try:
            assert revived.core.degraded == "boom"
            assert revived.core.tick == 1
        finally:
            revived.close()


# ----------------------------------------------------------------------
# HTTP frontend
# ----------------------------------------------------------------------
def http_call(address, path, payload=None):
    host, port = address
    url = f"http://{host}:{port}{path}"
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(url, data=data, method=(
        "POST" if data is not None else "GET"),
        # /metrics defaults to Prometheus text since the live-telemetry
        # plane landed; this helper always wants the JSON documents.
        headers={"Accept": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read()), \
                dict(response.headers)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read()), dict(err.headers)


class TestHttpFrontend:
    @pytest.fixture
    def served(self, tmp_path):
        with make_daemon(tmp_path, http_port=0, inbox_capacity=2) as daemon:
            yield daemon, daemon.http.address

    def test_submit_then_status_and_metrics(self, served):
        daemon, address = served
        code, body, _ = http_call(address, "/submit", dict(SPEC))
        assert code == 202 and body["status"] == "accepted"
        assert body["file"].endswith(".json")
        daemon.tick()
        code, body, _ = http_call(address, "/status")
        assert code == 200 and len(body["jobs"]) == 1
        code, body, _ = http_call(address, "/metrics")
        assert code == 200 and body["ticks"] == 1
        assert body["jobs_total"] == 1

    def test_healthz_ok_while_fresh(self, served):
        _, address = served
        code, body, _ = http_call(address, "/healthz")
        assert code == 200 and body["ok"]

    def test_bad_requests_are_400(self, served):
        _, address = served
        code, body, _ = http_call(address, "/submit",
                                  dict(SPEC, gpus="typo"))
        assert code == 400 and "unknown spec fields" in body["error"]
        code, body, _ = http_call(address, "/submit",
                                  dict(SPEC, vc="no-such-vc"))
        assert code == 400 and "unknown VC" in body["error"]
        code, _, _ = http_call(address, "/nowhere")
        assert code == 404

    def test_backpressure_is_429_with_retry_after(self, served):
        _, address = served
        assert http_call(address, "/submit", dict(SPEC))[0] == 202
        assert http_call(address, "/submit", dict(SPEC))[0] == 202
        code, body, headers = http_call(address, "/submit", dict(SPEC))
        assert code == 429
        assert "full" in body["error"]
        assert float(headers["Retry-After"]) > 0


# ----------------------------------------------------------------------
# Digest stability
# ----------------------------------------------------------------------
class TestDigest:
    def test_identical_histories_digest_identically(self):
        one, two = SimCore.genesis(CONFIG), SimCore.genesis(CONFIG)
        assert one.digest() == two.digest()
        for core in (one, two):
            core.admit_specs([dict(SPEC)], ["job-00000001.json"])
            core.advance()
        assert one.digest() == two.digest()

    def test_digest_tracks_state_changes(self):
        core = SimCore.genesis(CONFIG)
        before = core.digest()
        core.admit_specs([dict(SPEC)], ["job-00000001.json"])
        assert core.digest() != before

    def test_blob_round_trip_preserves_digest(self):
        core = SimCore.genesis(CONFIG)
        core.admit_specs([dict(SPEC)], ["job-00000001.json"])
        core.advance()
        clone = SimCore.from_blob(core.to_blob())
        assert clone.digest() == core.digest()
        assert clone.consumed == core.consumed
        assert clone.next_job_id == core.next_job_id

    def test_blob_round_trip_recounts_occupancy(self):
        core = SimCore.genesis(RECOVERY_CONFIG)
        core.admit_specs([dict(SPEC, gpu_num=n) for n in (1, 2, 4)],
                         [f"job-{i:08d}.json" for i in (1, 2, 3)])
        core.advance()
        cluster = core.sim.cluster
        assert cluster.n_busy_gpus > 0  # mid-run: GPUs are held
        kept = (cluster.n_busy_gpus, cluster.n_shared_gpus,
                list(cluster._memory_used),
                [node.n_free_gpus for node in cluster.nodes])
        digest = core.digest()
        # Counters are derived state: a corrupted copy must not survive
        # the pickle, the clone recounts them from the residents.
        cluster.n_busy_gpus = -1
        cluster.nodes[0].n_free_gpus = 99
        cluster.gpus[0].memory_used_mb = 1e9
        clone = SimCore.from_blob(core.to_blob())
        restored = clone.sim.cluster
        assert occupancy_drift(restored) is None
        assert (restored.n_busy_gpus, restored.n_shared_gpus,
                restored._memory_used,
                [node.n_free_gpus for node in restored.nodes]) == kept
        assert clone.digest() == digest

    def test_genesis_snapshot_stays_small(self):
        # 35,692 bytes before the occupancy counters existed; the
        # counters are recounted on load, never pickled.
        blob = SimCore.genesis(ServeConfig(trace="venus",
                                           scheduler="fifo")).to_blob()
        assert len(blob) <= 35_692 * 1.05
        for derived in (b"n_busy_gpus", b"n_shared_gpus", b"_memory_used",
                        b"n_free_gpus", b"memory_used_mb", b"n_residents",
                        b"memory_total_mb"):
            assert derived not in blob
