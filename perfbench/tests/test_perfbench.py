"""Tests of the benchmark itself: span arithmetic, wrapper lifetime,
repeatable per-layer counts and tiny smoke runs of every workload."""

from typing import Dict

import pytest

import layers
import run
import workloads
from tracing import ROOT, Patch, SpanRecorder, paused


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_of_a_nested_call_tree():
    clock = FakeClock()
    recorder = SpanRecorder(clock)

    def step(seconds):
        clock.now += seconds

    def leaf():
        step(1.0)

    def middle():
        step(2.0)
        wrapped_leaf()
        step(0.5)
        wrapped_leaf()

    def top():
        step(3.0)
        wrapped_middle()

    wrapped_leaf = recorder.wrap("leaf", leaf, detail=True)
    wrapped_middle = recorder.wrap("middle", middle)
    wrapped_top = recorder.wrap("top", top)
    wrapped_top()
    step(4.0)  # outside every span
    wrapped_leaf()

    totals = recorder.totals()
    assert totals["leaf"] == {"calls": 3, "s": 3.0, "self_s": 3.0}
    assert totals["middle"] == {"calls": 1, "s": 4.5, "self_s": 2.5}
    assert totals["top"] == {"calls": 1, "s": 7.5, "self_s": 3.0}
    assert recorder.aggregate[("leaf", "middle")] == [2, 2.0, 2.0]
    assert recorder.aggregate[("leaf", ROOT)] == [1, 1.0, 1.0]
    # Self times add up to the time covered by root spans.
    assert sum(row["self_s"] for row in totals.values()) \
        == recorder.root_seconds == 8.5
    assert recorder.durations("leaf") == [1.0, 1.0, 1.0]
    assert [(name, parent) for name, _, _, parent in recorder.spans] \
        == [("leaf", "middle"), ("leaf", "middle"), ("leaf", ROOT)]


def test_recursion_is_not_counted_twice_and_pause_records_nothing():
    clock = FakeClock()
    recorder = SpanRecorder(clock)

    def fact(n):
        clock.now += 1.0
        return 1 if n <= 1 else n * wrapped(n - 1)

    wrapped = recorder.wrap("fact", fact, hit=lambda r: r > 2)
    assert wrapped(3) == 6
    assert recorder.totals()["fact"] == {"calls": 3, "s": 3.0, "self_s": 3.0}
    assert recorder.outcomes["fact"] == [1, 3]
    with paused(recorder):
        wrapped(3)
    assert recorder.totals()["fact"]["calls"] == 3
    assert recorder.enabled


def test_patch_restores_exact_objects():
    import repro.core.orchestrator as orchestrator
    from repro.sim.metrics import UtilizationTracker

    before_fn = orchestrator.find_consolidated
    before_method = vars(UtilizationTracker)["update"]
    recorder = SpanRecorder()
    with Patch() as patch:
        layers.install(patch, recorder)
        assert orchestrator.find_consolidated is not before_fn
        assert not run.wrappers_removed()
    assert orchestrator.find_consolidated is before_fn
    assert vars(UtilizationTracker)["update"] is before_method
    assert run.wrappers_removed()
    with pytest.raises(AttributeError):
        Patch.resolve("repro.core.lucid:LucidScheduler.not_there")


def test_every_per_layer_metric_is_reported():
    names = dict(layers.metric_names())
    metrics = layers.layer_metrics(SpanRecorder())
    assert set(metrics) | set(layers.EXTRA_METRICS) == set(names)
    assert len(names) == len(layers.metric_names())  # no duplicates


def test_tail_leaves_ten_samples_beyond():
    assert workloads.tail([3.0, 1.0, 2.0]) == 3.0
    for n, expected in ((100, 89.0), (1000, 989.0), (2000, 1979.0)):
        values = [float(i) for i in range(n)]
        value = workloads.tail(values)
        assert value == expected
        assert sum(v > value for v in values) == max(10, n // 100)


def test_read_schedule_follows_the_documented_readers():
    reads = workloads.read_schedule(0.0, 10.0)
    assert [due for due, _ in reads] == sorted(due for due, _ in reads)
    per_reader = {reader: sum(1 for _, r in reads if r == reader)
                  for reader, _, _ in workloads.READERS}
    assert per_reader == {"dashboard": 5, "prometheus": 2,
                          "serve-status": 1}


def _traced_counts(body) -> Dict[str, float]:
    recorder = SpanRecorder()
    with Patch() as patch:
        layers.install(patch, recorder)
        outcome = body(recorder)
    assert run.wrappers_removed()
    metrics = layers.layer_metrics(recorder)
    return outcome, {k: v for k, v in metrics.items() if k.endswith(".calls")}


def test_venus_smoke_traced_matches_untraced_and_counts_repeat():
    def body(recorder=None):
        return workloads.run_venus(3, 0.0, recorder, replays=1, n_jobs=80)

    plain = body()
    assert plain.errors == [] and plain.failed == 0
    assert plain.fingerprint["finished"] == [80]
    first, counts = _traced_counts(body)
    second, again = _traced_counts(body)
    assert first.fingerprint == plain.fingerprint == second.fingerprint
    assert counts == again
    assert counts["sim.step_batch.calls"] > 0
    assert counts["core.forecast_next.calls"] > 0
    assert counts["cluster.find_consolidated.calls"] > 0
    assert counts["serve.tick.calls"] == 0


def test_serve_smoke_admits_everything_and_replays(tmp_path):
    plain = workloads.run_serve(7, 0.4, str(tmp_path), setups_wanted=1)
    assert plain.errors == [] and plain.failed == 0
    assert plain.fingerprint["admitted"] == plain.attempted == 20
    assert plain.fingerprint["final_digest"] \
        == plain.fingerprint["wal_replay_digest"]
    assert plain.metrics["p50_ms"] > 0
    assert plain.metrics["ops_per_s"] == 20 / plain.extra["daemon_cpu_s"]
    assert plain.extra["inbox_wait_p50_ms"] > 0
    traced, counts = _traced_counts(
        lambda recorder: workloads.run_serve(
            7, 0.4, str(tmp_path), recorder, setups_wanted=1))
    assert traced.errors == []
    assert traced.fingerprint["admitted"] == 20
    # Submissions and reads follow the generator's schedule exactly;
    # tick counts follow the wall clock.
    assert counts["serve.submit.calls"] == 20
    for reader in ("status", "metrics", "prometheus", "live_json"):
        assert counts[f"serve.{reader}.calls"] == 1
    assert counts["serve.tick.calls"] > 0
    assert list(tmp_path.iterdir()) == []
