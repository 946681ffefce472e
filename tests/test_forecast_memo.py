"""Lucid's hourly forecast memo and the scheduler's weak engine reference.

A control pass reuses the last ``(current, forecast)`` while the hour of
``now``, whether ``now`` is on the hour, and the submission count are
unchanged (DESIGN.md §4).  These tests pin that the memo agrees with an
uncached evaluation on every control pass of a contended replay, that
the sanitizer recomputes every hit and catches a key that drops either
component, that snapshots do not carry the memo, and that a dropped
simulator is freed by reference counting alone.
"""

from __future__ import annotations

import gc
import math
import pickle
import weakref

import pytest

from repro.checks import SanitizerError, SimSanitizer
from repro.core.lucid import LucidConfig, LucidScheduler
from repro.obs import SimProfiler
from repro.sim.engine import Simulator
from repro.traces.generator import TraceGenerator
from repro.traces.spec import VENUS, TraceSpec

#: Small enough to sanitize in ~1 s; its control passes hit the memo.
TIGHT = TraceSpec(name="tight", n_nodes=6, n_vcs=2, n_jobs=200,
                  full_n_jobs=200, mean_duration=3000.0, span_days=0.5,
                  n_users=16, seed=5)


def lucid_sim(spec: TraceSpec, scheduler_cls=LucidScheduler,
              **kwargs) -> Simulator:
    generator = TraceGenerator(spec)
    cluster = generator.build_cluster()
    history = generator.generate_history()
    jobs = generator.generate()
    return Simulator(cluster, jobs, scheduler_cls(history, LucidConfig(seed=7)),
                     **kwargs)


class RecordingLucid(LucidScheduler):
    """Records each pass's memoized pair next to an uncached one."""

    def attach(self, engine) -> None:
        super().attach(engine)
        self.passes = []

    def _forecast(self, now):
        memo = self._forecast_memo
        got = super()._forecast(now)
        self.passes.append((got, self._evaluate_forecast(now),
                            self._forecast_memo is memo))
        return got


class CountBlindLucid(LucidScheduler):
    """Mutant: a key without the submission count."""

    def _forecast_key(self, now):
        return super()._forecast_key(now)[:-1]


class AlignmentBlindLucid(LucidScheduler):
    """Mutant: a key without the on-the-hour flag."""

    def _forecast_key(self, now):
        key = super()._forecast_key(now)
        return key[0], key[-1]


def _bits(pair):
    return [value.hex() for value in pair]


def test_memo_agrees_with_uncached_forecast():
    sim = lucid_sim(VENUS.with_jobs(400), RecordingLucid)
    sim.run()
    passes = sim.scheduler.passes
    assert len(passes) == 1012
    assert sum(1 for _, _, hit in passes if not hit) == 393
    for got, fresh, _ in passes:
        assert _bits(got) == _bits(fresh)


def test_sanitizer_recomputes_every_hit():
    sim = lucid_sim(TIGHT, observers=[SimSanitizer(), SimProfiler()])
    sim.run()
    misses = sim.profiler.counters["forecast_evaluations"]
    assert 0 < misses < len(sim.scheduler.mode_history)


@pytest.mark.parametrize("mutant", [CountBlindLucid, AlignmentBlindLucid])
def test_incomplete_key_trips_the_sanitizer(mutant):
    sim = lucid_sim(TIGHT, mutant, observers=[SimSanitizer()])
    with pytest.raises(SanitizerError, match="memoized"):
        sim.run()


def test_a_now_beside_an_hour_is_its_own_key():
    scheduler = LucidScheduler(TraceGenerator(TIGHT).generate_history())
    hour = 5 * 3600.0
    assert scheduler._forecast_key(hour) == (5.0, False, 0)
    assert scheduler._forecast_key(hour + 1800.0) == (5.0, True, 0)
    for now in (math.nextafter(hour, 0.0), math.nextafter(hour, hour + 1)):
        assert scheduler._forecast_key(now) == (now, 0)


def test_memo_is_not_pickled():
    sim = lucid_sim(TIGHT)
    sim.begin()
    while sim.scheduler._forecast_memo is None:
        assert sim.step_batch()
    state = sim.scheduler.__getstate__()
    assert "_forecast_memo" not in state
    assert state["engine"] is sim
    loaded = pickle.loads(pickle.dumps(sim))
    assert loaded.scheduler._forecast_memo is None
    assert loaded.scheduler.engine is loaded


def test_dropped_simulator_is_freed_without_the_collector():
    """The scheduler refers to its engine weakly, so a finished replay
    is not a cycle that waits for a gen-2 collection."""
    sim = lucid_sim(VENUS.with_jobs(60))
    sim.run()
    engine, scheduler = weakref.ref(sim), weakref.ref(sim.scheduler)
    gc.disable()
    try:
        del sim
        assert engine() is None
        assert scheduler() is None
    finally:
        gc.enable()
