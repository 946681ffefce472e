"""Tests for the simulator self-profiler (an observer of the engine)."""

import json

import pytest

from repro.checks import SimSanitizer
from repro.obs import (
    NULL_SPAN,
    LineageCollector,
    SeriesCollector,
    SimProfiler,
    peak_rss_mb,
)
from repro.sim import Simulator
from repro.traces import TraceGenerator


def _build(tiny_spec, scheduler="fifo", observers=()):
    from repro import make_scheduler

    generator = TraceGenerator(tiny_spec)
    return Simulator(generator.build_cluster(), generator.generate(),
                     make_scheduler(scheduler,
                                    generator.generate_history()),
                     observers=observers)


class TestProfilerUnit:
    def test_event_and_pass_accounting(self):
        profiler = SimProfiler()
        profiler.before_step()
        profiler.enter()
        profiler.exit_event("submit")
        profiler.enter()
        profiler.exit_event("submit")
        profiler.enter()
        profiler.exit_event("finish")
        profiler.add_pass(0.25)
        profiler.count("binder_attempts")
        profiler.count("binder_attempts", 2)
        with profiler.span("lucid.control"):
            pass
        profiler.after_step()
        profiler.finish(7200.0)

        assert profiler.event_counts == {"submit": 2, "finish": 1}
        assert profiler.event_seconds["submit"] >= 0.0
        assert profiler.pass_count == 1
        assert profiler.pass_seconds == 0.25
        assert profiler.counters == {"binder_attempts": 3}
        assert profiler.span_counts == {"lucid.control": 1}
        assert profiler.events_processed == 3
        assert profiler.events_per_sec > 0
        assert profiler.sim_speedup > 0

    def test_to_dict_and_reports(self):
        profiler = SimProfiler()
        profiler.before_step()
        profiler.enter()
        profiler.exit_event("submit")
        profiler.after_step()
        profiler.finish(10.0)

        data = profiler.to_dict()
        for key in ("wall_seconds", "sim_seconds", "sim_speedup",
                    "events_processed", "events_per_sec", "peak_rss_mb",
                    "event_kinds", "schedule_passes", "spans", "counters"):
            assert key in data
        assert data["events_processed"] == 1
        assert data["event_kinds"]["submit"]["count"] == 1
        # report_json round-trips; report() mentions the headline numbers.
        assert json.loads(profiler.report_json()) == data
        text = profiler.report()
        assert "events/s" in text
        assert "submit" in text

    def test_null_span_is_reusable_noop(self):
        with NULL_SPAN:
            with NULL_SPAN:
                pass

    def test_peak_rss_positive_on_linux(self):
        rss = peak_rss_mb()
        assert rss is None or rss > 0


class TestProfilerWiring:
    def test_off_by_default(self, tiny_spec):
        sim = _build(tiny_spec)
        assert sim.profiler is None
        sim.run()
        assert sim.profiler is None

    def test_attach_sets_the_profiler_handle(self, tiny_spec):
        profiler = SimProfiler()
        sim = _build(tiny_spec, observers=[profiler])
        assert sim.profiler is profiler and sim.observers == [profiler]

    def test_counts_cover_the_run(self, tiny_spec):
        profiler = SimProfiler()
        sim = _build(tiny_spec, observers=[profiler])
        result = sim.run()
        assert profiler.events_processed == sim._events_processed
        assert sum(profiler.event_counts.values()) == \
            profiler.events_processed
        assert profiler.pass_count > 0
        assert profiler.wall_seconds > 0
        assert profiler.sim_seconds == result.makespan
        assert profiler.counters.get("speed_refreshes", 0) > 0

    def test_sanitizer_sweeps_counted(self, tiny_spec):
        profiler, sanitizer = SimProfiler(), SimSanitizer()
        sim = _build(tiny_spec, observers=[profiler, sanitizer])
        sim.run()
        # One sweep per dispatched event plus one per scheduler pass;
        # the sanitizer counts its own sweeps, the profiler none.
        assert sanitizer.checks_run == \
            profiler.events_processed + profiler.pass_count
        assert "sanitizer_sweeps" not in profiler.counters

    def test_lucid_hot_path_counters_and_spans(self, tiny_spec):
        profiler = SimProfiler()
        sim = _build(tiny_spec, scheduler="lucid", observers=[profiler])
        sim.run()
        assert profiler.counters.get("estimator_predictions", 0) > 0
        assert profiler.span_counts.get("lucid.control", 0) > 0
        assert profiler.span_counts.get("lucid.orchestrate", 0) > 0


class TestBitIdentity:
    """The zero-overhead contract: profiling and series collection must
    never perturb simulated outcomes, for every scheduler archetype."""

    @pytest.mark.parametrize("scheduler", ["fifo", "tiresias", "lucid"])
    def test_profiled_run_bit_identical(self, tiny_spec, scheduler):
        plain = _build(tiny_spec, scheduler=scheduler).run()
        instrumented = _build(
            tiny_spec, scheduler=scheduler,
            observers=[SimProfiler(),
                       SeriesCollector(interval=600.0)]).run()
        assert instrumented.summary() == plain.summary()
        assert [(r.job_id, r.jct, r.queue_delay, r.preemptions)
                for r in instrumented.records] == \
               [(r.job_id, r.jct, r.queue_delay, r.preemptions)
                for r in plain.records]


class TestLateAttach:
    """``Simulator.observe`` after ``begin()`` equals construction-time
    attach from the first step on."""

    def test_profiler_and_lineage_match_early_ones(self, tiny_spec):
        early = (SimProfiler(), LineageCollector())
        late = (SimProfiler(), LineageCollector())
        sim = _build(tiny_spec, scheduler="lucid", observers=early)
        sim.run()
        other = _build(tiny_spec, scheduler="lucid")
        other.begin()
        for observer in late:
            other.observe(observer)
        while other.step_batch():
            pass
        other.finalize()

        def stepped(profiler):
            # Model training runs inside begin(), before a late attach.
            return {name: count
                    for name, count in profiler.span_counts.items()
                    if not name.startswith("lucid.fit.")}

        (early_prof, early_lineage), (late_prof, late_lineage) = early, late
        assert late_prof.counters == early_prof.counters
        assert stepped(late_prof) == stepped(early_prof)
        assert stepped(late_prof).get("lucid.control", 0) > 0
        assert late_prof.event_counts == early_prof.event_counts
        assert late_prof.events_processed == other._events_processed
        assert late_prof.pass_count == early_prof.pass_count
        assert late_prof.wall_seconds > 0
        assert late_lineage.events == early_lineage.events

    def test_sanitizer_joining_mid_run_checks_the_rest(self, tiny_spec):
        expected = _build(tiny_spec, scheduler="lucid").run().summary()
        sim = _build(tiny_spec, scheduler="lucid")
        sim.begin()
        for _ in range(25):
            sim.step_batch()
        sanitizer = SimSanitizer()
        sim.observe(sanitizer)
        steps = 0
        while sim.step_batch():
            steps += 1
        result = sim.finalize()
        assert sanitizer.passes_matched == steps > 0
        assert sanitizer.checks_run > steps
        assert result.summary() == expected
