"""The sanitizer only observes, for every scheduler, on random traces.

A sanitized run steps a reference copy of itself without pass memos and
compares decisions after every step (``repro.checks.sanitizer``).  On
small random traces, for each factory scheduler, naive-packing Lucid and
SLO-Lucid, with faults off and on, a sanitized run must raise nothing
and end on the unsanitized run's digest and work counters.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.checks import SimSanitizer
from repro.core.factory import make_scheduler
from repro.core.lucid import LucidConfig, LucidScheduler
from repro.core.slo_lucid import SLOLucidScheduler
from repro.faults import FaultSpec
from repro.obs import SimProfiler
from repro.serve.core import state_digest
from repro.sim.engine import Simulator
from repro.traces.generator import TraceGenerator
from repro.traces.slo import assign_deadlines
from repro.traces.spec import TraceSpec

#: name -> (history -> scheduler, give deadlines).
SCHEDULERS = {
    **{name: (lambda h, name=name: make_scheduler(name, h), False)
       for name in ("fifo", "sjf", "qssf", "tiresias", "horus", "lucid")},
    "lucid-naive": (lambda h: LucidScheduler(
        h, LucidConfig(seed=7, packing_policy="naive")), False),
    "lucid-slo": (lambda h: SLOLucidScheduler(h, LucidConfig(seed=7)),
                  True),
}


@st.composite
def traces(draw) -> TraceSpec:
    n_nodes = draw(st.integers(2, 6))
    n_jobs = draw(st.integers(10, 80))
    return TraceSpec(
        name="random", n_nodes=n_nodes, n_vcs=draw(st.integers(1, 2)),
        n_jobs=n_jobs, full_n_jobs=n_jobs,
        mean_duration=draw(st.floats(600.0, 6000.0)),
        span_days=draw(st.floats(0.05, 0.5)),
        n_users=draw(st.integers(4, 16)), seed=draw(st.integers(0, 999)))


faults = st.one_of(st.none(), st.builds(
    FaultSpec, seed=st.integers(0, 99),
    node_mtbf=st.floats(5000.0, 50_000.0),
    node_mttr=st.floats(300.0, 3000.0),
    profiler_mtbf=st.floats(5000.0, 50_000.0),
    crash_rate=st.floats(0.0, 0.5), slowdown_rate=st.floats(0.0, 0.3)))


def _run(name: str, spec: TraceSpec, fault_spec, sanitize: bool
         ) -> Simulator:
    make, deadlines = SCHEDULERS[name]
    generator = TraceGenerator(spec)
    jobs = generator.generate()
    if deadlines:
        assign_deadlines(jobs, fraction=0.5, seed=3)
    sim = Simulator(generator.build_cluster(), jobs,
                    make(generator.generate_history()), faults=fault_spec,
                    observers=([SimSanitizer()] if sanitize else [])
                    + [SimProfiler()])
    sim.run()
    return sim


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
@given(spec=traces(), fault_spec=faults)
@settings(max_examples=4, deadline=None)
def test_sanitized_run_is_the_plain_run(name, spec, fault_spec):
    checked = _run(name, spec, fault_spec, sanitize=True)
    plain = _run(name, spec, fault_spec, sanitize=False)
    assert checked.sanitizer.checks_run > 0
    assert checked.profiler.counters == plain.profiler.counters
    assert state_digest(checked) == state_digest(plain)
    assert checked.sanitizer.passes_matched == plain.profiler.pass_count
