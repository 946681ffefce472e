"""Pinned whole-run Lucid results: the bit-identity oracle for hot-path work.

Two contended 400-job replays with ``LucidConfig(seed=7)``.  Average JCT,
makespan, the engine's full ``state_digest`` and the Dynamic Strategy's
mode counts are pinned exactly: a speed-up of the control loop, the
forecast features or the queue bookkeeping must leave every one of them
unchanged.  A change that is *meant* to alter decisions updates these
values and says so.
"""

from collections import Counter

import pytest

from repro.core.lucid import LucidConfig, LucidScheduler
from repro.serve.core import state_digest
from repro.sim.engine import Simulator
from repro.traces.generator import TraceGenerator
from repro.traces.spec import SATURN, VENUS

GOLDEN = {
    "venus": (
        VENUS,
        4308.483614920122,
        303757.7983764063,
        "fc540609100ee65f191f141e77f3354e7c794df8722ea1f8dd7e21e6a9b41a67",
        {"DISABLED": 510, "APATHETIC": 439, "DEFAULT": 63},
    ),
    "saturn": (
        SATURN,
        8587.499945753647,
        427967.1048041586,
        "2e5008d6d1e3dcb2f92cf1b11222f4c4157ca0cf8c88706e7c2512d41ff32855",
        {"DISABLED": 763, "APATHETIC": 659, "DEFAULT": 4},
    ),
}


@pytest.mark.parametrize("trace", sorted(GOLDEN))
def test_lucid_run_is_pinned(trace):
    spec, avg_jct, makespan, digest, modes = GOLDEN[trace]
    generator = TraceGenerator(spec.with_jobs(400))
    cluster = generator.build_cluster()
    history = generator.generate_history()
    jobs = generator.generate()
    scheduler = LucidScheduler(history, LucidConfig(seed=7))
    sim = Simulator(cluster, jobs, scheduler)
    result = sim.run()

    assert len(result.records) == 400
    assert result.avg_jct == avg_jct
    assert result.makespan == makespan
    assert state_digest(sim) == digest
    assert {mode.name: count for mode, count
            in Counter(scheduler.mode_history).items()} == modes
