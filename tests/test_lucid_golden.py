"""Pinned whole-run results: the bit-identity oracle for hot-path work.

Two contended 400-job Lucid replays with ``LucidConfig(seed=7)``, plus
FIFO and Tiresias on the same venus trace and one heterogeneity-aware
Lucid run on a mixed-generation cluster (whose GPUs carry per-type
memory, so the memory-occupancy integral sums unequal capacities).
Average JCT, makespan, the engine's full ``state_digest``, the
time-averaged utilization (as ``float.hex``: ``state_digest`` does not
cover it) and, for Lucid, the Dynamic Strategy's mode counts are pinned
exactly: a speed-up of the control loop, the forecast features, the
queue bookkeeping or the cluster's occupancy counters must leave every
one of them unchanged.  A change that is *meant* to alter decisions
updates these values and says so.

``EDGE_RUNS`` pin the Lucid runs an unchanged-VC retry skip could break
if its invalidation rule were incomplete: SLO-Lucid's lifting mate veto,
naive packing's live mate search, node failures / crashes / stragglers,
and instability evictions.  They were recorded before the skip existed.

``COUNTER_RUNS`` replay the Lucid and Tiresias venus@400 runs with a
:class:`~repro.obs.SimProfiler` attached and pin its work counters and
event count exactly.  Counters do not depend on the host or the hash
seed, so unlike a wall-clock bound they cannot flake; a change that
alters one (say, a placement scan skipped) updates the pin and says so,
as it would a golden value.  The pinned digest shows that profiling
changes no decision.
"""

from collections import Counter

import pytest

from repro.cluster.hetero import (
    A100,
    K80,
    RTX3090,
    V100,
    build_heterogeneous_cluster,
)
from repro.core.factory import make_scheduler
from repro.core.hetero_lucid import HeteroLucidScheduler
from repro.core.lucid import LucidConfig, LucidScheduler
from repro.core.slo_lucid import SLOLucidScheduler
from repro.faults import FaultSpec
from repro.obs import SimProfiler
from repro.serve.core import state_digest
from repro.sim.engine import Simulator
from repro.traces.generator import TraceGenerator
from repro.traces.slo import assign_deadlines
from repro.traces.spec import SATURN, VENUS, TraceSpec

GOLDEN = {
    "venus": (
        VENUS,
        4308.483614920122,
        303757.7983764063,
        "fc540609100ee65f191f141e77f3354e7c794df8722ea1f8dd7e21e6a9b41a67",
        {"DISABLED": 510, "APATHETIC": 439, "DEFAULT": 63},
        ("0x1.3fd94b87d5a3ap-5", "0x1.1dc3f8860b488p-10",
         "0x1.e2e0e0d6867bep-8"),
    ),
    "saturn": (
        SATURN,
        8587.499945753647,
        427967.1048041586,
        "2e5008d6d1e3dcb2f92cf1b11222f4c4157ca0cf8c88706e7c2512d41ff32855",
        {"DISABLED": 763, "APATHETIC": 659, "DEFAULT": 4},
        ("0x1.7145ea3986962p-6", "0x0.0p+0", "0x1.5e37d86d29bc5p-8"),
    ),
}

HETERO_SPEC = TraceSpec(
    name="hetero", n_nodes=8, n_vcs=1, n_jobs=350, full_n_jobs=350,
    mean_duration=2500.0, span_days=0.5, n_users=16, seed=555,
)


def _hetero_cluster():
    return build_heterogeneous_cluster({
        "vc01": [(A100, 2), (RTX3090, 3), (V100, 2), (K80, 1)],
    })


#: name -> (spec, scheduler factory, cluster factory or None for the
#: spec's own, records, avg JCT, makespan, digest, utilization hex).
GOLDEN_RUNS = {
    "fifo-venus": (
        VENUS.with_jobs(400), lambda h: make_scheduler("fifo", h), None,
        400, 4846.000010600566, 303557.7983764063,
        "a37adb1f98ccc4d70041a70342b8077b32810b2c20974617d35e0dcc05ab03fe",
        ("0x1.492bc6c3b7b10p-5", "0x0.0p+0", "0x1.e3292d3973e23p-8"),
    ),
    "tiresias-venus": (
        VENUS.with_jobs(400), lambda h: make_scheduler("tiresias", h), None,
        400, 3955.2399451572724, 303557.7983764063,
        "ee262d10ced93de8f9bba7c5c89fa7c4a5b1b6841bee2cfa009ffeb590ac22ce",
        ("0x1.49c1b148a15b6p-5", "0x0.0p+0", "0x1.e4172088c9bb4p-8"),
    ),
    "hetero-lucid": (
        HETERO_SPEC, lambda h: HeteroLucidScheduler(h, LucidConfig(seed=7)),
        _hetero_cluster, 350, 1350.5986954877021, 100322.32530239424,
        "42a7cefe3c7193a381ea13335f430d80643600ce268b57967bf1dbc845eeec44",
        ("0x1.ea3b68054f85cp-2", "0x1.24a6772b426edp-6",
         "0x1.28bb9173fbc33p-4"),
    ),
}


def _utilization_hex(result):
    u = result.utilization
    return (u.gpu_busy.hex(), u.gpu_shared.hex(), u.memory_used.hex())


@pytest.mark.parametrize("trace", sorted(GOLDEN))
def test_lucid_run_is_pinned(trace):
    spec, avg_jct, makespan, digest, modes, utilization = GOLDEN[trace]
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
    assert _utilization_hex(result) == utilization


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_run_is_pinned(name):
    (spec, make, make_cluster, n_records, avg_jct, makespan, digest,
     utilization) = GOLDEN_RUNS[name]
    generator = TraceGenerator(spec)
    cluster = (make_cluster() if make_cluster is not None
               else generator.build_cluster())
    history = generator.generate_history()
    jobs = generator.generate()
    sim = Simulator(cluster, jobs, make(history))
    result = sim.run()

    assert len(result.records) == n_records
    assert result.avg_jct == avg_jct
    assert result.makespan == makespan
    assert state_digest(sim) == digest
    assert _utilization_hex(result) == utilization


#: name -> (spec, scheduler factory, give deadlines, fault spec, records,
#: avg JCT, makespan, digest).
EDGE_RUNS = {
    # A wide guard band (2.0) keeps running deadline jobs urgent long
    # enough for their mate veto to lift mid-run.
    "slo-saturn-deadlines": (
        SATURN.with_jobs(800),
        lambda h: SLOLucidScheduler(h, LucidConfig(seed=7),
                                    slack_guard=2.0),
        True, None,
        800, 19285.184027362793, 733998.1434402384,
        "32c4849122bba54022f4ddbbe9d9d7e4c9b42802492d7797e41e5b3ece1190d0",
    ),
    "naive-venus": (
        VENUS.with_jobs(400),
        lambda h: LucidScheduler(h, LucidConfig(seed=7,
                                                packing_policy="naive")),
        False, None,
        400, 4103.069815060714, 303757.7983764063,
        "8992e993d7ff66b83c45db52c6f43f5c8328b593cd13a86255af0295b09d9e68",
    ),
    "faulted-venus": (
        VENUS.with_jobs(400),
        lambda h: LucidScheduler(h, LucidConfig(seed=7)), False,
        FaultSpec(seed=7, node_mtbf=43200.0, node_mttr=1800.0,
                  crash_rate=0.2, slowdown_rate=0.2),
        400, 4167.325454776137, 272569.62347645214,
        "807e1c46cb29b554246c95f375eb7982620402d01aab0820597c48e50ed0734d",
    ),
    "unstable-venus": (
        VENUS.with_jobs(400),
        lambda h: LucidScheduler(h, LucidConfig(seed=7,
                                                instability_rate=0.05)),
        False, None,
        400, 4326.949891811578, 303757.7983764063,
        "7422c783031f15652dfe451809fcc129fa68311645ad5d91e96058b02bae7627",
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_RUNS))
def test_edge_run_is_pinned(name):
    (spec, make, deadlines, faults, n_records, avg_jct, makespan,
     digest) = EDGE_RUNS[name]
    generator = TraceGenerator(spec)
    cluster = generator.build_cluster()
    history = generator.generate_history()
    jobs = generator.generate()
    if deadlines:
        assign_deadlines(jobs, fraction=0.5, seed=3)
    sim = Simulator(cluster, jobs, make(history), faults=faults)
    result = sim.run()

    assert len(result.records) == n_records
    assert result.avg_jct == avg_jct
    assert result.makespan == makespan
    assert state_digest(sim) == digest


#: name -> (scheduler factory, digest, events processed, counters).  The
#: digests are the unprofiled golden runs' own.
COUNTER_RUNS = {
    "lucid-venus": (
        lambda h: LucidScheduler(h, LucidConfig(seed=7)),
        GOLDEN["venus"][3], 3034,
        {"binder_attempts": 77, "estimator_predictions": 214,
         "forecast_evaluations": 393, "orchestrator_stage_skips": 2099,
         "placement_attempts": 268, "placement_skips": 1663,
         "profiler_stage_skips": 2040, "speed_refreshes": 1228},
    ),
    "tiresias-venus": (
        GOLDEN_RUNS["tiresias-venus"][1], GOLDEN_RUNS["tiresias-venus"][6],
        1504, {"speed_refreshes": 842},
    ),
}


@pytest.mark.parametrize("name", sorted(COUNTER_RUNS))
def test_work_counters_are_pinned(name):
    make, digest, events, counters = COUNTER_RUNS[name]
    generator = TraceGenerator(VENUS.with_jobs(400))
    cluster = generator.build_cluster()
    history = generator.generate_history()
    jobs = generator.generate()
    profiler = SimProfiler()
    sim = Simulator(cluster, jobs, make(history), observers=[profiler])
    sim.run()

    assert state_digest(sim) == digest
    assert profiler.events_processed == events
    assert profiler.counters == counters
