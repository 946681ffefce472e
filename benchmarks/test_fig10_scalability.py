"""Figure 10 — scalability analysis.

(a) Scheduling-decision latency under 128..2048 queued jobs, including
    model inference: the paper reports <3 ms at 2048 jobs, versus minutes
    for LP solvers (Gavel) and a super-linear blow-up for Pollux.  Pure
    Python is slower than the authors' setup, so the assertion is the
    paper's *scaling claim*: latency grows roughly linearly in queue
    length and stays in the real-time regime (milliseconds per job, far
    below any round interval).
(b) Model training time on each cluster's history: seconds for throughput
    models, and bounded minutes for duration models (paper: 1.4-11 min on
    10^5-10^7 samples; our histories are proportionally smaller).
"""

import time

import numpy as np

from repro.analysis import ascii_table
from repro.core import (
    LucidScheduler,
    PackingAnalyzeModel,
    ThroughputPredictModel,
    WorkloadEstimateModel,
)
from repro.sim import Simulator
from repro.traces import TraceGenerator, VENUS
from repro.workloads import InterferenceModel

from conftest import CLUSTERS


def _scheduling_latency(n_jobs: int) -> float:
    """Wall time of one full scheduling decision over ``n_jobs`` queued."""
    spec = VENUS.with_jobs(n_jobs).with_seed(77)
    generator = TraceGenerator(spec)
    cluster = generator.build_cluster()
    history = generator.generate_history(0.5)
    jobs = generator.generate()
    scheduler = LucidScheduler(history)
    sim = Simulator(cluster, jobs, scheduler)
    scheduler.attach(sim)
    # Enqueue everything as already-profiled pending jobs.
    for job in jobs:
        job.measured_profile = job.profile
        scheduler._admit_to_main(job)
    started = time.perf_counter()
    scheduler.schedule(0.0)
    return time.perf_counter() - started


#: Decision passes per queue length; the table reports their median and
#: range, since one wall-clock pass on a shared host is noise-dominated.
PASSES = 5


def test_fig10a_scheduling_latency(benchmark, record_result):
    sizes = (128, 256, 512, 1024, 2048)
    samples = {n: [_scheduling_latency(n) for _ in range(PASSES)]
               for n in sizes[:-1]}
    # The headline 2048-job decision is the benchmarked quantity.
    samples[2048] = [benchmark.pedantic(
        lambda: _scheduling_latency(2048), rounds=1, iterations=1)]
    samples[2048] += [_scheduling_latency(2048) for _ in range(PASSES - 1)]
    latencies = {n: float(np.median(samples[n])) for n in sizes}

    rows = [[n, latencies[n] * 1e3, min(samples[n]) * 1e3,
             max(samples[n]) * 1e3, latencies[n] / n * 1e6]
            for n in sizes]
    table = ascii_table(
        ["queued jobs", "median latency (ms)", "min (ms)", "max (ms)",
         "per-job latency (us)"],
        rows, title=f"Figure 10a: scheduling latency vs queue length "
                    f"(median of {PASSES} passes)")
    table += ("\n(paper: <3 ms at 2048 jobs on their hardware; Gavel needs "
              "~30 min, Pollux minutes-hours)")
    record_result("fig10a_scheduling_latency", table)

    # Real-time regime: well under a 10 s scheduling tick even at 2048.
    assert latencies[2048] < 10.0
    # Sub-quadratic scaling: 16x jobs cost far less than 256x time.
    assert latencies[2048] / max(latencies[128], 1e-9) < 80.0


def test_fig10b_model_training_time(once, record_result):
    def measure():
        rows = []
        for cluster_name, spec in CLUSTERS.items():
            generator = TraceGenerator(spec)
            history = generator.generate_history()
            started = time.perf_counter()
            WorkloadEstimateModel(random_state=0).fit(history)
            estimate_time = time.perf_counter() - started
            started = time.perf_counter()
            ThroughputPredictModel().fit_events(
                [j.submit_time for j in history])
            throughput_time = time.perf_counter() - started
            rows.append([cluster_name, len(history), estimate_time,
                         throughput_time])
        started = time.perf_counter()
        PackingAnalyzeModel().fit(InterferenceModel())
        packing_time = time.perf_counter() - started
        return rows, packing_time

    rows, packing_time = once(measure)
    table = ascii_table(
        ["cluster", "history jobs", "estimate model (s)",
         "throughput model (s)"],
        rows, title="Figure 10b: model training time")
    table += (f"\nPacking Analyze Model training: {packing_time:.2f} s "
              "(paper: <1 s, cluster-agnostic)")
    record_result("fig10b_training_time", table)

    for row in rows:
        assert row[2] < 660.0, "duration model training exceeds 11 min"
        assert row[3] < 60.0, "throughput model should train in seconds"
