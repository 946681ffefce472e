"""Extended property-based tests: packing engine, GA²M, trace generator."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster, find_consolidated, find_shared
from repro.models.gam import GA2MRegressor
from repro.schedulers.base import Scheduler
from repro.sim import Simulator
from repro.traces import TraceGenerator, TraceSpec
from repro.workloads import InterferenceModel

from conftest import make_job


class GreedyPacker(Scheduler):
    """Packs onto any same-size exclusive runner, else places exclusively."""

    def schedule(self, now):
        for job in list(self.queue):
            placed = False
            for mate in self.engine.running_jobs():
                if (mate.gpu_num == job.gpu_num
                        and not self.engine.mate_ids(mate)
                        and mate.gpu_num <= 8):
                    gpus = find_shared(self.engine.cluster,
                                       self.engine.gpus_of(mate),
                                       job.profile.gpu_mem_mb)
                    if gpus is not None:
                        self.engine.start_job(job, gpus)
                        placed = True
                        break
            if not placed:
                placed = self.try_place_exclusive(job)
            if placed:
                self.queue.remove(job)


@st.composite
def packing_jobs(draw):
    n = draw(st.integers(2, 10))
    jobs = []
    for i in range(n):
        jobs.append(make_job(
            job_id=i + 1,
            duration=draw(st.floats(20.0, 3000.0)),
            gpu_num=draw(st.sampled_from([1, 2, 4])),
            submit_time=draw(st.floats(0.0, 500.0)),
            gpu_util=draw(st.floats(5.0, 95.0)),
            mem_util=draw(st.floats(2.0, 70.0)),
            mem_mb=draw(st.floats(500.0, 11_000.0)),
        ))
    return jobs


@given(packing_jobs())
@settings(max_examples=25, deadline=None)
def test_packing_engine_conservation(jobs):
    """With arbitrary packing, every job still finishes exactly once, JCT
    is bounded below by the exclusive duration and above by a slowdown
    bound (pair speed >= 0.2 and at most one mate)."""
    cluster = Cluster.homogeneous(1, vc_name="vc1")
    result = Simulator(cluster, jobs, GreedyPacker(),
                       interference=InterferenceModel()).run()
    assert result.n_jobs == len(jobs)
    finish_order = sorted(result.records, key=lambda r: r.submit_time + r.jct)
    total_span = finish_order[-1].submit_time + finish_order[-1].jct
    for record in result.records:
        assert record.jct >= record.duration - 1e-6
        assert record.queue_delay >= -1e-6
        # Service time can stretch at most 5x (speed floor 0.2).
        assert record.jct <= record.queue_delay + record.duration * 5.0 + 1.0
    assert total_span < 1e9


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_trace_generator_invariants(seed):
    spec = TraceSpec(name="prop", n_nodes=4, n_vcs=2, n_jobs=60,
                     full_n_jobs=60, mean_duration=1500.0, span_days=0.3,
                     n_users=6, seed=seed)
    generator = TraceGenerator(spec)
    cluster = generator.build_cluster()
    jobs = generator.generate()
    assert len(jobs) == 60
    assert all(j.duration >= 10.0 for j in jobs)
    times = [j.submit_time for j in jobs]
    assert times == sorted(times)
    # Every job fits its VC.
    for job in jobs:
        assert job.gpu_num <= cluster.vc(job.vc).n_gpus
    # Ids unique and contiguous from 1.
    ids = sorted(j.job_id for j in jobs)
    assert ids == list(range(ids[0], ids[0] + 60))


@st.composite
def regression_data(draw):
    n = draw(st.integers(30, 150))
    d = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 1000))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = rng.normal(size=n) * draw(st.floats(0.1, 10.0))
    return X, y


@given(regression_data())
@settings(max_examples=20, deadline=None)
def test_ga2m_local_explanations_always_decompose(data):
    """For ANY fitted GA²M, every local explanation reconstructs the
    model's prediction exactly (the core interpretability contract)."""
    X, y = data
    model = GA2MRegressor(n_rounds=15, max_bins=8).fit(X, y)
    predictions = model.predict(X[:5])
    for i in range(min(5, len(X))):
        local = model.explain_local(X[i])
        assert abs(local.prediction - predictions[i]) < 1e-8


@given(regression_data())
@settings(max_examples=20, deadline=None)
def test_ga2m_beats_or_matches_constant_on_train(data):
    """Boosted shape functions never fit worse than the intercept alone."""
    X, y = data
    model = GA2MRegressor(n_rounds=15, max_bins=8).fit(X, y)
    mse_model = float(np.mean((model.predict(X) - y) ** 2))
    mse_const = float(np.mean((y - y.mean()) ** 2))
    assert mse_model <= mse_const + 1e-9


@given(st.integers(1, 24), st.integers(0, 500))
@settings(max_examples=20, deadline=None)
def test_consolidated_placement_sound(gpu_num, occupied):
    """find_consolidated never returns busy GPUs or a wrong count."""
    cluster = Cluster({"a": 2, "b": 2})
    rng = np.random.default_rng(occupied)
    for gpu in rng.choice(cluster.gpus, size=min(occupied % 20, 31),
                          replace=False):
        gpu.attach(999, 10.0)
    found = find_consolidated(cluster, gpu_num)
    if found is not None:
        assert len(found) == gpu_num
        assert all(g.is_free for g in found)
        if gpu_num <= 8:
            assert len({g.node_id for g in found}) == 1
