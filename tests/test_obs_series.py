"""Tests for the fixed-interval cluster time-series collector."""

import csv
import json

import pytest

from repro.cluster import Cluster
from repro.obs import SERIES_SCHEMA, SeriesCollector
from repro.schedulers import FIFOScheduler
from repro.sim import Simulator
from repro.traces import TraceGenerator

from conftest import make_job


def _run(jobs, interval, cluster=None):
    collector = SeriesCollector(interval=interval)
    sim = Simulator(cluster or Cluster({"vc1": 1}), jobs, FIFOScheduler(),
                    observers=[collector])
    result = sim.run()
    return collector, result


class TestSamplingSemantics:
    def test_piecewise_constant_between_batches(self):
        # One job running over [0, 250): grid points 0/100/200 see it
        # running, the trailing partial sample at makespan sees it done.
        collector, result = _run([make_job(1, duration=250.0)],
                                 interval=100.0)
        times = [s.time for s in collector.samples]
        assert times == [0.0, 100.0, 200.0, pytest.approx(result.makespan)]
        assert [s.running_jobs for s in collector.samples] == [1, 1, 1, 0]
        assert [s.gpus_busy for s in collector.samples][:3] == [1, 1, 1]
        assert collector.samples[-1].gpus_busy == 0

    def test_quiet_gaps_repeat_the_held_state(self):
        # Nothing happens between 0 and the finish: every interior grid
        # point replays the state the t=0 batch left behind.
        collector, _ = _run([make_job(1, duration=1000.0)], interval=100.0)
        interior = [s for s in collector.samples if 0 < s.time < 1000.0]
        assert len(interior) == 9
        assert all(s.running_jobs == 1 for s in interior)
        assert all(s.gpu_alloc == interior[0].gpu_alloc for s in interior)

    def test_simultaneous_events_sample_settled_state(self):
        # Two finishes land exactly on the t=200 grid point as one
        # simultaneous batch (distinct Event.seq values).  The sample at
        # 200 must be emitted once and reflect the state after BOTH
        # events and the follow-up scheduler pass — never a half-drained
        # batch, regardless of intra-batch ordering.
        collector, result = _run([make_job(1, duration=200.0),
                                  make_job(2, duration=200.0)],
                                 interval=200.0)
        assert result.makespan == pytest.approx(200.0)
        at_200 = [s for s in collector.samples if s.time == 200.0]
        assert len(at_200) == 1
        assert at_200[0].running_jobs == 0
        assert at_200[0].gpus_busy == 0
        # The t=0 sample is also post-batch: both jobs already placed.
        assert collector.samples[0].time == 0.0
        assert collector.samples[0].running_jobs == 2

    def test_pending_queue_split_by_vc(self):
        # vc1 and vc2 each run one 8-GPU job; a second vc2 job waits
        # until its VC frees up at t=500, so every sample before then
        # shows it pending on vc2's queue and none on vc1's.
        cluster = Cluster({"vc1": 1, "vc2": 1})
        jobs = [make_job(1, duration=500.0, gpu_num=8, vc="vc1"),
                make_job(2, duration=500.0, gpu_num=8, vc="vc2"),
                make_job(3, duration=300.0, gpu_num=8, vc="vc2")]
        collector, _ = _run(jobs, interval=100.0, cluster=cluster)
        waiting = [s for s in collector.samples if s.time < 500.0]
        assert waiting
        for sample in waiting:
            assert set(sample.queue_by_vc) == {"vc1", "vc2"}
            assert sample.queue_by_vc == {"vc1": 0, "vc2": 1}
            assert sample.pending_jobs == 1
        after = [s for s in collector.samples if s.time >= 500.0]
        assert all(s.pending_jobs == 0 for s in after)

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            SeriesCollector(interval=0.0)

    def test_single_use_guard(self):
        collector, _ = _run([make_job(1, duration=100.0)], interval=50.0)
        with pytest.raises(RuntimeError, match="single-use"):
            Simulator(Cluster({"vc1": 1}), [make_job(1, duration=100.0)],
                      FIFOScheduler(), observers=[collector])


class TestExport:
    def _collected(self, tiny_spec):
        generator = TraceGenerator(tiny_spec)
        collector = SeriesCollector(interval=600.0)
        Simulator(generator.build_cluster(), generator.generate(),
                  FIFOScheduler(), observers=[collector]).run()
        return collector

    def test_columns_and_rows_agree(self, tiny_spec):
        collector = self._collected(tiny_spec)
        columns = collector.columns()
        assert columns[0] == "time"
        assert any(c.startswith("queue_") for c in columns)
        for row in collector.rows():
            assert set(row) == set(columns)

    def test_csv_round_trip(self, tiny_spec, tmp_path):
        collector = self._collected(tiny_spec)
        path = str(tmp_path / "series.csv")
        n = collector.to_csv(path)
        assert n == len(collector.samples)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == n
        assert [float(r["time"]) for r in rows] == \
            [s.time for s in collector.samples]
        assert [int(r["running_jobs"]) for r in rows] == \
            [s.running_jobs for s in collector.samples]

    def test_json_round_trip(self, tiny_spec, tmp_path):
        collector = self._collected(tiny_spec)
        path = str(tmp_path / "series.json")
        document = collector.to_json(path)
        assert document["schema"] == SERIES_SCHEMA
        assert document["interval"] == 600.0
        on_disk = json.loads(open(path).read())
        assert on_disk == document
        assert len(document["samples"]) == len(collector.samples)
