"""Tests for the command-line interface."""

import csv
import io

import pytest

from repro.cli import _nearest_ids, build_parser, main
from repro.traces import TraceGenerator, VENUS
from repro.traces.io import write_native_csv


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.scheduler == "lucid"
        assert args.trace == "venus"

    def test_bad_scheduler_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--scheduler", "magic"])


class TestSimulate:
    def test_simulate_runs(self, capsys):
        code = main(["simulate", "--trace", "venus", "--jobs", "80",
                     "--scheduler", "fifo", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "avg JCT" in out
        assert "fifo" in out

    def test_export(self, tmp_path, capsys):
        target = tmp_path / "records.csv"
        code = main(["simulate", "--trace", "venus", "--jobs", "60",
                     "--scheduler", "sjf", "--export", str(target)])
        assert code == 0
        with open(target) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 60
        assert {"job_id", "jct", "queue_delay"} <= set(rows[0])

    def test_csv_trace_input(self, tmp_path, capsys):
        jobs = TraceGenerator(VENUS.with_jobs(120)).generate()
        path = tmp_path / "trace.csv"
        write_native_csv(jobs, path)
        code = main(["simulate", "--trace", str(path),
                     "--scheduler", "fifo"])
        assert code == 0
        assert "avg JCT" in capsys.readouterr().out


class TestTrace:
    def test_tail_prints_last_events(self, tmp_path, capsys):
        code = main(["trace", "--trace", "venus", "--jobs", "40",
                     "--scheduler", "fifo", "--out", str(tmp_path),
                     "--tail", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Last 3 of" in out
        # The tail lines are the JSON event records themselves.
        tail_lines = [line.strip() for line in out.splitlines()
                      if line.strip().startswith("{")]
        assert len(tail_lines) == 3
        assert all('"kind"' in line for line in tail_lines)

    def test_no_tail_by_default(self, tmp_path, capsys):
        code = main(["trace", "--trace", "venus", "--jobs", "40",
                     "--scheduler", "fifo", "--out", str(tmp_path)])
        assert code == 0
        out, err = capsys.readouterr()
        assert "Last " not in out
        # A roomy default ring drops nothing, so no overflow warning.
        assert "overflowed" not in err

    def test_drop_warning_on_overflow(self, tmp_path, capsys, monkeypatch):
        import repro.cli as cli
        real = cli.RingBufferTracer
        monkeypatch.setattr(cli, "RingBufferTracer",
                            lambda **kw: real(capacity=16, **kw))
        code = main(["trace", "--trace", "venus", "--jobs", "40",
                     "--scheduler", "fifo", "--out", str(tmp_path)])
        assert code == 0
        err = capsys.readouterr().err
        assert "ring buffer overflowed" in err
        assert "oldest events dropped" in err


class TestCompare:
    def test_compare_two(self, capsys):
        code = main(["compare", "--trace", "venus", "--jobs", "80",
                     "--schedulers", "fifo,sjf"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fifo" in out and "sjf" in out

    def test_unknown_scheduler_fails(self, capsys):
        code = main(["compare", "--trace", "venus", "--jobs", "10",
                     "--schedulers", "fifo,notreal"])
        assert code == 2


class TestModelsAndPacking:
    def test_models_command(self, capsys):
        code = main(["models", "--trace", "venus", "--jobs", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Packing Analyze Model" in out
        assert "Gini importance" in out
        assert "local explanation" in out

    def test_packing_command(self, capsys):
        code = main(["packing"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Indolent Packing decisions" in out
        assert "interference-free rate" in out


KNOWN_IDS = list(range(200, 240)) + [17, 71, 107, 170, 1007, 2011, 2101, 3]


@pytest.mark.parametrize("target,known,expected", [
    (371, KNOWN_IDS, [71, 237, 231]),
    (2110, KNOWN_IDS, [211, 210, 2101]),
    (-5, KNOWN_IDS, [3, 17, 71]),
    (5, [1, 9, 4, 6, 55], [4, 6, 1]),  # ties: numeric distance first
    (12, [21, 3, 112, 120], [112, 120, 3]),  # then the id itself
    (7, [], []),
])
def test_nearest_ids_are_pinned(target, known, expected):
    assert _nearest_ids(target, known) == expected
