"""Tests for the command-line interface."""

import csv
import io
import json
import os
import subprocess
import sys

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
    """``simulate --out DIR`` is the traced run: the summary table, then
    the event log and the timeline."""

    def test_out_writes_events_and_timeline(self, tmp_path, capsys):
        code = main(["simulate", "--trace", "venus", "--jobs", "40",
                     "--scheduler", "lucid", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "avg JCT" in out and "[traced]" in out
        kinds = {json.loads(line)["kind"]
                 for line in open(tmp_path / "events.jsonl")}
        assert {"submit", "start", "finish", "decision"} <= kinds
        timeline = json.load(open(tmp_path / "timeline.json"))
        assert timeline["traceEvents"]

    def test_no_tail_by_default(self, tmp_path, capsys):
        code = main(["simulate", "--trace", "venus", "--jobs", "40",
                     "--scheduler", "fifo", "--out", str(tmp_path)])
        assert code == 0
        out, err = capsys.readouterr()
        # No event records on stdout: they go to events.jsonl.
        assert not [line for line in out.splitlines()
                    if line.strip().startswith("{")]
        # A roomy default ring drops nothing, so no overflow warning.
        assert "overflowed" not in err

    def test_drop_warning_on_overflow(self, tmp_path, capsys, monkeypatch):
        import repro.cli as cli
        real = cli.RingBufferTracer
        monkeypatch.setattr(cli, "RingBufferTracer",
                            lambda **kw: real(capacity=16, **kw))
        code = main(["simulate", "--trace", "venus", "--jobs", "40",
                     "--scheduler", "fifo", "--out", str(tmp_path)])
        assert code == 0
        err = capsys.readouterr().err
        assert "ring buffer overflowed" in err
        assert "oldest events dropped" in err


class TestBrokenPipe:
    def test_reader_closing_early_leaves_no_traceback(self):
        """``repro why ... | head -1``: the reader goes away after one
        line, and the CLI exits non-zero without a traceback."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "why", "201", "--trace",
             "venus", "--jobs", "60", "--seed", "7", "--scheduler",
             "fifo"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) != 0
        assert "Traceback" not in stderr
        assert "BrokenPipeError" not in stderr


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
