"""Determinism linter tests: one positive + one negative fixture per rule.

Each RPR rule gets a minimal snippet that must trigger it and a close
sibling that must not, plus suppression, formatting and an end-to-end
"the real tree is clean" check.
"""

from __future__ import annotations

import json
import os
import textwrap

import pytest

from repro.checks import (
    RULES,
    Finding,
    format_json,
    format_text,
    lint_paths,
    lint_source,
)

#: A module path inside a simulation package (RPR001/2/3/4/8 in scope).
SIM_PATH = os.path.join("src", "repro", "sim", "fixture.py")
#: A module path outside every scoped package (only RPR005/7 apply).
UTIL_PATH = os.path.join("src", "repro", "utils", "fixture.py")


def lint(code: str, path: str = SIM_PATH):
    return lint_source(textwrap.dedent(code), path)


def codes(findings):
    return [f.code for f in findings]


class TestRPR001GlobalRNG:
    def test_stdlib_random_flagged(self):
        found = lint("""\
            import random
            def pick(jobs):
                return random.choice(jobs)
        """)
        assert codes(found) == ["RPR001"]
        assert "global stdlib RNG" in found[0].message

    def test_from_import_flagged(self):
        found = lint("""\
            from random import shuffle
            def mix(jobs):
                shuffle(jobs)
        """)
        assert codes(found) == ["RPR001"]

    def test_np_random_convenience_flagged(self):
        found = lint("""\
            import numpy as np
            def draw_rate():
                return np.random.uniform(0.0, 1.0)
        """)
        assert codes(found) == ["RPR001"]

    def test_unseeded_default_rng_flagged(self):
        found = lint("""\
            import numpy as np
            rng = np.random.default_rng()
        """)
        assert codes(found) == ["RPR001"]
        assert "entropy-seeded" in found[0].message

    def test_injected_generator_clean(self):
        found = lint("""\
            import numpy as np
            def pick(jobs, rng: np.random.Generator):
                return jobs[rng.integers(len(jobs))]
            rng = np.random.default_rng(42)
        """)
        assert found == []

    def test_out_of_scope_path_clean(self):
        found = lint("""\
            import random
            def pick(jobs):
                return random.choice(jobs)
        """, path=UTIL_PATH)
        assert found == []


class TestRPR002WallClock:
    def test_time_time_flagged(self):
        found = lint("""\
            import time
            def stamp():
                return time.time()
        """)
        assert codes(found) == ["RPR002"]
        assert "wall clock" in found[0].message

    def test_from_import_monotonic_flagged(self):
        found = lint("""\
            from time import monotonic
            def stamp():
                return monotonic()
        """)
        assert codes(found) == ["RPR002"]

    def test_datetime_now_flagged(self):
        found = lint("""\
            from datetime import datetime
            def stamp():
                return datetime.now()
        """)
        assert codes(found) == ["RPR002"]

    def test_engine_clock_clean(self):
        found = lint("""\
            def stamp(engine):
                return engine.now
        """)
        assert found == []

    def test_time_sleep_clean(self):
        # sleep does not *read* the clock; only reads are banned.
        found = lint("""\
            import time
            def pause():
                time.sleep(0.1)
        """)
        assert found == []


class TestRPR002Allowlist:
    """Structured instrumentation allowlist instead of per-line noqa."""

    CLOCK_READ = """\
        import time
        def {name}(self):
            return time.perf_counter()
    """

    def test_allowlisted_module_fully_exempt(self):
        # obs/prof.py is the self-profiler: any function may read the
        # wall clock without a noqa comment.
        found = lint(textwrap.dedent(self.CLOCK_READ).format(name="enter"),
                     path=os.path.join("src", "repro", "obs", "prof.py"))
        assert found == []

    def test_engine_has_no_exemption(self):
        found = lint(
            textwrap.dedent(self.CLOCK_READ).format(name="_invoke_scheduler"),
            path=os.path.join("src", "repro", "sim", "engine.py"))
        assert codes(found) == ["RPR002"]

    def test_other_sim_modules_still_flagged(self):
        found = lint(
            textwrap.dedent(self.CLOCK_READ).format(name="_invoke_scheduler"),
            path=SIM_PATH)
        assert codes(found) == ["RPR002"]

    def test_allowlist_shape(self):
        from repro.checks import RPR002_ALLOWLIST
        assert RPR002_ALLOWLIST == frozenset({"obs/prof.py"})

    def test_engine_source_has_no_rpr002_noqa_left(self):
        # The engine times its passes through the profiler: it reads no
        # wall clock, so it needs neither an allowlist entry nor escapes.
        engine = os.path.join(repo_root(), "src", "repro", "sim",
                              "engine.py")
        source = open(engine).read()
        assert "noqa RPR002" not in source
        assert "perf_counter" not in source


class TestRPR003UnorderedIteration:
    def test_set_literal_iteration_flagged(self):
        found = lint("""\
            def place(a, b):
                for node in {a, b}:
                    yield node
        """)
        assert codes(found) == ["RPR003"]

    def test_set_variable_iteration_flagged(self):
        found = lint("""\
            def place(jobs):
                pending = set(jobs)
                for job in pending:
                    yield job
        """)
        assert codes(found) == ["RPR003"]

    def test_dict_view_comprehension_flagged(self):
        found = lint("""\
            def capacities(vcs):
                return [vc.n_gpus for vc in vcs.values()]
        """)
        assert codes(found) == ["RPR003"]
        assert "dict view" in found[0].message

    def test_set_algebra_flagged(self):
        found = lint("""\
            def diff(before, after):
                before = set(before)
                for job in before - set(after):
                    yield job
        """)
        assert codes(found) == ["RPR003"]

    def test_sorted_wrapper_clean(self):
        found = lint("""\
            def place(jobs, vcs):
                for job in sorted(set(jobs)):
                    yield job
                for name in sorted(vcs.keys()):
                    yield name
        """)
        assert found == []

    def test_membership_test_clean(self):
        # Using a set for O(1) membership is fine; only iteration is flagged.
        found = lint("""\
            def filter_jobs(jobs, banned):
                banned = set(banned)
                return [j for j in jobs if j not in banned]
        """)
        assert found == []


class TestRPR004FloatTimeEquality:
    def test_equality_on_time_flagged(self):
        found = lint("""\
            def due(event, now):
                return event.finish_time == now
        """)
        assert codes(found) == ["RPR004"]

    def test_inequality_clean(self):
        found = lint("""\
            EPS = 1e-6
            def due(event, now):
                return event.finish_time <= now + EPS
        """)
        assert found == []

    def test_string_comparison_clean(self):
        # Status tags named like time fields are identity checks, not floats.
        found = lint("""\
            def is_start(timestamp):
                return timestamp == "start"
        """)
        assert found == []


class TestRPR005MutableDefault:
    def test_list_default_flagged(self):
        found = lint("""\
            def submit(job, queue=[]):
                queue.append(job)
        """, path=UTIL_PATH)
        assert codes(found) == ["RPR005"]

    def test_dict_call_default_flagged(self):
        found = lint("""\
            def submit(job, index=dict()):
                index[job] = True
        """, path=UTIL_PATH)
        assert codes(found) == ["RPR005"]

    def test_none_default_clean(self):
        found = lint("""\
            def submit(job, queue=None):
                queue = [] if queue is None else queue
                queue.append(job)
        """, path=UTIL_PATH)
        assert found == []


class TestRPR006EventKindExhaustiveness:
    # NODE_FAIL is declared the way sim/events.py declares members: a
    # tuple of the value and its stories.
    EVENTS = textwrap.dedent("""\
        import enum
        class EventKind(enum.Enum):
            SUBMIT = "submit"
            FINISH = "finish"
            NODE_FAIL = ("node_fail", "replay story", "cause story")
    """)

    @staticmethod
    def _tree(tmp_path, engine_body: str):
        sim = tmp_path / "sim"
        sim.mkdir()
        events = sim / "events.py"
        events.write_text(TestRPR006EventKindExhaustiveness.EVENTS)
        (sim / "engine.py").write_text(textwrap.dedent(engine_body))
        return str(events)

    def test_exhaustive_tree_clean(self, tmp_path):
        events = self._tree(tmp_path, """\
            from events import EventKind
            DISPATCH = (EventKind.SUBMIT, EventKind.FINISH,
                        EventKind.NODE_FAIL)
        """)
        assert lint_paths([events]) == []

    def test_undispatched_member_flagged(self, tmp_path):
        events = self._tree(tmp_path, """\
            from events import EventKind
            DISPATCH = (EventKind.SUBMIT, EventKind.FINISH)
        """)
        found = lint_paths([events])
        assert codes(found) == ["RPR006"]
        assert "NODE_FAIL" in found[0].message
        assert "never dispatched" in found[0].message


class TestRPR007OverbroadExcept:
    def test_bare_except_flagged(self):
        found = lint("""\
            def load(path):
                try:
                    return open(path).read()
                except:
                    return None
        """, path=UTIL_PATH)
        assert codes(found) == ["RPR007"]

    def test_except_exception_flagged(self):
        found = lint("""\
            def load(path):
                try:
                    return open(path).read()
                except Exception:
                    return None
        """, path=UTIL_PATH)
        assert codes(found) == ["RPR007"]

    def test_reraise_clean(self):
        found = lint("""\
            def load(path):
                try:
                    return open(path).read()
                except Exception:
                    cleanup = True
                    raise
        """, path=UTIL_PATH)
        assert found == []

    def test_specific_exception_clean(self):
        found = lint("""\
            def load(path):
                try:
                    return open(path).read()
                except OSError:
                    return None
        """, path=UTIL_PATH)
        assert found == []


class TestRPR008SeedThreading:
    def test_unseedable_entrypoint_flagged(self):
        found = lint("""\
            def generate_trace(n_jobs):
                return list(range(n_jobs))
        """)
        assert codes(found) == ["RPR008"]
        assert "generate_trace" in found[0].message

    def test_seed_param_clean(self):
        found = lint("""\
            def generate_trace(n_jobs, seed=0):
                return list(range(n_jobs))
        """)
        assert found == []

    def test_spec_param_clean(self):
        # Repo idiom: a *Spec object carries its own seed.
        found = lint("""\
            def generate_trace(spec):
                return list(range(spec.n_jobs))
        """)
        assert found == []

    def test_method_not_flagged(self):
        found = lint("""\
            class TraceGenerator:
                def generate(self):
                    return []
        """)
        assert found == []

    def test_private_helper_not_flagged(self):
        found = lint("""\
            def _generate_batch(n):
                return list(range(n))
        """)
        assert found == []


class TestRPR009RawStateWrites:
    SERVE_PATH = os.path.join("src", "repro", "serve", "fixture.py")
    OBS_PATH = os.path.join("src", "repro", "obs", "fixture.py")

    def test_write_mode_open_flagged(self):
        found = lint("""\
            def dump(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
        """, path=self.SERVE_PATH)
        assert codes(found) == ["RPR009"]
        assert "truncates" in found[0].message

    def test_mode_keyword_and_exclusive_create_flagged(self):
        found = lint("""\
            def dump(path, text):
                open(path, mode="w").write(text)
                open(path, "x").write(text)
        """, path=self.OBS_PATH)
        assert codes(found) == ["RPR009", "RPR009"]

    def test_read_and_append_clean(self):
        found = lint("""\
            def load(path):
                with open(path) as handle:
                    head = handle.read()
                with open(path, "r") as handle:
                    body = handle.read()
                with open(path, "a") as handle:  # append-only journal
                    handle.write(head)
                return body
        """, path=self.SERVE_PATH)
        assert found == []

    def test_tmp_path_stream_pattern_clean(self):
        # The sanctioned idiom: stream into tmp_path(p), then os.replace.
        found = lint("""\
            import os
            from repro.obs.ioutil import tmp_path
            def dump(path, lines):
                with open(tmp_path(path), "w") as handle:
                    handle.writelines(lines)
                os.replace(tmp_path(path), path)
        """, path=self.OBS_PATH)
        assert found == []

    def test_tmp_path_variable_clean(self):
        found = lint("""\
            import os
            from repro.obs.ioutil import tmp_path
            def dump(path, lines):
                tmp = tmp_path(path)
                with open(tmp, "w") as handle:
                    handle.writelines(lines)
                os.replace(tmp, path)
        """, path=self.OBS_PATH)
        assert found == []

    def test_out_of_scope_path_clean(self):
        found = lint("""\
            def dump(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
        """, path=UTIL_PATH)
        assert found == []

    def test_ioutil_helper_no_blanket_exemption(self):
        # ioutil.py used to carry a whole-file RPR009 exemption; the real
        # helper's tmp-file + os.replace idiom passes the rule on its
        # own, so the dead allowlist entry was removed (RPR130).  A
        # truncating write without the rename is flagged even here.
        found = lint("""\
            def atomic_write_text(path, text):
                with open(path + ".tmp", "w") as handle:
                    handle.write(text)
        """, path=os.path.join("src", "repro", "obs", "ioutil.py"))
        assert [f.code for f in found] == ["RPR009"]

    def test_noqa_escape(self):
        found = lint("""\
            def truncate(path):
                open(path, "w").close()  # repro: noqa RPR009
        """, path=self.SERVE_PATH)
        assert found == []


class TestRPR010SaltedHash:
    SCHED_PATH = os.path.join("src", "repro", "schedulers", "fixture.py")
    SERVE_PATH = os.path.join("src", "repro", "serve", "fixture.py")

    def test_str_hash_in_decision_code_flagged(self):
        found = lint("""\
            def bucket(name):
                return hash(name.rstrip("0123456789")) % 64
        """, path=self.SCHED_PATH)
        assert codes(found) == ["RPR010"]
        assert "PYTHONHASHSEED" in found[0].message

    def test_tuple_hash_in_digest_code_flagged(self):
        found = lint("""\
            def digest(job):
                return hash((job.name, job.user))
        """, path=self.SERVE_PATH)
        assert codes(found) == ["RPR010"]

    def test_int_hash_and_stable_digest_clean(self):
        found = lint("""\
            import zlib

            def bucket(name, job_id, items):
                return (hash(7), hash(-3), hash(int(job_id)),
                        hash(len(items)),
                        zlib.crc32(name.encode("utf-8")) % 64)
        """, path=self.SCHED_PATH)
        assert found == []

    def test_dunder_hash_exempt(self):
        found = lint("""\
            class Key:
                def __hash__(self):
                    return hash((self.a, self.b))
        """, path=self.SCHED_PATH)
        assert found == []

    def test_out_of_scope_packages_clean(self):
        found = lint("""\
            def bucket(name):
                return hash(name)
        """, path=UTIL_PATH)
        assert found == []


class TestSuppression:
    def test_blanket_noqa(self):
        found = lint("""\
            import random
            def pick(jobs):
                return random.choice(jobs)  # repro: noqa
        """)
        assert found == []

    def test_targeted_noqa(self):
        found = lint("""\
            import random
            def pick(jobs):
                return random.choice(jobs)  # repro: noqa RPR001
        """)
        assert found == []

    def test_wrong_code_does_not_suppress(self):
        found = lint("""\
            import random
            def pick(jobs):
                return random.choice(jobs)  # repro: noqa RPR002
        """)
        assert codes(found) == ["RPR001"]


class TestReporting:
    BAD = """\
        import random
        def pick(jobs):
            return random.choice(jobs)
    """

    def test_syntax_error_is_rpr000(self):
        found = lint("def broken(:\n")
        assert codes(found) == ["RPR000"]

    def test_finding_format_has_location_and_hint(self):
        found = lint(self.BAD)
        line = found[0].format()
        assert SIM_PATH in line and "RPR001" in line and "hint:" in line

    def test_text_report(self):
        report = format_text(lint(self.BAD))
        assert "1 finding(s)" in report and "RPR001 x1" in report
        assert format_text([]) == "determinism lint: clean"

    def test_json_report(self):
        payload = json.loads(format_json(lint(self.BAD)))
        assert payload["count"] == 1
        assert payload["findings"][0]["code"] == "RPR001"
        assert payload["findings"][0]["line"] == 3

    def test_rules_table_complete(self):
        assert set(RULES) == {f"RPR{i:03d}" for i in range(11)}
        for summary, hint in RULES.values():
            assert summary and hint

    def test_findings_sorted_by_location(self):
        found = lint("""\
            import random
            import time
            def tick():
                a = time.time()
                b = random.random()
                return a + b
        """)
        assert codes(found) == ["RPR002", "RPR001"]
        assert [f.line for f in found] == sorted(f.line for f in found)


class TestLintPaths:
    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths(["no/such/dir"])

    def test_directory_walk_skips_pycache(self, tmp_path):
        sim = tmp_path / "sim"
        cache = sim / "__pycache__"
        cache.mkdir(parents=True)
        (sim / "bad.py").write_text("import random\nrandom.random()\n")
        (cache / "stale.py").write_text("import random\nrandom.random()\n")
        found = lint_paths([str(tmp_path)])
        assert len(found) == 1
        assert "__pycache__" not in found[0].path


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestRealTree:
    def test_src_tree_is_clean(self):
        assert lint_paths([os.path.join(repo_root(), "src")]) == []

    def test_tests_tree_is_clean(self):
        assert lint_paths([os.path.join(repo_root(), "tests")]) == []

    def test_cli_lint_clean_exit(self, capsys):
        # A subpackage: per-file rules only (whole-program: see project).
        from repro.cli import main
        sim = os.path.join(repo_root(), "src", "repro", "sim")
        assert main(["lint", sim]) == 0
        assert "clean" in capsys.readouterr().out

    def test_cli_lint_findings_exit_one(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        sim.mkdir()
        (sim / "bad.py").write_text("import random\nrandom.random()\n")
        from repro.cli import main
        assert main(["lint", str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1


class TestFindingDataclass:
    def test_frozen(self):
        finding = Finding(code="RPR001", path="x.py", line=1, col=0,
                          message="m", hint="h")
        with pytest.raises(Exception):
            finding.code = "RPR002"
