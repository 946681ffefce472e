"""End-to-end tests for the whole-program lint (repro.checks.project).

Covers: the real tree lints clean; the mode follows from the path;
seeded regressions each produce exactly the expected RPR1xx finding
(layering, replay-safety, hot-path), and an ``EventKind`` member
without its declared stories fails at import; SARIF 2.1.0 structural
validity; RPR130 unused-suppression detection; and the CLI's
parse-failure behavior (RPR000, exit 1, no traceback).
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import sys
import textwrap

import pytest

from repro.checks import find_package_dir, format_sarif, lint_project
from repro.cli import main
from repro.sim.events import EventKind


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="session")
def real_tree_findings():
    """One whole-program lint of the real ``src/repro``, shared."""
    return lint_project(os.path.join(repo_root(), "src", "repro"))


def copy_tree(dest):
    """Copy the real project tree into ``dest``: ``src/`` plus
    ``pyproject.toml``, with no ``benchmarks/`` data files."""
    root = repo_root()
    shutil.copytree(os.path.join(root, "src", "repro"),
                    dest / "src" / "repro")
    shutil.copy(os.path.join(root, "pyproject.toml"),
                dest / "pyproject.toml")
    return dest


@pytest.fixture()
def tree_copy(tmp_path):
    """A disposable copy of the real project tree."""
    return copy_tree(tmp_path)


def inject(tree, rel, marker, addition):
    """Insert ``addition`` right after the line containing ``marker``."""
    path = os.path.join(str(tree), rel)
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    for pos, line in enumerate(lines):
        if marker in line:
            lines[pos + 1:pos + 1] = [addition if addition.endswith("\n")
                                      else addition + "\n"]
            break
    else:
        raise AssertionError(f"marker {marker!r} not found in {rel}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)


@pytest.fixture(scope="module")
def smuggled_tree(tmp_path_factory):
    """A tree copy whose engine imports serve (a forbidden layering
    edge), with its whole-program findings; shared, so read-only."""
    tree = copy_tree(tmp_path_factory.mktemp("smuggled"))
    inject(tree, "src/repro/sim/engine.py",
           "from __future__ import annotations",
           "from repro.serve.core import SimCore as _Smuggled")
    return tree, lint_project(str(tree / "src" / "repro"))


class TestRealTree:
    def test_project_lint_is_clean(self, real_tree_findings):
        assert real_tree_findings == [], "\n".join(
            f"{f.code} {f.path}:{f.line} {f.message}"
            for f in real_tree_findings)

    def test_copy_without_benchmarks_is_clean(self, tree_copy, capsys):
        # The hot-path pack's hot set lives in source: without any
        # benchmark data file every hot-path noqa must still fire.
        assert not (tree_copy / "benchmarks").exists()
        assert main(["lint", str(tree_copy / "src")]) == 0, \
            capsys.readouterr().out

    def test_find_package_dir_src_layout(self):
        src = os.path.join(repo_root(), "src")
        assert find_package_dir(src) == os.path.join(src, "repro")
        assert find_package_dir(os.path.join(src, "repro")) \
            == os.path.join(src, "repro")

    def test_find_package_dir_rejects_non_roots(self, tmp_path):
        # Subpackage, loose-module directory, file: per-file rules only.
        for rel in ("src/repro/sim", "tests", "src/repro/cli.py"):
            assert find_package_dir(os.path.join(repo_root(), rel)) is None
        # One package beside a loose module is not a src layout: the
        # loose module would go unlinted.
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "__init__.py").write_text("")
        (tmp_path / "loose.py").write_text("")
        assert find_package_dir(str(tmp_path)) is None


class TestSeededRegressions:
    """Each canonical violation must surface as exactly its rule; an
    ``EventKind`` member without its stories fails when the enum is
    defined."""

    def lint(self, tree):
        return lint_project(str(tree / "src" / "repro"))

    def test_sim_to_serve_import_is_layering_violation(self, smuggled_tree):
        findings = smuggled_tree[1]
        # The edge violates the layering DAG (RPR101, via both the
        # forbidden list and the allowed list) and — because serve
        # already imports sim — closes an import cycle (RPR100).
        assert findings and {f.code for f in findings} <= {"RPR100",
                                                           "RPR101"}
        rpr101 = [f for f in findings if f.code == "RPR101"]
        assert rpr101 and all(f.path.endswith("sim/engine.py")
                              and "serve" in f.message for f in rpr101)

    def test_simcore_mutation_bypassing_apply_tick_record(self, tree_copy):
        inject(tree_copy, "src/repro/serve/daemon.py",
               "dispositions = apply_tick_record(core, rec)",
               "                core.tick += 1")
        findings = self.lint(tree_copy)
        assert [f.code for f in findings] == ["RPR110"]
        assert findings[0].path.endswith("serve/daemon.py")
        assert "tick" in findings[0].message

    def test_deepcopy_in_hot_span_function(self, tree_copy):
        # LucidScheduler.schedule wraps its work in the profiled
        # "lucid.control" span, so it is a hot root by construction.
        inject(tree_copy, "src/repro/core/lucid.py",
               'with self.profile_span("lucid.control"):',
               "                _ = __import__('copy').deepcopy(self.config)")
        findings = self.lint(tree_copy)
        assert "RPR120" in [f.code for f in findings]
        rpr120 = [f for f in findings if f.code == "RPR120"]
        assert rpr120[0].path.endswith("core/lucid.py")

    @staticmethod
    def load_events(tree):
        """Execute the copy's ``sim/events.py`` as a fresh module."""
        path = tree / "src" / "repro" / "sim" / "events.py"
        spec = importlib.util.spec_from_file_location("_events_copy", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses resolve through it
        try:
            spec.loader.exec_module(module)
        finally:
            del sys.modules[spec.name]
        return module

    def test_event_kind_without_coverage_story(self, tree_copy):
        copy = self.load_events(tree_copy).EventKind
        assert [k.value for k in copy] == [k.value for k in EventKind]
        inject(tree_copy, "src/repro/sim/events.py",
               "    cause: str",
               '    BACKFILL = "backfill"')
        with pytest.raises(TypeError, match="EventKind.BACKFILL must "
                                            "declare exactly a replay "
                                            "story and a cause story"):
            self.load_events(tree_copy)

    def test_stale_lineage_cause_entry(self, tree_copy):
        # Stories for a value that already has a member would otherwise
        # become a silent enum alias whose stories nothing can reach.
        inject(tree_copy, "src/repro/sim/events.py",
               "    cause: str",
               '    WARP_DRIVE = ("retry", "replay story", "cause story")')
        with pytest.raises(ValueError, match="duplicate values.*WARP_DRIVE"):
            self.load_events(tree_copy)


class TestSarif:
    def test_sarif_is_structurally_valid(self, smuggled_tree):
        tree, findings = smuggled_tree
        document = json.loads(format_sarif(findings, str(tree)))

        assert document["version"] == "2.1.0"
        assert document["$schema"].startswith("https://")
        assert len(document["runs"]) == 1
        run = document["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rule_ids = {rule["id"] for rule in driver["rules"]}
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
            assert rule["help"]["text"]
            assert rule["defaultConfiguration"]["level"] == "error"
        assert len(run["results"]) == len(findings)
        for result in run["results"]:
            assert result["ruleId"] in rule_ids
            assert result["message"]["text"]
            location = result["locations"][0]["physicalLocation"]
            uri = location["artifactLocation"]["uri"]
            assert not uri.startswith("/") and "\\" not in uri
            assert location["artifactLocation"]["uriBaseId"] == "SRCROOT"
            region = location["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1

    def test_empty_sarif_still_valid(self, real_tree_findings):
        document = json.loads(format_sarif(real_tree_findings, repo_root()))
        assert document["version"] == "2.1.0"
        assert document["runs"][0]["tool"]["driver"]["rules"] == []
        assert document["runs"][0]["results"] == []


class TestUnusedSuppressions:
    def build(self, tmp_path, files):
        pkg = tmp_path / "pkg"
        for rel, source in files.items():
            full = pkg / rel
            full.parent.mkdir(parents=True, exist_ok=True)
            full.write_text(textwrap.dedent(source))
        for sub in {os.path.dirname(rel) for rel in files} | {""}:
            init = pkg / sub / "__init__.py"
            if not init.exists():
                init.write_text("")
        return lint_project(str(pkg), repo_root=str(tmp_path))

    def test_dead_noqa_is_flagged(self, tmp_path):
        findings = self.build(tmp_path, {
            "sim/clock.py": """\
                def pure(x):
                    return x + 1  # repro: noqa RPR002
            """,
        })
        assert [f.code for f in findings] == ["RPR130"]
        assert "noqa" in findings[0].message
        assert findings[0].line == 2

    def test_live_noqa_is_not_flagged(self, tmp_path):
        findings = self.build(tmp_path, {
            "sim/clock.py": """\
                import time

                def stamp():
                    return time.time()  # repro: noqa RPR002
            """,
        })
        assert findings == []

    def test_unsuppressed_violation_still_fires(self, tmp_path):
        findings = self.build(tmp_path, {
            "sim/clock.py": """\
                import time

                def stamp():
                    return time.time()
            """,
        })
        assert [f.code for f in findings] == ["RPR002"]

    #: A digest root that reaches a clock-reading profiler and a
    #: clock-free module.
    DIGEST_TREE = {
        "serve/core.py": """\
            from pkg.obs.live import gauge
            from pkg.obs.prof import stamp

            def state_digest():
                return gauge() + stamp()
        """,
        "obs/live.py": "def gauge():\n    return 1\n",
        "obs/prof.py": "import time\ndef stamp():\n    return time.time()\n",
    }

    @pytest.mark.parametrize("entries,expected", [
        ({"obs/prof.py"}, []),
        # Reachable from the digest root but reads no clock: dead entry.
        ({"obs/prof.py", "obs/live.py"}, [("RPR130", "live.py", 1)]),
        ((), [("RPR112", "prof.py", 3)]),
    ])
    def test_allowlist_entries(self, tmp_path, monkeypatch, entries,
                               expected):
        from repro.checks import lint, project
        monkeypatch.setattr(lint, "RPR002_ALLOWLIST", frozenset(entries))
        monkeypatch.setattr(project, "RPR002_ALLOWLIST",
                            frozenset(entries))
        findings = self.build(tmp_path, self.DIGEST_TREE)
        assert [(f.code, os.path.basename(f.path), f.line)
                for f in findings] == expected


    def test_allowlist_exempts_clock_reads_only(self, tmp_path):
        """An allowlisted module's RNG draw is still a replay hazard,
        and an entry that exempts no clock read is dead."""
        tree = dict(self.DIGEST_TREE)
        tree["obs/prof.py"] = ("import random\n"
                               "def stamp():\n"
                               "    return random.random()\n")
        findings = self.build(tmp_path, tree)
        assert [(f.code, os.path.basename(f.path), f.line)
                for f in findings] == [("RPR130", "prof.py", 1),
                                       ("RPR112", "prof.py", 3)]


class TestCli:
    def test_syntax_error_file_exits_one_with_rpr000(self, tmp_path,
                                                     capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        code = main(["lint", str(bad)])
        out = capsys.readouterr()
        assert code == 1
        assert "RPR000" in out.out
        assert str(bad) in out.out
        assert "Traceback" not in out.out + out.err

    def test_project_mode_end_to_end(self, smuggled_tree, tmp_path,
                                     capsys):
        # A package path and a plain directory, merged and sorted.
        (tmp_path / "sim").mkdir()
        (tmp_path / "sim" / "test_bad.py").write_text(
            "import random\nrandom.random()\n")
        code = main(["lint", str(smuggled_tree[0] / "src"), str(tmp_path),
                     "--format", "json"])
        findings = json.loads(capsys.readouterr().out)["findings"]
        assert code == 1
        found = {(f["code"], os.path.basename(f["path"])) for f in findings}
        assert {("RPR101", "engine.py"), ("RPR001", "test_bad.py")} <= found
        assert findings == sorted(findings, key=lambda f: (f["path"],
                                                           f["line"]))

    def test_subpackage_gets_file_rules_only(self, smuggled_tree, capsys):
        sim = smuggled_tree[0] / "src" / "repro" / "sim"
        assert main(["lint", str(sim)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_project_mode_sarif_output(self, capsys):
        # The CI gate: whole-program src/, per-file tests/.
        code = main(["lint", os.path.join(repo_root(), "src"),
                     os.path.join(repo_root(), "tests"),
                     "--format", "sarif"])
        out = capsys.readouterr()
        assert code == 0
        document = json.loads(out.out)
        assert document["version"] == "2.1.0"
        assert document["runs"][0]["results"] == []
