"""Gen-2 driver surface: SARIF, changed-only, baseline hygiene, and the
linter's own lint.* metrics."""

import json
import os
import subprocess

import pytest

from repro.analysis.baseline import Baseline
from repro.analysis.cli import lint_main
from repro.analysis.driver import lint_paths
from repro.analysis.findings import Finding
from repro.analysis.rules import get_rule
from repro.obs import names
from repro.obs.registry import get_registry, reset_registry
from tests.analysis.conftest import write_tree

CLOCK_BUG = """
import time

def stamp():
    return time.time()
"""

CLEAN = "def ok():\n    return 1\n"


@pytest.fixture
def tree(tmp_path):
    """Write files, chdir into the tree for the test body."""

    def _enter(files):
        write_tree(tmp_path, files)
        os.chdir(tmp_path)
        return tmp_path

    cwd = os.getcwd()
    yield _enter
    os.chdir(cwd)


class TestSarif:
    def test_sarif_log_shape(self, tree, capsys):
        tree({"core/clock.py": CLOCK_BUG})
        code = lint_main([".", "--format", "sarif"])
        log = json.loads(capsys.readouterr().out)
        assert code == 1
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "reprolint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert "RL001" in rule_ids and "RL011" in rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "RL001"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "core/clock.py"
        assert "reprolintFingerprint/v1" in result["partialFingerprints"]

    def test_baselined_findings_become_suppressions(self):
        from repro.analysis.sarif import format_sarif

        finding = Finding(
            rule="RL001", path="core/x.py", line=3, message="m"
        )
        finding.baselined = True
        log = json.loads(format_sarif([finding], []))
        result = log["runs"][0]["results"][0]
        assert result["suppressions"][0]["kind"] == "external"

    def test_fingerprint_stable_across_line_drift(self):
        from repro.analysis.sarif import _fingerprint_hash

        a = Finding(rule="RL001", path="core/x.py", line=3, message="m")
        b = Finding(rule="RL001", path="core/x.py", line=99, message="m")
        assert _fingerprint_hash(a) == _fingerprint_hash(b)


class TestChangedOnly:
    def _git(self, *argv):
        subprocess.run(
            ["git", *argv], check=True, capture_output=True,
            env={**os.environ,
                 "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
                 "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t"},
        )

    def test_reports_only_diffed_files(self, tree, capsys):
        root = tree({
            "core/old.py": CLOCK_BUG,
            "core/new.py": CLEAN,
        })
        self._git("init", "-q")
        self._git("add", "-A")
        self._git("commit", "-qm", "seed")
        # Touch only new.py; old.py's finding must not be reported.
        (root / "core/new.py").write_text(CLOCK_BUG)
        code = lint_main([".", "--rules", "RL001", "--changed-only",
                          "HEAD", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [f["path"] for f in payload["findings"]] == ["core/new.py"]

    def test_untracked_files_count_as_changed(self, tree, capsys):
        root = tree({"core/a.py": CLEAN})
        self._git("init", "-q")
        self._git("add", "-A")
        self._git("commit", "-qm", "seed")
        (root / "core/fresh.py").write_text(CLOCK_BUG)
        code = lint_main([".", "--rules", "RL001", "--changed-only",
                          "HEAD", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [f["path"] for f in payload["findings"]] == ["core/fresh.py"]

    def test_outside_git_is_a_usage_error(self, tree):
        tree({"core/a.py": CLEAN})
        assert lint_main([".", "--rules", "RL001", "--changed-only", "HEAD"]) == 2


class TestBaselineHygiene:
    def test_prune_drops_paid_down_entries(self, tree, capsys):
        root = tree({"core/clock.py": CLOCK_BUG})
        assert lint_main([".", "--rules", "RL001", "--write-baseline", "b.json"]) == 0
        (root / "core/clock.py").write_text(CLEAN)
        capsys.readouterr()
        assert lint_main([".", "--rules", "RL001", "--prune-baseline", "b.json"]) == 0
        out = capsys.readouterr().out
        assert "pruned 1 stale entry" in out
        assert len(Baseline.load("b.json")) == 0

    def test_prune_keeps_live_debt(self, tree):
        tree({"core/clock.py": CLOCK_BUG})
        assert lint_main([".", "--rules", "RL001", "--write-baseline", "b.json"]) == 0
        assert lint_main([".", "--rules", "RL001", "--prune-baseline", "b.json"]) == 0
        assert len(Baseline.load("b.json")) == 1
        assert lint_main([".", "--rules", "RL001", "--baseline", "b.json"]) == 0

    def test_check_fails_on_stale_ledger(self, tree, capsys):
        root = tree({"core/clock.py": CLOCK_BUG})
        assert lint_main([".", "--rules", "RL001", "--write-baseline", "b.json"]) == 0
        (root / "core/clock.py").write_text(CLEAN)
        assert lint_main([".", "--rules", "RL001", "--check-baseline", "b.json"]) == 1
        assert "stale" in capsys.readouterr().err

    def test_check_passes_on_tight_ledger(self, tree):
        tree({"core/clock.py": CLOCK_BUG})
        assert lint_main([".", "--rules", "RL001", "--write-baseline", "b.json"]) == 0
        assert lint_main([".", "--rules", "RL001", "--check-baseline", "b.json"]) == 0


class TestSelfMetrics:
    def test_lint_records_its_own_metrics(self, tree):
        tree({"core/a.py": CLEAN})
        reset_registry()
        try:
            lint_paths(["."], rules=[get_rule("RL001")])
            lint_paths(["."], rules=[get_rule("RL001")])
            registry = get_registry()
            sample = {
                m.name: m for m in registry.collect()
            }
            assert sample[names.LINT_RUNS].value == 2
            assert sample[names.LINT_FILES_CHECKED].value == 1
            assert sample[names.LINT_FINDINGS].value == 0
            assert sample[names.LINT_WALL_NS].count == 2
        finally:
            reset_registry()
