"""RL007 fixtures: hot-path wall-clock reads go through ``Tracer.measure``."""

from pathlib import Path

from repro.analysis.driver import lint_paths
from repro.analysis.rules import get_rule

from tests.analysis.conftest import messages, rule_ids


class TestWallclockDetection:
    def test_dotted_time_call_triggers(self, lint):
        result = lint({"core/framework.py": """
            import time

            def stamp(self):
                return time.time()
            """}, rules=["RL007"])
        assert rule_ids(result) == ["RL007"]
        assert "wall-clock read time.time()" in messages(result)

    def test_bare_imported_perf_counter_triggers(self, lint):
        # The form RL001's literal dotted match cannot see.
        result = lint({"io_engine/engine.py": """
            from time import perf_counter

            def stamp(self):
                return perf_counter()
            """}, rules=["RL007"])
        assert rule_ids(result) == ["RL007"]
        assert "time.perf_counter" in messages(result)

    def test_renamed_import_triggers(self, lint):
        result = lint({"core/queues.py": """
            from time import perf_counter_ns as clock

            def stamp(self):
                return clock()
            """}, rules=["RL007"])
        assert rule_ids(result) == ["RL007"]

    def test_module_alias_triggers(self, lint):
        result = lint({"io_engine/driver.py": """
            import time as t

            def stamp(self):
                return t.monotonic()
            """}, rules=["RL007"])
        assert rule_ids(result) == ["RL007"]

    def test_datetime_forms_trigger(self, lint):
        result = lint({"core/solver.py": """
            import datetime
            from datetime import datetime as dt

            def stamps(self):
                return datetime.datetime.now(), dt.utcnow()
            """}, rules=["RL007"])
        assert rule_ids(result) == ["RL007", "RL007"]


class TestExemptions:
    def test_measure_api_is_clean(self, lint):
        # The sanctioned path: the tracer reads the clock, not the
        # hot-path module.
        result = lint({"core/framework.py": """
            from repro.obs import Stages, get_tracer

            def shade(self, chunk):
                with get_tracer().measure(Stages.PRE_SHADE):
                    self.app.pre_shade(chunk)
            """}, rules=["RL007"])
        assert rule_ids(result) == []

    def test_obs_layer_is_exempt(self, lint):
        # The tracer itself (and everything in obs/) is the one layer
        # allowed to read the wall clock directly.
        result = lint({"obs/trace.py": """
            import time

            def now_ns():
                return time.perf_counter_ns()
            """}, rules=["RL007"])
        assert rule_ids(result) == []

    def test_cold_layers_are_exempt(self, lint):
        result = lint({"perf/wallclock.py": """
            from time import perf_counter_ns

            def sample():
                return perf_counter_ns()
            """}, rules=["RL007"])
        assert rule_ids(result) == []

    def test_unrelated_bare_names_are_clean(self, lint):
        # A local function that happens to be called ``time`` is not a
        # clock read; only names bound by a time/datetime import count.
        result = lint({"core/chunk.py": """
            def time(chunk):
                return len(chunk)

            def cost(chunk):
                return time(chunk)
            """}, rules=["RL007"])
        assert rule_ids(result) == []

    def test_inline_suppression_is_clean(self, lint):
        result = lint({"io_engine/engine.py": """
            from time import monotonic

            def stamp(self):
                return monotonic()  # reprolint: ignore[RL007]
            """}, rules=["RL007"])
        assert rule_ids(result) == []

    def test_repo_tree_is_currently_clean(self):
        # core/ and io_engine/ route every wall-clock read through the
        # tracer; new direct reads must do the same.
        repo_root = Path(__file__).resolve().parents[2]
        result = lint_paths([repo_root / "src"], rules=[get_rule("RL007")])
        assert [f.message for f in result.findings] == []
