"""RL003 fixtures: registry/trace names against the canonical catalogs."""

from tests.analysis.conftest import messages, rule_ids

#: A minimal catalog + stage table fixture for the linted tree.
CATALOG = {
    "obs/names.py": """
        ROUTER_RECEIVED = "router.received_packets"
        ROUTER_DROPPED = "router.dropped_packets"
        """,
    "obs/trace.py": """
        class Stages:
            RX = "rx"
            PRE_SHADE = "pre_shade"
            TX = "tx"
        """,
    # Anchor references so the shared fixtures never trip the orphan
    # check; the orphan tests build their own catalog without this file.
    "obs/exporters.py": """
        def register_all(registry):
            registry.counter("router.received_packets")
            registry.counter("router.dropped_packets")
        """,
}


def with_catalog(files):
    merged = dict(CATALOG)
    merged.update(files)
    return merged


class TestRegistryNames:
    def test_known_string_and_constant_are_clean(self, lint):
        result = lint(with_catalog({"core/router.py": """
            from repro.obs import names

            def setup(registry):
                registry.counter("router.received_packets")
                registry.counter(names.ROUTER_DROPPED, help="drops")
            """}), rules=["RL003"])
        assert rule_ids(result) == []

    def test_typo_string_triggers(self, lint):
        result = lint(with_catalog({"core/router.py": """
            def setup(registry):
                registry.counter("router.recieved_packets")
            """}), rules=["RL003"])
        assert rule_ids(result) == ["RL003"]
        assert "router.recieved_packets" in messages(result)

    def test_unknown_catalog_constant_triggers(self, lint):
        result = lint(with_catalog({"core/router.py": """
            from repro.obs import names

            def setup(registry):
                registry.gauge(names.ROUTER_DOES_NOT_EXIST)
            """}), rules=["RL003"])
        assert rule_ids(result) == ["RL003"]

    def test_registry_read_with_typo_triggers(self, lint):
        result = lint(with_catalog({"core/report.py": """
            def snapshot(registry):
                return registry.total("router.dorpped_packets")
            """}), rules=["RL003"])
        assert rule_ids(result) == ["RL003"]

    def test_without_catalog_module_rule_is_silent(self, lint):
        # A tree with no names.py cannot be validated — no noise.
        result = lint({"core/router.py": """
            def setup(registry):
                registry.counter("anything.goes")
            """}, rules=["RL003"])
        assert rule_ids(result) == []


class TestTraceStages:
    def test_unknown_stage_string_triggers(self, lint):
        result = lint(with_catalog({"core/router.py": """
            def run(tracer):
                tracer.record("rxx", packets=1)
            """}), rules=["RL003"])
        assert rule_ids(result) == ["RL003"]
        assert "rxx" in messages(result)

    def test_known_stage_string_is_clean(self, lint):
        result = lint(with_catalog({"core/router.py": """
            def run(tracer):
                tracer.record("rx", packets=1)
            """}), rules=["RL003"])
        assert rule_ids(result) == []

    def test_measure_stage_typo_triggers(self, lint):
        result = lint(with_catalog({"core/router.py": """
            from repro.obs import get_tracer

            def run(chunk):
                with get_tracer().measure("pre_shdae", packets=len(chunk)):
                    pass
            """}), rules=["RL003"])
        assert rule_ids(result) == ["RL003"]
        assert "pre_shdae" in messages(result)

    def test_measure_stage_constant_is_clean(self, lint):
        result = lint(with_catalog({"core/router.py": """
            from repro.obs import Stages, get_tracer

            def run(chunk):
                with get_tracer().measure(Stages.PRE_SHADE):
                    pass
            """}), rules=["RL003"])
        assert rule_ids(result) == []


class TestOrphans:
    def test_orphaned_catalog_entry_warns(self, lint):
        result = lint({
            "obs/names.py": CATALOG["obs/names.py"],
            "core/router.py": """
            def setup(registry):
                registry.counter("router.received_packets")
            """}, rules=["RL003"])
        assert rule_ids(result) == ["RL003"]
        finding = result.findings[0]
        assert finding.severity == "warning"
        assert "router.dropped_packets" in finding.message

    def test_string_use_counts_as_reference(self, lint):
        result = lint({
            "obs/names.py": CATALOG["obs/names.py"],
            "core/router.py": """
            def setup(registry):
                registry.counter("router.received_packets")
                registry.counter("router.dropped_packets")
            """}, rules=["RL003"])
        assert rule_ids(result) == []
