"""Drop-accounting fixtures, run against RL011.

These cases were first written for RL004, the same-function drop check
that RL011 replaced; RL011 keeps its detection exactly (it only also
accepts accounting one resolved call away), so every case still holds.
"""

from tests.analysis.conftest import rule_ids


class TestSheddingGuards:
    def test_unaccounted_overflow_return_triggers(self, lint):
        result = lint({"io_engine/ring.py": """
            def deliver(self, frame):
                if self.ring_overflow:
                    return False
                return self.write(frame)
            """}, rules=["RL011"])
        assert rule_ids(result) == ["RL011"]

    def test_unaccounted_should_fire_continue_triggers(self, lint):
        result = lint({"hw/nic.py": """
            def receive_burst(self, frames, injector):
                out = []
                for frame in frames:
                    if injector.should_fire("nic.ring_overflow"):
                        continue
                    out.append(frame)
                return out
            """}, rules=["RL011"])
        assert rule_ids(result) == ["RL011"]

    def test_counted_overflow_is_clean(self, lint):
        result = lint({"io_engine/ring.py": """
            def deliver(self, frame):
                if self.ring_overflow:
                    self.stats.drops += 1
                    return False
                return self.write(frame)
            """}, rules=["RL011"])
        assert rule_ids(result) == []

    def test_metric_inc_counts_as_accounting(self, lint):
        result = lint({"core/queue.py": """
            def put(self, chunk, injector):
                if injector.should_fire("queue.overflow"):
                    self._m_rejected.inc()
                    return False
                self._queue.append(chunk)
                return True
            """}, rules=["RL011"])
        assert rule_ids(result) == []

    def test_raising_guard_is_clean(self, lint):
        # An exception propagates: the caller accounts the failure.
        result = lint({"core/queue.py": """
            def put(self, chunk):
                if self.overflow_imminent:
                    raise OverflowError("output queue overflow")
                self._queue.append(chunk)
            """}, rules=["RL011"])
        assert rule_ids(result) == []


class TestVerdictDrops:
    def test_infra_verdict_drop_without_accounting_triggers(self, lint):
        result = lint({"core/framework.py": """
            def shed(self, chunk):
                for verdict in chunk.verdicts:
                    verdict.drop()
            """}, rules=["RL011"])
        assert rule_ids(result) == ["RL011"]

    def test_infra_verdict_drop_with_accounting_is_clean(self, lint):
        result = lint({"core/framework.py": """
            def shed(self, chunk):
                shed = 0
                for verdict in chunk.verdicts:
                    verdict.drop()
                    shed += 1
                self.stats.backpressure_drops += shed
            """}, rules=["RL011"])
        assert rule_ids(result) == []

    def test_application_verdict_drop_is_exempt(self, lint):
        # Apps settle verdicts; conservation is accounted centrally.
        result = lint({"apps/ipv4.py": """
            def pre_shade(self, chunk):
                for verdict in chunk.verdicts:
                    verdict.drop()
            """}, rules=["RL011"])
        assert rule_ids(result) == []
