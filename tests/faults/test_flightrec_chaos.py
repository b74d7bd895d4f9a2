"""Chaos scenarios with the flight recorder on: events mirror metrics.

Satellite of the observability PR: every injected fault must appear as a
recorded FAULT event with a count matching the ``faults.injected``
counters, chunk verdict events must sum to the router's drop accounting,
and a breaker-open run must leave behind a post-mortem dump that
reconciles exactly against its own metrics snapshot.
"""

import pytest

from repro.faults.scenarios import SCENARIOS, run_scenario
from repro.obs import get_registry, reset_registry, reset_tracer
from repro.obs.flightrec import (
    Events,
    get_flightrec,
    load_dump,
    reset_flightrec,
)


@pytest.fixture(autouse=True)
def fresh_obs():
    reset_registry()
    reset_flightrec()
    reset_tracer()
    yield
    reset_registry()
    reset_flightrec()
    reset_tracer()


def _events_by_label(recorder, kind):
    counts = {}
    for event in recorder.iter_events():
        if event.kind == kind:
            counts[event.label] = counts.get(event.label, 0) + 1
    return counts


class TestFaultEventsMirrorCounters:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_injected_fault_is_on_the_record(self, name):
        report = run_scenario(name, seed=1, packets=512)
        recorder = get_flightrec()
        assert recorder.evicted == 0, "ring must retain the whole run"
        assert _events_by_label(recorder, Events.FAULT) == report.faults_fired

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_chunk_events_sum_to_the_drop_accounting(self, name):
        report = run_scenario(name, seed=1, packets=512)
        recorder = get_flightrec()
        verdicts = {"packets": 0, "forwarded": 0, "dropped": 0, "slow_path": 0}
        shed = 0
        for event in recorder.iter_events():
            if event.kind == Events.CHUNK:
                # CHUNK events also carry trace-context fields
                # (ctx_writer/ctx_seq); only the verdict keys sum.
                for key in verdicts:
                    verdicts[key] += int(event.fields.get(key, 0))
            elif event.kind == Events.SHED:
                shed += int(event.fields["packets"])
        assert verdicts["packets"] == report.received
        assert verdicts["forwarded"] == report.forwarded
        assert verdicts["dropped"] == report.dropped
        assert verdicts["slow_path"] == report.slow_path
        assert shed == report.backpressure_drops

    def test_rx_events_cover_everything_received(self):
        report = run_scenario("malformed", seed=1, packets=512)
        recorder = get_flightrec()
        fetched = sum(
            int(event.fields["packets"])
            for event in recorder.iter_events()
            if event.kind == Events.RX
        )
        assert fetched == report.received


class TestBreakerTransitionsOnTheRecord:
    def test_scenario_records_opens_and_probes(self):
        run_scenario("breaker", seed=1, packets=2048)
        transitions = _events_by_label(get_flightrec(), Events.BREAKER)
        assert transitions.get("0:open", 0) >= 1
        assert transitions.get("0:half_open", 0) >= 1

    def test_recovery_records_the_reclose(self):
        # The device heals after a bounded fault budget: the half-open
        # probe succeeds and the close lands on the record.
        from repro.apps.ipv4 import IPv4Forwarder
        from repro.core.framework import PacketShader
        from repro.faults import FaultPlan, FaultRule, Sites
        from repro.gen.workloads import ipv4_workload

        plan = FaultPlan(seed=1, rules=(
            FaultRule(site=Sites.GPU_LAUNCH, probability=1.0, max_fires=12),
        ))
        workload = ipv4_workload(num_routes=5_000, seed=81)
        router = PacketShader(
            IPv4Forwarder(workload.table), fault_injector=plan.injector()
        )
        for _ in range(8):
            router.process_frames(workload.generator.ipv4_burst(256))
        assert router.breakers[0].closes >= 1
        transitions = _events_by_label(get_flightrec(), Events.BREAKER)
        assert transitions.get("0:open", 0) == router.breakers[0].opens
        assert transitions.get("0:closed", 0) == router.breakers[0].closes

    def test_watchdog_stall_is_recorded(self):
        report = run_scenario("queue-overflow", seed=1, packets=512)
        assert report.watchdog_stalls > 0
        recorder = get_flightrec()
        stalls = sum(
            1 for event in recorder.iter_events()
            if event.kind == Events.WATCHDOG
        )
        assert stalls == report.watchdog_stalls


class TestPostmortemReconciliation:
    def test_breaker_open_dump_reconciles_exactly(self, tmp_path):
        recorder = get_flightrec()
        recorder.arm_postmortem(tmp_path, budget=4)
        run_scenario("breaker", seed=1, packets=2048)
        assert recorder.dumps_written, "breaker open must trigger a dump"
        path = recorder.dumps_written[0]
        assert path.name.startswith("flightrec-breaker-open-")
        report = load_dump(path)
        assert report.meta["reason"] == "breaker-open"
        assert report.reconciled, (
            "events and metric counters must tell the same story: "
            f"{report.reconcile()}"
        )
        # The snapshot's fault counters name the site that tripped it.
        assert report.fault_counts().get("gpu.launch", 0) > 0

    def test_dump_fault_counts_match_live_registry(self, tmp_path):
        recorder = get_flightrec()
        recorder.arm_postmortem(tmp_path, budget=1)
        run_scenario("breaker", seed=1, packets=2048)
        report = load_dump(recorder.dumps_written[0])
        snapshot = report.fault_counts()
        recorded = report.event_counts(Events.FAULT, by_label=True)
        assert snapshot == recorded

    def test_unarmed_run_writes_nothing(self, tmp_path):
        run_scenario("breaker", seed=1, packets=2048)
        recorder = get_flightrec()
        assert recorder.dumps_written == []
        # ... but the trigger itself is still on the record.
        assert any(
            event.kind == Events.DUMP and event.label == "breaker-open"
            for event in recorder.iter_events()
        )
