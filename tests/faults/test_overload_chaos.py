"""Flood scenarios: the overload controller's end-to-end guarantees.

The acceptance properties of the overload-control work (docs/RESILIENCE.md,
"Overload control"): under adversarial floods the flow table stays
bounded at its cap, established-flow goodput degrades gracefully instead
of collapsing, modelled p99 latency respects the SLO budget, and every
shed packet is attributed — the ingress identity closes exactly and the
flight-recorder replay reconciles against the metrics registry.
"""

import pytest

from repro.core.overload import CLASS_ATTACK, CLASS_ESTABLISHED, CLASS_NEW_FLOW
from repro.faults.scenarios import run_scenario
from repro.obs import reset_registry, reset_tracer
from repro.obs.flightrec import (
    Events,
    get_flightrec,
    load_dump,
    reset_flightrec,
)

SEEDS = (1, 2, 3)
FLOODS = ("heavy-tail", "syn-flood", "ddos")


@pytest.fixture(autouse=True)
def fresh_obs():
    reset_registry()
    reset_flightrec()
    reset_tracer()
    yield
    reset_registry()
    reset_flightrec()
    reset_tracer()


class TestFloodConservation:
    @pytest.mark.parametrize("name", FLOODS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_ingress_identity_closes_with_shedding(self, name, seed):
        report = run_scenario(name, seed=seed)
        assert report.conservation_ok
        assert report.injected == (
            report.rx_dropped + report.rx_shed + report.received
        )
        assert report.rx_shed == sum(report.shed_by_class.values())


class TestSynFlood:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_attack_shed_established_protected(self, seed):
        report = run_scenario("syn-flood", seed=seed)
        assert report.rx_shed > 0
        assert report.shed_by_class.get(CLASS_ATTACK, 0) > 0
        # The ladder never sheds established traffic at the ring.
        assert CLASS_ESTABLISHED not in report.shed_by_class

    @pytest.mark.parametrize("seed", SEEDS)
    def test_established_goodput_degrades_gracefully(self, seed):
        report = run_scenario("syn-flood", seed=seed)
        assert report.established_packets > 0
        assert report.established_goodput >= 0.9, (
            "established flows must keep flowing under a SYN flood"
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_p99_respects_slo_budget(self, seed):
        report = run_scenario("syn-flood", seed=seed)
        assert report.slo_budget_ns > 0
        assert report.p99_ns > 0, "the latency window must have filled"
        assert report.slo_ok, (
            f"p99 {report.p99_ns:.0f}ns exceeds the "
            f"{report.slo_budget_ns:.0f}ns budget"
        )


class TestDdosFloodTable:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_flow_table_bounded_at_cap(self, seed):
        report = run_scenario("ddos", seed=seed)
        assert report.flow_table_cap == 512
        assert report.flow_table_len == report.flow_table_cap, (
            "the flood should churn the table right at its bound"
        )
        assert report.flow_evictions > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_goodput_and_slo_survive_the_ddos(self, seed):
        report = run_scenario("ddos", seed=seed)
        assert report.established_goodput >= 0.9
        assert report.shed_by_class.get(CLASS_NEW_FLOW, 0) > 0
        assert CLASS_ESTABLISHED not in report.shed_by_class
        assert report.slo_ok

    def test_ddos_runs_the_reactive_slow_path(self):
        report = run_scenario("ddos", seed=1)
        # Admitted attack packets miss the bounded table and punt to the
        # controller — the slow path is exercised, not bypassed.
        assert report.slow_path > 0


class TestHeavyTail:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_internet_mix_forwards_everything_in_budget(self, seed):
        report = run_scenario("heavy-tail", seed=seed)
        assert report.forwarded == report.injected
        assert report.rx_shed == 0
        assert report.slo_ok


class TestAdaptiveChunking:
    def test_flood_drives_resize_decisions(self):
        # Seeds chosen so the AIMD loop demonstrably acts in both
        # directions across the suite (shrink under latency pressure,
        # grow when there is headroom).
        report = run_scenario("ddos", seed=3)
        assert report.chunk_resizes >= 1
        assert report.chunk_capacity_final != 64  # moved off the initial

    def test_capacity_stays_in_slo_bounds(self):
        for seed in SEEDS:
            report = run_scenario("syn-flood", seed=seed)
            assert 16 <= report.chunk_capacity_final <= 256
            reset_registry()
            reset_tracer()
            reset_flightrec()


class TestFloodFlightRecorder:
    def test_shed_events_mirror_report(self):
        report = run_scenario("syn-flood", seed=1)
        recorder = get_flightrec()
        shed = {}
        for event in recorder.iter_events():
            if event.kind == Events.RX_SHED:
                shed[event.label] = (
                    shed.get(event.label, 0) + int(event.fields["packets"])
                )
        assert shed == report.shed_by_class

    def test_rx_events_sum_to_received_after_shedding(self):
        report = run_scenario("syn-flood", seed=1)
        recorder = get_flightrec()
        fetched = sum(
            int(event.fields["packets"])
            for event in recorder.iter_events()
            if event.kind == Events.RX
        )
        assert fetched == report.received

    def test_eviction_events_mirror_report(self):
        report = run_scenario("ddos", seed=1)
        recorder = get_flightrec()
        evicted = sum(
            int(event.fields["count"])
            for event in recorder.iter_events()
            if event.kind == Events.FLOW_EVICT and event.label == "evict"
        )
        assert evicted == report.flow_evictions

    def test_flood_dump_replay_reconciles(self, tmp_path):
        """The drop-conservation audit: a post-run dump's RX_SHED and
        FLOW_EVICT events reconcile exactly against the metrics."""
        recorder = get_flightrec()
        recorder.arm_postmortem(tmp_path, budget=1)
        report = run_scenario("ddos", seed=1)
        path = recorder.postmortem("flood-audit")
        assert path is not None
        dump = load_dump(path)
        assert dump.reconciled, f"reconcile rows: {dump.reconcile()}"
        rows = {name: (events, metrics, ok)
                for name, events, metrics, ok in dump.reconcile()}
        events, metrics, ok = rows["rx shed"]
        assert ok and events == report.rx_shed
        events, metrics, ok = rows["flow evictions"]
        assert ok and events == report.flow_evictions
