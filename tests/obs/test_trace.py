"""Unit tests for span tracing and the two-clock ``measure`` point."""

import pytest

from repro.obs import names
from repro.obs.flightrec import Events, reset_flightrec
from repro.obs.registry import WALL_NS_BUCKETS, get_registry, reset_registry
from repro.obs.trace import (
    PIPELINE_ORDER,
    Stages,
    Tracer,
    get_tracer,
    reset_tracer,
    set_tracer,
)


@pytest.fixture
def fresh_obs():
    reset_registry()
    reset_flightrec()
    yield reset_tracer()
    reset_registry()
    reset_flightrec()
    reset_tracer()


def _wall_histogram(stage):
    return get_registry().histogram(
        names.PROF_STAGE_WALL_NS, buckets=WALL_NS_BUCKETS, stage=stage,
    )


class TestRecord:
    def test_folds_into_summary(self):
        t = Tracer()
        t.record(Stages.RX, packets=10, cycles=100.0)
        t.record(Stages.RX, packets=5, cycles=50.0, ns=7.0)
        cost = t.stage(Stages.RX)
        assert cost.spans == 2
        assert cost.packets == 15
        assert cost.cycles == 150.0
        assert cost.ns == 7.0

    def test_events_keep_order_and_meta(self):
        t = Tracer()
        t.record(Stages.GPU, packets=3, ns=42.0, kernel="ipv4")
        (span,) = t.events()
        assert span.stage == Stages.GPU
        assert span.seq == 1
        assert span.meta == {"kernel": "ipv4"}
        assert span.to_dict()["ns"] == 42.0

    def test_event_retention_is_bounded(self):
        t = Tracer(max_events=4)
        for i in range(10):
            t.record(Stages.RX, packets=1)
        events = t.events()
        assert len(events) == 4
        assert [s.seq for s in events] == [7, 8, 9, 10]
        # The summary still covers everything the deque dropped.
        assert t.stage(Stages.RX).packets == 10

    def test_disabled_tracer_records_nothing(self):
        t = Tracer(enabled=False)
        t.record(Stages.RX, packets=1)
        with t.measure(Stages.TX, packets=1):
            pass
        assert t.summary() == {}
        assert t.events() == []

    def test_reset_clears_everything(self):
        t = Tracer()
        t.record(Stages.RX, packets=1)
        t.reset()
        assert t.summary() == {}
        assert t.events() == []
        assert t.total_packets() == 0


class TestStageCost:
    def test_time_ns_converts_cycles_at_clock(self):
        t = Tracer()
        t.record(Stages.RX, packets=4, cycles=200.0, ns=100.0)
        cost = t.stage(Stages.RX)
        assert cost.time_ns(2e9) == pytest.approx(100.0 + 200.0 / 2e9 * 1e9)
        assert cost.cycles_per_packet() == 50.0
        assert cost.ns_per_packet() == 25.0

    def test_zero_packets_safe(self):
        t = Tracer()
        t.record(Stages.GATHER, packets=0, cycles=10.0)
        cost = t.stage(Stages.GATHER)
        assert cost.cycles_per_packet() == 0.0
        assert cost.ns_per_packet() == 0.0


@pytest.mark.usefixtures("fresh_obs")
class TestMeasure:
    def test_measured_region_lands_in_the_stage_histogram(self):
        t = Tracer()
        with t.measure(Stages.PRE_SHADE, packets=4, cycles=40.0):
            pass
        histogram = _wall_histogram(Stages.PRE_SHADE)
        assert histogram.count == 1
        assert histogram.sum > 0  # perf_counter_ns ticked
        cost = t.stage(Stages.PRE_SHADE)
        assert (cost.spans, cost.packets, cost.cycles) == (1, 4, 40.0)

    def test_stages_do_not_share_histograms(self):
        t = Tracer()
        with t.measure(Stages.PRE_SHADE):
            pass
        with t.measure(Stages.POST_SHADE):
            pass
        assert _wall_histogram(Stages.PRE_SHADE).count == 1
        assert _wall_histogram(Stages.POST_SHADE).count == 1

    def test_disabled_tracer_touches_neither_clock(self):
        t = Tracer(enabled=False)
        with t.measure(Stages.GPU, packets=3) as span:
            span.ns = 10.0
        assert _wall_histogram(Stages.GPU).count == 0
        assert t.summary() == {}
        assert t.events() == []

    def test_raising_region_gives_a_wall_sample_and_no_span(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.measure(Stages.GPU, packets=64):
                raise RuntimeError("kernel fault")
        assert _wall_histogram(Stages.GPU).count == 1
        assert t.stage(Stages.GPU) is None
        assert t.events() == []

    def test_fields_set_inside_the_block_are_recorded(self):
        t = Tracer()
        with t.measure(Stages.GPU, packets=8) as span:
            span.ns = 1234.0
            span.meta["kernel"] = "ipv4"
        (event,) = t.events()
        assert event is span
        assert (event.seq, event.packets, event.ns) == (1, 8, 1234.0)
        assert event.meta == {"kernel": "ipv4"}
        assert t.stage(Stages.GPU).ns == 1234.0

    def test_empty_span_is_not_recorded(self):
        t = Tracer()
        with t.measure(Stages.RX):
            pass  # an empty poll: no packets, no cost
        assert _wall_histogram(Stages.RX).count == 1
        assert t.summary() == {}
        assert t.events() == []

    def test_exemplar_is_the_recorder_seq(self):
        recorder = reset_flightrec()
        t = reset_tracer()
        recorder.note(Events.GPU_RETRY, "0", 1)
        recorder.note(Events.GPU_RETRY, "0", 2)
        with t.measure(Stages.GPU):
            pass
        exemplars = list(_wall_histogram(Stages.GPU).exemplars.values())
        assert len(exemplars) == 1
        seq, value = exemplars[0]
        assert seq == 2  # the event in flight when the sample landed
        assert value > 0

    def test_reset_rebinds_to_the_current_registry_and_recorder(self):
        reset_registry()
        recorder = reset_flightrec()
        recorder.note(Events.RX, "0:0", 8)
        t = reset_tracer()
        assert t is get_tracer()
        with t.measure(Stages.PRE_SHADE):
            pass
        # The observation landed in the *new* registry, stamped with
        # the *new* recorder's seq.
        histogram = _wall_histogram(Stages.PRE_SHADE)
        assert histogram.count == 1
        assert [seq for seq, _ in histogram.exemplars.values()] == [1]


class TestReading:
    def test_ordered_stages_follow_pipeline_order(self):
        t = Tracer()
        t.record(Stages.TX, packets=1)
        t.record("custom_stage", packets=1)
        t.record(Stages.RX, packets=1)
        t.record(Stages.GPU, packets=1)
        names = [c.stage for c in t.ordered_stages()]
        assert names == [Stages.RX, Stages.GPU, Stages.TX, "custom_stage"]

    def test_total_packets_is_max_not_sum(self):
        t = Tracer()
        t.record(Stages.RX, packets=100)
        t.record(Stages.GPU, packets=100)
        assert t.total_packets() == 100

    def test_pipeline_order_covers_all_stage_constants(self):
        names = {
            v for k, v in vars(Stages).items()
            if not k.startswith("_") and isinstance(v, str)
        }
        assert names == set(PIPELINE_ORDER)


class TestGlobalTracer:
    def test_reset_swaps_and_restores(self):
        original = get_tracer()
        try:
            fresh = reset_tracer()
            assert get_tracer() is fresh
            assert fresh is not original
        finally:
            set_tracer(original)
