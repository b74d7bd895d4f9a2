"""The ``repro top`` dashboard: panel rendering and the CLI entry point."""

import pytest

from repro.obs import names
from repro.obs.flightrec import Events, reset_flightrec
from repro.obs.registry import get_registry, reset_registry
from repro.obs.top import TopView, _ns, _si, top_main
from repro.obs.trace import Stages, reset_tracer


@pytest.fixture(autouse=True)
def fresh_obs():
    reset_registry()
    reset_flightrec()
    reset_tracer()
    yield
    reset_registry()
    reset_flightrec()
    reset_tracer()


class TestFormatting:
    def test_si_scales(self):
        assert _si(950) == "950"
        assert _si(1_234_567) == "1.23M"
        assert _si(2_500_000_000) == "2.50G"

    def test_ns_scales(self):
        assert _ns(500) == "500ns"
        assert _ns(4_200) == "4.2us"
        assert _ns(3_000_000) == "3.00ms"
        assert _ns(float("nan")) == "-"


class TestTopView:
    def test_empty_state_renders_placeholders(self):
        screen = TopView().render()
        assert "repro top" in screen
        assert "no spans" in screen
        assert "flightrec   seq 0" in screen

    def test_conservation_check_reads_ok(self):
        registry = get_registry()
        registry.counter(names.ROUTER_RECEIVED_PACKETS).inc(100)
        registry.counter(names.ROUTER_FORWARDED_PACKETS).inc(90)
        registry.counter(names.ROUTER_DROPPED_PACKETS).inc(8)
        registry.counter(names.ROUTER_SLOW_PATH_PACKETS).inc(2)
        screen = TopView().render(pps=1000.0)
        assert "conservation ok" in screen
        assert "VIOLATED" not in screen

    def test_conservation_violation_is_loud(self):
        registry = get_registry()
        registry.counter(names.ROUTER_RECEIVED_PACKETS).inc(100)
        registry.counter(names.ROUTER_FORWARDED_PACKETS).inc(50)
        assert "VIOLATED" in TopView().render()

    def test_recorder_tail_shows_latest_events(self):
        recorder = reset_flightrec()
        for index in range(8):
            recorder.note(Events.QUEUE, "master", index)
        screen = TopView().render()
        # Tail of five: seqs 4-8 visible, 1-3 scrolled off.
        assert "#8" in screen
        assert "#4" in screen
        assert "#3      " not in screen

    def test_breaker_panel_absent_without_devices(self):
        assert "breakers" not in TopView().render()

    def test_breaker_panel_reads_gauges(self):
        registry = get_registry()
        registry.gauge(names.FAULTS_DEGRADED_MODE, device="0").set(1)
        registry.counter(names.FAULTS_BREAKER_OPENS, device="0").inc(2)
        screen = TopView().render()
        assert "gpu0 OPEN (opens 2)" in screen


class TestTopMain:
    def test_once_prints_a_full_snapshot(self, capsys):
        assert top_main(["--once", "--packets", "64"]) == 0
        out = capsys.readouterr().out
        assert "ipv4 forwarding" in out
        assert "conservation ok" in out
        assert "pre_shade" in out
        assert "flightrec" in out
        # CI mode is plain text: no ANSI clear sequences.
        assert "\x1b[2J" not in out

    def test_once_with_a_chaos_scenario(self, capsys):
        assert top_main(
            ["--once", "--scenario", "breaker", "--packets", "256"]
        ) == 0
        out = capsys.readouterr().out
        assert "chaos scenario 'breaker'" in out
        assert "faults" in out
        assert "gpu.launch" in out

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            top_main(["--once", "--scenario", "nope"])

    def test_nonpositive_packets_rejected(self):
        with pytest.raises(SystemExit):
            top_main(["--once", "--packets", "0"])

    def test_iterations_bound_the_run(self, capsys):
        assert top_main(
            ["--iterations", "2", "--interval", "0", "--packets", "64"]
        ) == 0
        out = capsys.readouterr().out
        # Two refreshes, each clearing the screen.
        assert out.count("\x1b[2J") == 2


class TestRegistrySummaries:
    """The registry-only helpers behind the multi-worker panes."""

    def _forwarding_registry(self):
        registry = get_registry()
        registry.counter(names.IO_DRIVER_RX_PACKETS).inc(100)
        registry.counter(names.IO_DRIVER_RX_DROPS).inc(10)
        registry.counter(names.OVERLOAD_SHED_PACKETS).inc(5)
        registry.counter(names.ROUTER_RECEIVED_PACKETS).inc(95)
        registry.counter(names.ROUTER_FORWARDED_PACKETS).inc(90)
        registry.counter(names.ROUTER_DROPPED_PACKETS).inc(3)
        registry.counter(names.ROUTER_SLOW_PATH_PACKETS).inc(2)
        return registry

    def test_ingress_identity_holds_on_a_conserving_registry(self):
        from repro.obs.top import ingress_identity

        identity = ingress_identity(self._forwarding_registry())
        assert identity == {
            "injected": 110, "rx_dropped": 10, "rx_shed": 5,
            "received": 95, "ok": True,
        }

    def test_ingress_identity_flags_lost_packets(self):
        from repro.obs.top import ingress_identity

        registry = self._forwarding_registry()
        registry.counter(names.ROUTER_FORWARDED_PACKETS).inc(7)
        assert ingress_identity(registry)["ok"] is False

    def test_identity_without_a_driver_uses_verdict_conservation(self):
        from repro.obs.top import ingress_identity

        registry = get_registry()
        registry.counter(names.ROUTER_RECEIVED_PACKETS).inc(10)
        registry.counter(names.ROUTER_FORWARDED_PACKETS).inc(10)
        assert ingress_identity(registry)["ok"] is True
        registry.counter(names.ROUTER_RECEIVED_PACKETS).inc(1)
        assert ingress_identity(registry)["ok"] is False

    def test_wall_stage_stats_reads_profiler_histograms(self):
        from repro.obs.top import wall_stage_stats
        from repro.obs.registry import WALL_NS_BUCKETS

        registry = get_registry()
        histogram = registry.histogram(
            names.PROF_STAGE_WALL_NS, buckets=WALL_NS_BUCKETS, stage="gpu",
        )
        for value in (100, 1000, 10000):
            histogram.observe(value)
        stats = wall_stage_stats(registry)
        assert set(stats) == {"gpu"}
        assert stats["gpu"]["count"] == 3
        assert stats["gpu"]["sum_ns"] == 11100
        assert stats["gpu"]["p99_ns"] >= stats["gpu"]["p50_ns"]

    def test_fleet_snapshot_shape(self):
        from repro.obs.top import fleet_snapshot

        registry = self._forwarding_registry()
        snapshot = fleet_snapshot({0: registry}, registry)
        assert snapshot["schema"] == 1
        assert list(snapshot["workers"]) == ["0"]
        pane = snapshot["workers"]["0"]
        assert pane["received"] == 95 and pane["conservation_ok"]
        assert snapshot["identity"]["ok"] is True

    def test_render_fleet_rows_and_identity_line(self):
        from repro.obs.top import render_fleet

        registry = self._forwarding_registry()
        screen = render_fleet({0: registry, 1: registry}, registry)
        assert "w0" in screen and "w1" in screen and "all" in screen
        assert "identity" in screen and "VIOLATED" not in screen


class TestTopJson:
    def test_json_scenario_run_exits_zero(self, capsys):
        import json

        assert top_main(
            ["--json", "--scenario", "ddos", "--packets", "256"]
        ) == 0
        out = capsys.readouterr().out
        snapshot = json.loads(out)  # no screens, exactly one document
        assert list(snapshot["workers"]) == ["0"]
        assert snapshot["identity"]["injected"] == 256
        assert snapshot["identity"]["ok"] is True
        assert snapshot["aggregate"]["stages"]

    def test_json_forward_run_exits_zero(self, capsys):
        import json

        assert top_main(["--json", "--packets", "64"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["identity"]["injected"] == 0
        assert snapshot["aggregate"]["received"] == 64

    def test_json_dump_dir_writes_a_worker_dump(self, capsys, tmp_path):
        from repro.obs.flightrec import load_dump

        assert top_main([
            "--json", "--scenario", "ddos", "--packets", "256",
            "--dump-dir", str(tmp_path),
        ]) == 0
        report = load_dump(tmp_path / "flightrec-w0.jsonl")
        assert report.meta["reason"] == "worker-0"
        assert report.reconciled

    def test_negative_workers_rejected(self):
        with pytest.raises(SystemExit):
            top_main(["--workers", "-1", "--once"])

    def test_workers_option_is_gone(self, capsys):
        """Per-process panes come from ``repro run``; ``top`` is always
        one process, so argparse rejects ``--workers``."""
        with pytest.raises(SystemExit) as exit_info:
            top_main(["--workers", "2", "--once"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err
