"""``python -m repro top``: the live dashboard over the metrics registry.

An ANSI refresh view (no curses dependency) that steps a workload and
redraws one screen per burst: throughput and verdict accounting, the
per-stage table with *both* clocks side by side (modelled ns/packet from
the span tracer, wall-clock p50/p99 from ``prof.stage_wall_ns``), queue
depths, breaker state per device, drop attribution, and the tail of the
flight recorder's event ring.  ``--once`` prints a single plain snapshot and
exits — the CI-safe mode.

``--json`` prints one machine-readable snapshot (the process as pane
``0``, the aggregate, the ingress conservation identity) instead of a
screen and exits nonzero if the identities are violated — the CI hook.
``--dump-dir`` writes the flight-recorder dump on exit, ready for
``python -m repro flightrec merge``.  The per-process panes of the real
multi-process plane come from ``python -m repro run``, which renders
them with :func:`render_fleet` from each worker's metric slab.

Keybindings: ``q`` + Enter quits (plain line-buffered stdin — no
terminal mode fiddling); Ctrl-C always works.  ``--scenario`` watches a
chaos scenario instead of the clean forwarding path, with a fresh seed
per burst so fault schedules keep evolving on screen.

The dashboard lives in ``obs/`` deliberately: it is the one layer
allowed to read the wall clock directly (reprolint RL001/RL007 scope
``sim``/``hw``/``io_engine``/``core``/``gen``), and it imports the sim
stack lazily inside :func:`top_main` so importing ``repro.obs`` never
drags the workload generators in.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.obs import names
from repro.obs.flightrec import FlightRecorder, get_flightrec
from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.trace import PIPELINE_ORDER, Tracer, get_tracer

ANSI_CLEAR = "\x1b[2J\x1b[H"


def _labeled(registry: MetricsRegistry, name: str) -> List[Tuple[Dict, float]]:
    """All ``(labels, value)`` pairs of one counter/gauge name."""
    out = []
    for metric in registry.collect():
        if metric.name == name and hasattr(metric, "value"):
            out.append((dict(metric.labels), metric.value))
    return out


def _si(value: float) -> str:
    """1234567 -> '1.23M' (keeps the panel columns narrow)."""
    for factor, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= factor:
            return f"{value / factor:.2f}{suffix}"
    return f"{value:.0f}"


def _ns(value: float) -> str:
    """Nanoseconds -> a human scale (ns/us/ms)."""
    if value != value:  # NaN: stage not yet sampled
        return "-"
    if abs(value) >= 1e6:
        return f"{value / 1e6:.2f}ms"
    if abs(value) >= 1e3:
        return f"{value / 1e3:.1f}us"
    return f"{value:.0f}ns"


class TopView:
    """Renders one text snapshot of the whole observability state."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        recorder: Optional[FlightRecorder] = None,
    ) -> None:
        self.registry = registry if registry is not None else get_registry()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.recorder = recorder if recorder is not None else get_flightrec()

    # -- panels ---------------------------------------------------------

    def throughput_panel(self, pps: float) -> List[str]:
        registry = self.registry
        received = registry.total(names.ROUTER_RECEIVED_PACKETS)
        forwarded = registry.total(names.ROUTER_FORWARDED_PACKETS)
        dropped = registry.total(names.ROUTER_DROPPED_PACKETS)
        slow = registry.total(names.ROUTER_SLOW_PATH_PACKETS)
        shed = registry.total(names.ROUTER_BACKPRESSURE_DROPS)
        lines = [
            f"throughput  {_si(pps)} pkt/s wall"
            f"   rx {_si(received)}  fwd {_si(forwarded)}"
            f"  drop {_si(dropped)}  slow {_si(slow)}",
        ]
        if received:
            conserved = received == forwarded + dropped + slow
            lines.append(
                f"verdicts    fwd {forwarded / received:.1%}"
                f"  drop {dropped / received:.1%}"
                f" (shed {_si(shed)})  slow {slow / received:.1%}"
                f"   conservation {'ok' if conserved else 'VIOLATED'}"
            )
        return lines

    def stage_panel(self) -> List[str]:
        """Both clocks per stage: modelled ns/pkt and wall p50/p99."""
        from repro.calib.constants import CPU

        summary = self.tracer.summary()
        wall = wall_stage_stats(self.registry)
        stages = [s for s in PIPELINE_ORDER if s in summary or s in wall]
        for stage in sorted(set(summary) | set(wall)):
            if stage not in stages:
                stages.append(stage)
        if not stages:
            return ["stages      (no spans or wall samples yet)"]
        lines = [
            f"{'stage':<12} {'packets':>9} {'sim ns/pkt':>11}"
            f" {'wall p50':>9} {'wall p99':>9} {'calls':>7}"
        ]
        for stage in stages:
            cost = summary.get(stage)
            stats = wall.get(stage, {})
            sim_ns = (
                f"{cost.time_ns(CPU.clock_hz) / cost.packets:.1f}"
                if cost is not None and cost.packets else "-"
            )
            lines.append(
                f"{stage:<12} {cost.packets if cost else 0:>9}"
                f" {sim_ns:>11}"
                f" {_ns(stats.get('p50_ns', float('nan'))):>9}"
                f" {_ns(stats.get('p99_ns', float('nan'))):>9}"
                f" {int(stats.get('count', 0)):>7}"
            )
        return lines

    def queue_panel(self) -> List[str]:
        registry = self.registry
        master = registry.value(names.CORE_MASTER_INPUT_DEPTH)
        rejected = registry.total(names.CORE_MASTER_INPUT_REJECTED)
        workers = _labeled(registry, names.CORE_WORKER_OUTPUT_DEPTH)
        worker_part = " ".join(
            f"w{labels.get('worker', '?')}:{value:.0f}"
            for labels, value in workers
        )
        return [
            f"queues      master depth {master:.0f}"
            f" (rejected {_si(rejected)})"
            + (f"   outputs {worker_part}" if worker_part else "")
        ]

    def breaker_panel(self) -> List[str]:
        registry = self.registry
        gauges = _labeled(registry, names.FAULTS_DEGRADED_MODE)
        if not gauges:
            return []
        opens = {
            labels.get("device", "?"): value
            for labels, value in _labeled(registry, names.FAULTS_BREAKER_OPENS)
        }
        parts = []
        for labels, value in gauges:
            device = labels.get("device", "?")
            state = "OPEN" if value else "closed"
            parts.append(f"gpu{device} {state} (opens {opens.get(device, 0):.0f})")
        stalls = registry.total(names.FAULTS_WATCHDOG_STALLS)
        return [
            "breakers    " + "  ".join(parts)
            + f"   watchdog stalls {stalls:.0f}"
        ]

    def faults_panel(self) -> List[str]:
        injected = _labeled(self.registry, names.FAULTS_INJECTED)
        if not injected:
            return []
        parts = [
            f"{labels.get('site', '?')}:{value:.0f}"
            for labels, value in sorted(
                injected, key=lambda pair: pair[0].get("site", "")
            )
        ]
        return ["faults      " + "  ".join(parts)]

    def recorder_panel(self, tail: int = 5) -> List[str]:
        recorder = self.recorder
        lines = [
            f"flightrec   seq {recorder.seq}  retained {recorder.retained}"
            f"  evicted {recorder.evicted}"
        ]
        events = recorder.events()[-tail:]
        for event in events:
            fields = " ".join(f"{k}={v:g}" for k, v in event.fields.items())
            label = f" {event.label}" if event.label else ""
            lines.append(
                f"  #{event.seq:<8} {event.kind:<12}{label} {fields}".rstrip()
            )
        return lines

    # -- the whole screen ----------------------------------------------

    def render(self, pps: float = 0.0, title: str = "repro top") -> str:
        width = 72
        sections = [
            [f"{title}  —  q + Enter or Ctrl-C to quit"],
            self.throughput_panel(pps),
            self.stage_panel(),
            self.queue_panel(),
            self.breaker_panel(),
            self.faults_panel(),
            self.recorder_panel(),
        ]
        lines: List[str] = []
        for index, section in enumerate(sections):
            if section:
                lines.extend(section)
                lines.append(("=" if index == 0 else "-") * width)
        return "\n".join(lines[:-1]) + "\n"


# ----------------------------------------------------------------------
# Per-process summaries.  Everything below reads *registries only* — no
# tracer or recorder objects — so it works identically on the
# live in-process registry and on snapshots read out of another
# process's shared-memory slab, where no such objects exist on this side
# of the fork.
# ----------------------------------------------------------------------


def wall_stage_stats(registry: MetricsRegistry) -> Dict[str, Dict[str, float]]:
    """Per-stage {count, sum_ns, mean_ns, p50, p99} wall-time stats.

    Reads the histograms ``Tracer.measure`` left in any registry, so it
    works on a live registry and on a slab snapshot alike.
    """
    stats: Dict[str, Dict[str, float]] = {}
    for metric in registry.collect():
        if metric.name != names.PROF_STAGE_WALL_NS:
            continue
        if not hasattr(metric, "percentile") or metric.count == 0:
            continue
        stage = dict(metric.labels).get("stage", "?")
        stats[stage] = {
            "count": float(metric.count),
            "sum_ns": float(metric.sum),
            "mean_ns": float(metric.mean),
            "p50_ns": float(metric.percentile(50)),
            "p99_ns": float(metric.percentile(99)),
        }
    return stats


def ingress_identity(registry: MetricsRegistry) -> Dict[str, object]:
    """The shard-merge conservation identity, from counters alone.

    Every frame the driver sees is either dropped at ingress or written
    to the RX buffer, and everything written is either shed by overload
    control or received by the router — so on a drained system
    ``injected == rx_dropped + rx_shed + received``.  Workloads that
    bypass the driver (``--app`` forwarding feeds the router directly)
    have ``injected == 0``; the identity then falls back to the
    router's own verdict conservation.
    """
    rx = registry.total(names.IO_DRIVER_RX_PACKETS)
    drops = registry.total(names.IO_DRIVER_RX_DROPS)
    shed = registry.total(names.OVERLOAD_SHED_PACKETS)
    received = registry.total(names.ROUTER_RECEIVED_PACKETS)
    forwarded = registry.total(names.ROUTER_FORWARDED_PACKETS)
    dropped = registry.total(names.ROUTER_DROPPED_PACKETS)
    slow = registry.total(names.ROUTER_SLOW_PATH_PACKETS)
    conserved = received == forwarded + dropped + slow
    injected = rx + drops
    ok = conserved and (injected == 0 or rx == shed + received)
    return {
        "injected": int(injected),
        "rx_dropped": int(drops),
        "rx_shed": int(shed),
        "received": int(received),
        "ok": bool(ok),
    }


def registry_summary(registry: MetricsRegistry) -> Dict[str, object]:
    """One process's machine-readable panel, from its registry alone."""
    received = registry.total(names.ROUTER_RECEIVED_PACKETS)
    forwarded = registry.total(names.ROUTER_FORWARDED_PACKETS)
    dropped = registry.total(names.ROUTER_DROPPED_PACKETS)
    slow = registry.total(names.ROUTER_SLOW_PATH_PACKETS)
    breakers_open = sum(
        1 for _, value in _labeled(registry, names.FAULTS_DEGRADED_MODE)
        if value
    )
    return {
        "received": int(received),
        "forwarded": int(forwarded),
        "dropped": int(dropped),
        "slow_path": int(slow),
        "shed": int(registry.total(names.OVERLOAD_SHED_PACKETS)),
        "backpressure_drops": int(
            registry.total(names.ROUTER_BACKPRESSURE_DROPS)
        ),
        "rx_packets": int(registry.total(names.IO_DRIVER_RX_PACKETS)),
        "rx_drops": int(registry.total(names.IO_DRIVER_RX_DROPS)),
        "queue_depth": int(registry.value(names.CORE_MASTER_INPUT_DEPTH)),
        "breakers_open": breakers_open,
        "conservation_ok": bool(received == forwarded + dropped + slow),
        "stages": wall_stage_stats(registry),
    }


def fleet_snapshot(
    per_worker: Dict[int, MetricsRegistry], aggregate: MetricsRegistry,
) -> Dict[str, object]:
    """``top --json``: one pane per process, aggregate, identity."""
    return {
        "schema": 1,
        "workers": {
            str(wid): registry_summary(registry)
            for wid, registry in sorted(per_worker.items())
        },
        "aggregate": registry_summary(aggregate),
        "identity": ingress_identity(aggregate),
    }


def _fleet_row(tag: str, summary: Dict[str, object]) -> str:
    received = int(summary["received"])

    def pct(key: str) -> str:
        return f"{int(summary[key]) / received:.1%}" if received else "-"

    stages: Dict[str, Dict[str, float]] = summary["stages"]
    worst = max(
        stages.items(), key=lambda kv: kv[1]["p99_ns"], default=None,
    )
    worst_txt = f"{worst[0]} {_ns(worst[1]['p99_ns'])}" if worst else "-"
    brk = "OPEN" if summary["breakers_open"] else "-"
    return (
        f"{tag:<6} {_si(received):>8} {pct('forwarded'):>7}"
        f" {pct('dropped'):>7} {pct('slow_path'):>7}"
        f" {_si(int(summary['shed'])):>7} {int(summary['queue_depth']):>6}"
        f" {worst_txt:>18} {brk:>5}"
    )


def render_fleet(
    panes: Dict[object, MetricsRegistry],
    aggregate: MetricsRegistry,
    title: str = "processes",
) -> str:
    """A pane row per process (``w<id>`` for workers) plus the aggregate."""
    width = 78
    lines = [title, "=" * width]
    lines.append(
        f"{'':<6} {'rx':>8} {'fwd':>7} {'drop':>7} {'slow':>7}"
        f" {'shed':>7} {'depth':>6} {'slowest p99':>18} {'brk':>5}"
    )
    for name, registry in panes.items():
        tag = f"w{name}" if str(name).isdigit() else str(name)
        lines.append(_fleet_row(tag, registry_summary(registry)))
    lines.append("-" * width)
    lines.append(_fleet_row("all", registry_summary(aggregate)))
    identity = ingress_identity(aggregate)
    lines.append(
        f"identity    injected {_si(identity['injected'])}"
        f" = rx_drop {_si(identity['rx_dropped'])}"
        f" + shed {_si(identity['rx_shed'])}"
        f" + received {_si(identity['received'])}"
        f"   {'ok' if identity['ok'] else 'VIOLATED'}"
    )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Workload steppers: what the dashboard watches.
# ----------------------------------------------------------------------


class _ForwardRunner:
    """Steps the clean forwarding path, one burst per refresh."""

    def __init__(self, app: str, packets: int, seed: int) -> None:
        from repro.apps.ipv4 import IPv4Forwarder
        from repro.apps.ipv6 import IPv6Forwarder
        from repro.core.framework import PacketShader
        from repro.gen.workloads import ipv4_workload, ipv6_workload

        self.packets = packets
        if app == "ipv6":
            workload = ipv6_workload(num_routes=5_000, seed=seed)
            self.router = PacketShader(IPv6Forwarder(workload.table))
            self._burst = lambda: workload.generator.ipv6_burst(packets, 78)
        else:
            workload = ipv4_workload(num_routes=5_000, seed=seed)
            self.router = PacketShader(IPv4Forwarder(workload.table))
            self._burst = lambda: workload.generator.ipv4_burst(packets, 64)
        self.title = f"repro top — {app} forwarding"

    def step(self) -> int:
        self.router.process_frames(self._burst())
        return self.packets


class _ChaosRunner:
    """Steps a chaos scenario, reseeding each burst so faults keep firing."""

    def __init__(self, scenario: str, packets: int, seed: int) -> None:
        from repro.faults.scenarios import run_scenario

        self._run = run_scenario
        self.scenario = scenario
        self.packets = packets
        self.seed = seed
        self.title = f"repro top — chaos scenario {scenario!r}"

    def step(self) -> int:
        self._run(self.scenario, seed=self.seed, packets=self.packets)
        self.seed += 1
        return self.packets


def _quit_requested() -> bool:
    """Non-blocking check for a ``q`` line on a tty stdin."""
    import select

    try:
        if not sys.stdin.isatty():
            return False
        ready, _, _ = select.select([sys.stdin], [], [], 0)
    except (OSError, ValueError):
        return False
    if ready:
        return sys.stdin.readline().strip().lower().startswith("q")
    return False


def top_main(argv=None) -> int:
    """Entry point for ``python -m repro top``."""
    import argparse

    from repro.obs import reset_flightrec, reset_registry, reset_tracer

    parser = argparse.ArgumentParser(
        prog="python -m repro top",
        description="Live dashboard over the metrics registry, tracer, "
        "and flight recorder while a workload runs.",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="run one burst, print one plain snapshot, exit (CI mode)",
    )
    parser.add_argument(
        "--iterations", type=int, default=0,
        help="bursts to run before exiting (default: until quit)",
    )
    parser.add_argument(
        "--interval", type=float, default=0.5,
        help="seconds between refreshes (default: 0.5)",
    )
    parser.add_argument(
        "--packets", type=int, default=2048,
        help="packets per burst (default: 2048)",
    )
    parser.add_argument(
        "--app", choices=("ipv4", "ipv6"), default="ipv4",
        help="forwarding application to run (default: ipv4)",
    )
    parser.add_argument(
        "--scenario", default=None,
        help="watch a chaos scenario instead of clean forwarding",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="workload seed (default: 1)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print one machine-readable snapshot (the process as pane "
        "0, aggregate, ingress identity) instead of a screen; exits "
        "nonzero if the conservation identities are violated",
    )
    parser.add_argument(
        "--dump-dir", default=None,
        help="directory for the flight-recorder dump on exit "
        "(input for `python -m repro flightrec merge`)",
    )
    args = parser.parse_args(argv)
    if args.packets <= 0:
        parser.error("packets must be positive")
    if args.scenario is not None:
        from repro.faults.scenarios import SCENARIOS

        if args.scenario not in SCENARIOS:
            parser.error(
                f"unknown scenario {args.scenario!r} "
                f"(choose from {', '.join(sorted(SCENARIOS))})"
            )
    reset_registry()
    reset_flightrec()
    reset_tracer()
    if args.scenario is not None:
        runner = _ChaosRunner(args.scenario, args.packets, args.seed)
    else:
        runner = _ForwardRunner(args.app, args.packets, args.seed)
    view = TopView()
    one_shot = args.once or args.json
    iterations = 1 if one_shot else args.iterations
    count = 0
    try:
        while True:
            start = time.perf_counter_ns()
            packets = runner.step()
            elapsed = max(1, time.perf_counter_ns() - start)
            pps = packets * 1e9 / elapsed
            if args.json:
                pass  # one JSON document at the end, no screens
            elif args.once:
                sys.stdout.write(view.render(pps, title=runner.title))
            else:
                sys.stdout.write(
                    ANSI_CLEAR + view.render(pps, title=runner.title)
                )
                sys.stdout.flush()
            count += 1
            if iterations and count >= iterations:
                break
            if _quit_requested():
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        sys.stdout.write("\n")
    if args.dump_dir:
        from pathlib import Path

        dump_dir = Path(args.dump_dir)
        dump_dir.mkdir(parents=True, exist_ok=True)
        get_flightrec().dump(
            dump_dir / "flightrec-w0.jsonl", reason="worker-0",
        )
    if args.json:
        import json

        registry = get_registry()
        snapshot = fleet_snapshot({0: registry}, registry)
        sys.stdout.write(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        return 0 if snapshot["identity"]["ok"] else 1
    return 0
