"""One-shot experiment reports: ``python -m repro [trace|metrics|chaos]``.

Four subcommands share this module:

* the default (no subcommand) prints the reproduction's headline
  numbers next to the paper's — a quick smoke check that the calibrated
  models are intact without running the full benchmark suite;
* ``trace`` runs a traced forwarding burst through the real framework
  and prints the Table-3-style per-stage cost breakdown plus the
  bottleneck analyzer's verdict;
* ``metrics`` runs the same burst and dumps the metrics registry in
  Prometheus text, JSON-lines, or table form;
* ``chaos`` runs named fault-injection scenarios through the functional
  testbed and reports conservation and degradation per scenario
  (docs/RESILIENCE.md).
"""

from __future__ import annotations

import argparse
import sys

from repro import app_latency_ns, app_throughput_report
from repro.apps.ipsec import IPsecGateway
from repro.apps.ipv4 import IPv4Forwarder
from repro.apps.ipv6 import IPv6Forwarder
from repro.apps.lookup_only import (
    cpu_ipv6_lookup_rate_pps,
    gpu_crossover_batch,
    gpu_ipv6_lookup_rate_pps,
)
from repro.apps.openflow import OpenFlowApp
from repro.calib.constants import SYSTEM
from repro.gen.workloads import (
    ipsec_workload,
    ipv4_workload,
    ipv6_workload,
    openflow_workload,
)
from repro.io_engine.engine import io_throughput_report
from repro.sim.metrics import gbps_to_pps


def _line(label: str, paper: str, measured: str) -> None:
    print(f"  {label:<46} {paper:>14} {measured:>14}")


def main(argv=None) -> int:
    """Print the headline comparison table."""
    routes = 5_000  # small tables: the cost models don't depend on size
    apps = {
        "ipv4": IPv4Forwarder(ipv4_workload(num_routes=routes).table),
        "ipv6": IPv6Forwarder(ipv6_workload(num_routes=routes).table),
        "openflow": OpenFlowApp(
            openflow_workload(num_exact=2048, num_wildcard=32).switch
        ),
        "ipsec": IPsecGateway(ipsec_workload().sa),
    }

    print("PacketShader reproduction — headline numbers")
    print("=" * 78)
    _line("experiment", "paper", "reproduced")
    print("-" * 78)

    forwarding = io_throughput_report(64, mode="forward")
    _line("minimal forwarding @64B (Fig 6)", "41.1 Gbps",
          f"{forwarding.gbps:.1f} Gbps")
    _line("RX / TX @64B (Fig 6)", "53.1 / 79.3",
          f"{io_throughput_report(64, mode='rx').gbps:.1f} / "
          f"{io_throughput_report(64, mode='tx').gbps:.1f}")

    for name, paper_cpu, paper_gpu in (
        ("ipv4", "28", "39"),
        ("ipv6", "8", "38.2"),
        ("openflow", "~15", "32"),
        ("ipsec", "2.9", "10.2"),
    ):
        cpu = app_throughput_report(apps[name], 64, use_gpu=False).gbps
        gpu = app_throughput_report(apps[name], 64, use_gpu=True).gbps
        _line(
            f"{name} @64B CPU->GPU (Fig 11)",
            f"{paper_cpu} -> {paper_gpu}",
            f"{cpu:.1f} -> {gpu:.1f}",
        )

    peak = gpu_ipv6_lookup_rate_pps(16384) / cpu_ipv6_lookup_rate_pps(1)
    _line("GPU lookup crossover vs 1 CPU (Fig 2)", "> 320 pkts",
          f"{gpu_crossover_batch(1)} pkts")
    _line("GPU lookup peak vs 1 CPU (Fig 2)", "~10x", f"{peak:.1f}x")

    latency = app_latency_ns(apps["ipv6"], 64, gbps_to_pps(12, 64), use_gpu=True)
    _line("IPv6 RTT @12 Gbps, CPU+GPU (Fig 12)", "200-400 us",
          f"{latency / 1000:.0f} us")

    _line("system cost (Table 2)", "~$7,000", f"${SYSTEM.total_cost}")
    _line("power full load CPU->GPU (Sec 7)", "353 -> 594 W",
          f"{SYSTEM.power_full_cpu_w} -> {SYSTEM.power_full_gpu_w} W")
    print("-" * 78)
    print("full sweeps: pytest benchmarks/ --benchmark-only -s")
    print("per-stage trace: python -m repro trace | metrics")
    return 0


# ----------------------------------------------------------------------
# Traced runs: ``python -m repro trace`` / ``python -m repro metrics``.
# ----------------------------------------------------------------------


def _run_parser(prog: str, doc: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=prog, description=doc)
    parser.add_argument(
        "--app", choices=("ipv4", "ipv6"), default="ipv4",
        help="forwarding application to trace (default: ipv4)",
    )
    parser.add_argument(
        "--packets", type=int, default=4096,
        help="burst size in packets (default: 4096)",
    )
    parser.add_argument(
        "--frame-len", type=int, default=None,
        help="frame length in bytes (default: 64 for ipv4, 78 for ipv6)",
    )
    parser.add_argument(
        "--cpu-only", action="store_true",
        help="run the CPU-only path instead of the GPU workflow",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="workload RNG seed (default: 1)",
    )
    return parser


def _traced_run(args) -> "PacketShader":
    """Run one traced burst on fresh observability state.

    Resets the global registry, flight recorder, and tracer so
    the output describes this run alone, then pushes ``args.packets``
    real frames through the framework.
    """
    from repro.core.config import RouterConfig
    from repro.core.framework import PacketShader
    from repro.obs import reset_flightrec, reset_registry, reset_tracer

    reset_registry()
    reset_flightrec()
    reset_tracer()
    routes = 5_000
    if args.app == "ipv6":
        workload = ipv6_workload(num_routes=routes, seed=args.seed)
        app = IPv6Forwarder(workload.table)
        frame_len = args.frame_len or 78
        frames = workload.generator.ipv6_burst(args.packets, frame_len)
    else:
        workload = ipv4_workload(num_routes=routes, seed=args.seed)
        app = IPv4Forwarder(workload.table)
        frame_len = args.frame_len or 64
        frames = workload.generator.ipv4_burst(args.packets, frame_len)
    router = PacketShader(app, RouterConfig(use_gpu=not args.cpu_only))
    router.process_frames(frames)
    return router


def trace_main(argv=None) -> int:
    """Trace one forwarding burst and print the per-stage breakdown."""
    from repro.obs import analyze, get_tracer, stage_table

    parser = _run_parser(
        "python -m repro trace",
        "Trace a forwarding burst and print the Table-3-style "
        "per-stage cost breakdown.",
    )
    args = parser.parse_args(argv)
    try:
        router = _traced_run(args)
    except ValueError as exc:
        parser.error(str(exc))
    mode = "cpu-only" if args.cpu_only else "cpu+gpu"
    stats = router.stats
    print(f"traced {args.app} run ({mode}): {stats.received} packets in, "
          f"{stats.forwarded} forwarded, {stats.dropped} dropped, "
          f"{stats.slow_path} slow-path, {stats.gpu_launches} GPU launches")
    print()
    summary = get_tracer().summary()
    print(stage_table(summary, title=f"{args.app} per-stage cost breakdown"))
    verdict = analyze(summary)
    if verdict is not None:
        print(f"bottleneck: {verdict.stage} "
              f"({verdict.share:.0%} of per-packet time)")
    return 0


def metrics_main(argv=None) -> int:
    """Run a traced burst and dump the metrics registry."""
    from repro.obs import (
        export_jsonl,
        export_prometheus,
        get_registry,
        get_tracer,
        stage_table,
    )

    parser = _run_parser(
        "python -m repro metrics",
        "Run a traced forwarding burst and dump the metrics registry.",
    )
    parser.add_argument(
        "--format", choices=("prometheus", "jsonl", "table"),
        default="prometheus", help="output format (default: prometheus)",
    )
    args = parser.parse_args(argv)
    try:
        _traced_run(args)
    except ValueError as exc:
        parser.error(str(exc))
    if args.format == "prometheus":
        sys.stdout.write(export_prometheus(get_registry()))
    elif args.format == "jsonl":
        sys.stdout.write(export_jsonl(get_tracer(), get_registry()))
    else:
        print(stage_table(get_tracer().summary(),
                          title=f"{args.app} per-stage cost breakdown"))
    return 0


def chaos_main(argv=None) -> int:
    """Run fault-injection scenarios and print the chaos report."""
    import json

    from repro.faults.scenarios import SCENARIOS, run_scenario
    from repro.obs import reset_flightrec, reset_registry, reset_tracer

    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Run deterministic fault-injection scenarios through "
        "the functional testbed and check the conservation and "
        "degradation invariants.",
    )
    parser.add_argument(
        "--scenario", default="all",
        help="scenario to run (default: all; see --list)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_scenarios",
        help="list the available scenarios and exit",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="fault plan seed (default: 1)",
    )
    parser.add_argument(
        "--packets", type=int, default=2048,
        help="packets injected per scenario (default: 2048)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit one JSON object per scenario instead of the table",
    )
    args = parser.parse_args(argv)
    if args.packets <= 0:
        parser.error("packets must be positive")
    if args.list_scenarios:
        for name in sorted(SCENARIOS):
            scenario = SCENARIOS[name]
            traits = [f"traffic={scenario.traffic}", f"app={scenario.app}"]
            if scenario.plan.rules:
                traits.append(f"faults={len(scenario.plan.rules)}")
            if scenario.overload:
                traits.append("overload-control")
            print(f"{name:<16} {' '.join(traits)}")
        return 0
    if args.scenario != "all" and args.scenario not in SCENARIOS:
        # Distinct exit code: 2 = unknown scenario (vs 1 = scenario ran
        # and an invariant failed), so CI can tell a typo from a bug.
        print(
            f"unknown scenario {args.scenario!r} "
            f"(choose from {', '.join(sorted(SCENARIOS))})",
            file=sys.stderr,
        )
        return 2
    names = sorted(SCENARIOS) if args.scenario == "all" else [args.scenario]
    failures = 0
    if not args.as_json:
        print(f"chaos run: seed={args.seed}, {args.packets} packets/scenario")
        print(f"  {'scenario':<16} {'in':>6} {'fwd':>6} {'drop':>6} "
              f"{'slow':>5} {'shed':>5} {'faults':>6} {'retry':>5} "
              f"{'degr':>5} {'conserved':>9}")
        print("-" * 78)
    for name in names:
        reset_registry()
        reset_flightrec()
        reset_tracer()
        report = run_scenario(name, seed=args.seed, packets=args.packets)
        if not report.conservation_ok:
            failures += 1
        if args.as_json:
            print(json.dumps(report.to_dict(), sort_keys=True))
            continue
        fired = sum(report.faults_fired.values())
        print(f"  {name:<16} {report.received:>6} {report.forwarded:>6} "
              f"{report.dropped:>6} {report.slow_path:>5} "
              f"{report.rx_shed:>5} {fired:>6} "
              f"{report.gpu_retries:>5} {report.degraded_chunks:>5} "
              f"{'ok' if report.conservation_ok else 'VIOLATED':>9}")
    if not args.as_json:
        print("-" * 78)
        sample = run_scenario(names[0], seed=args.seed, packets=64)
        print(f"degraded capacity (breaker open): {sample.degraded_gbps:.2f} "
              f"Gbps vs CPU-only baseline {sample.cpu_only_gbps:.2f} Gbps "
              f"({sample.degraded_ratio:.1%})")
        print("conservation: received == forwarded + dropped + slow_path "
              + ("held in every scenario" if failures == 0
                 else f"VIOLATED in {failures} scenario(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
