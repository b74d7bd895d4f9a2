"""``python -m repro run``: drive the sharded data plane from the CLI.

The operational entry point of docs/SHARDING.md: runs a forwarding
workload across N real worker processes (plus the master in this
process), prints the merged report, and exits nonzero when any worker
fails or the merged ingress identity is violated — the CI sharded
smoke job asserts on the exit status alone.

``--workers 1`` still exercises the full cross-process machinery (one
worker, one master, descriptors over queues); ``--inprocess`` runs the
sequential reference decomposition instead, for quick differential
checks without forking.

Before the plane unlinks its segments, each worker's metric slab is
snapshotted; with the master's own registry (this run only) they make
the per-process panes of ``repro top``'s renderer: one per worker, one
for the master, an aggregate row and the merged identity (``"processes"``
in ``--json``).  The panes are a second accounting channel, so each
worker pane must agree with that worker's report and the aggregate with
the merged totals, or the run exits 1.  ``--inprocess`` shows its single
process as pane ``0``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.obs import (
    MetricsRegistry,
    get_registry,
    merge_into,
    read_slab,
    reset_flightrec,
    reset_registry,
    reset_tracer,
)
from repro.obs.top import ingress_identity, registry_summary, render_fleet
from repro.shard.plane import (
    PlaneReport,
    PlaneSpec,
    ShardedDataPlane,
    run_plane_inprocess,
)

#: The verdict fields both accounting channels carry.
VERDICTS = ("received", "forwarded", "dropped", "slow_path")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro run",
        description="run a forwarding workload on the sharded data plane",
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker processes (default 2)",
    )
    parser.add_argument(
        "--app", default="ipv4", choices=("ipv4", "ipv6", "openflow"),
        help="application to run (default ipv4)",
    )
    parser.add_argument(
        "--packets", type=int, default=2048, metavar="N",
        help="frames per ingress burst, pre-partition (default 2048)",
    )
    parser.add_argument(
        "--bursts", type=int, default=4, metavar="N",
        help="ingress bursts (default 4)",
    )
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument(
        "--num-routes", type=int, default=5_000, metavar="N",
        help="routing-table size (default 5000)",
    )
    parser.add_argument(
        "--dump-dir", default=None, metavar="DIR",
        help="write per-worker flight-recorder dumps here",
    )
    parser.add_argument(
        "--inprocess", action="store_true",
        help="run the sequential reference decomposition (no forking)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    return parser


def run_with_panes(spec: PlaneSpec, inprocess: bool = False):
    """(report, pane registries by name, aggregate) for one run.

    Resets the process-global registry, flight recorder and tracer
    first, so the ``master`` pane (or the in-process pane ``0``) counts
    this run only.
    """
    reset_registry()
    reset_flightrec()
    reset_tracer()
    if inprocess:
        report = run_plane_inprocess(spec)
        panes = {"0": get_registry()}
    else:
        with ShardedDataPlane(spec) as plane:
            report = plane.run()
            # Snapshots are plain registries: they outlive the unlink.
            panes = {
                str(wid): read_slab(slab)
                for wid, slab in enumerate(plane.slabs)
            }
        panes["master"] = get_registry()
    aggregate = MetricsRegistry()
    for registry in panes.values():
        merge_into(aggregate, registry)
    return report, panes, aggregate


def accounting_mismatches(report: PlaneReport, processes: dict,
                          per_worker: bool) -> List[str]:
    """Where the slab panes disagree with the workers' reports."""
    pairs = [("aggregate", processes["aggregate"], report.verdict_totals())]
    if per_worker:
        pairs += [
            (f"worker {w.worker_id}", processes[str(w.worker_id)], vars(w))
            for w in report.workers
        ]
    problems = []
    for name, pane, reported in pairs:
        pane = {key: pane[key] for key in VERDICTS}
        reported = {key: reported[key] for key in VERDICTS}
        if pane != reported:
            problems.append(f"{name}: panes {pane} != report {reported}")
    return problems


def run_main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.workers < 1:
        print("run: --workers must be >= 1", file=sys.stderr)
        return 2
    spec = PlaneSpec(
        app=args.app,
        workers=args.workers,
        packets=args.packets,
        bursts=args.bursts,
        seed=args.seed,
        num_routes=args.num_routes,
        dump_dir=args.dump_dir,
    )
    try:
        report, panes, aggregate = run_with_panes(spec, args.inprocess)
    except RuntimeError as exc:  # the master's named worker failures
        print(f"run: {exc}", file=sys.stderr)
        return 1
    processes = {name: registry_summary(r) for name, r in panes.items()}
    processes["aggregate"] = registry_summary(aggregate)
    processes["identity"] = ingress_identity(aggregate)
    failed = [w.worker_id for w in report.workers if w.exitcode != 0]
    mismatches = accounting_mismatches(
        report, processes, per_worker=not args.inprocess
    )
    if args.json:
        print(json.dumps(
            {**report.to_dict(), "processes": processes},
            indent=2, sort_keys=True,
        ))
    else:
        mode = "in-process" if args.inprocess else "multi-process"
        print(f"repro run — {args.app} on {args.workers} shards ({mode})")
        print(
            f"  injected {report.injected}  received {report.received}  "
            f"forwarded {report.forwarded}  dropped {report.dropped}  "
            f"slow-path {report.slow_path}"
        )
        for worker in report.workers:
            print(
                f"  worker {worker.worker_id}: received {worker.received}  "
                f"forwarded {worker.forwarded}  chunks {worker.chunks}  "
                f"exit {worker.exitcode}"
            )
        print(
            f"  master batches {report.master_batches}  "
            f"chunks {report.master_chunks}  "
            f"shm fallbacks {report.shm_fallbacks}"
        )
        print(
            "  conservation "
            + ("OK" if report.conservation_ok else "VIOLATED")
        )
        print(render_fleet(panes, aggregate, title="processes"), end="")
    if failed:
        print(f"run: workers failed: {failed}", file=sys.stderr)
        return 1
    if not report.conservation_ok:
        print("run: merged ingress identity violated", file=sys.stderr)
        return 1
    if mismatches:
        print(
            "run: slab and report accounting disagree: "
            + "; ".join(mismatches),
            file=sys.stderr,
        )
        return 1
    return 0
