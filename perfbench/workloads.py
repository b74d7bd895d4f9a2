"""The benchmark's workloads: one ``PlaneSpec`` per traffic mix.

Plain data, importable without the program, so ``run.py`` can validate
a workload name before anything is run.  Every workload runs the forked
plane at 2 workers with 64 B frames; the program generates its own
traffic from ``PlaneSpec.seed``, which the benchmark takes from
``--seed``.  Why each was chosen, and its measured verdict mix, is in
``NOTES.md`` and ``BENCHMARK.json``.
"""

from __future__ import annotations

COMMON = {"workers": 2, "frame_len": 64, "packets": 2048}

WORKLOADS = {
    # Full RouteViews-sized table (282,797 prefixes): heavy set-up,
    # ~85% forwarded, so egress and post-shade work is large.  The
    # longer stream keeps the workers' set-up skew a small share of the
    # measured phase.  Runnable by name, but not declared in
    # BENCHMARK.json: its run-to-run spread is too wide (NOTES.md).
    "ipv4-routeviews": {"app": "ipv4", "num_routes": 0, "bursts": 24},
    # `python -m repro run`'s default table: most of a long stream
    # misses and is dropped; ingress work dominates each worker.
    "ipv4-miss-5k": {"app": "ipv4", "num_routes": 5_000, "bursts": 12},
    # 2,048 exact + 32 wildcard flows: ~95% take the slow path, the one
    # mix where the master runs real kernel work.
    "openflow-miss": {"app": "openflow", "bursts": 12},
}


def spec_fields(workload: str, seed: int, **overrides) -> dict:
    """``PlaneSpec`` keyword arguments for one workload and seed."""
    return {**COMMON, **WORKLOADS[workload], "seed": seed, **overrides}
