"""Wall-clock microbenchmarks: scalar reference vs vectorized data plane.

The perf scorecard (``runner.py``) measures *simulated* fidelity — its
committed artifacts are deterministic and carry no timing.  This module
measures the other axis: how fast the reproduction itself runs.  Each
microbenchmark times the pre-vectorization per-packet formulation
(:mod:`repro.apps.scalar_ref`, or the OpenFlow switch's scalar key
path) against the structure-of-arrays fast path on identical inputs,
so future PRs can see wall-clock regressions in ``bench-history.jsonl``
(git-ignored: timings are per-machine).

Invoked as ``python -m repro bench --wallclock``.  Methodology:
interleaved best-of-``repeat`` timing of a loop over pre-built chunks
(see :func:`_best_of_pair`); setup and frame construction are excluded
from the timed region.  Both formulations mutate TTLs in place, so
iteration counts stay well below the generator's initial TTL.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.apps import scalar_ref
from repro.apps.ipv4 import IPv4Forwarder
from repro.core.chunk import Chunk
from repro.gen.packetgen import PacketGenerator
from repro.gen.workloads import openflow_workload
from repro.lookup.dir24_8 import Dir24_8
from repro.net.checksum import checksum16, checksum16_batch
from repro.openflow.flowkey import extract_flow_key, pack_flow_keys
from repro.openflow.flowtable import fnv1a_hash, fnv1a_hash_rows
from repro.perf import runner, schema

#: Chunk sizes the classification benchmark sweeps (the acceptance
#: criterion targets >= 5x at 64+).
CHUNK_SIZES = (64, 256)
#: Chunks per timed loop and best-of repetitions.  Best-of-N with a
#: generous N: each timed region is well under a millisecond, so the
#: extra repetitions are cheap and the minimum shrugs off transient
#: scheduler/GC contention that can poison a whole 5-sample window.
CHUNKS_PER_RUN = 16
REPEAT = 9
#: Frames per generated burst: one shard-plane burst before partitioning.
GEN_BURST = 2048


def _best_of_pair(
    scalar_fn: Callable[[], None],
    vector_fn: Callable[[], None],
    repeat: int = REPEAT,
) -> Tuple[float, float]:
    """Interleaved best-of timing of the two formulations.

    Timing all scalar repetitions and then all vector repetitions lets
    a burst of background load poison one side's entire sample window
    and skew the speedup either way.  Alternating the samples means
    time-varying contention lands on adjacent samples of *both*
    formulations, and the per-side minimum only needs one quiet window
    each.  One untimed warmup of each side precedes the timed samples
    so first-touch costs (allocator warmup, lazy numpy dispatch setup,
    cache population) don't land on the first ones.
    """
    scalar_fn()
    vector_fn()
    scalar_best = vector_best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        scalar_fn()
        scalar_best = min(scalar_best, time.perf_counter() - start)
        start = time.perf_counter()
        vector_fn()
        vector_best = min(vector_best, time.perf_counter() - start)
    return scalar_best, vector_best


def _ipv4_chunks(chunk_size: int, seed: int = 20100830) -> List[Chunk]:
    generator = PacketGenerator(seed=seed)
    return [
        Chunk(frames=generator.ipv4_burst(chunk_size))
        for _ in range(CHUNKS_PER_RUN)
    ]


def bench_ipv4_classify(chunk_size: int) -> Dict[str, object]:
    """Scalar vs vectorized IPv4 classification (the tentpole number)."""
    app = IPv4Forwarder(table=Dir24_8())
    scalar_chunks = _ipv4_chunks(chunk_size)
    vector_chunks = _ipv4_chunks(chunk_size)
    reasons = dict(app.slow_path_reasons)

    def run_scalar() -> None:
        for chunk in scalar_chunks:
            scalar_ref.classify_ipv4_scalar(chunk, frozenset(), True, reasons)

    def run_vector() -> None:
        for chunk in vector_chunks:
            app._classify(chunk)

    scalar_s, vector_s = _best_of_pair(run_scalar, run_vector)
    packets = chunk_size * CHUNKS_PER_RUN
    return {
        "bench": "ipv4_classify",
        "chunk_size": chunk_size,
        "packets": packets,
        "scalar_us_per_packet": round(scalar_s / packets * 1e6, 4),
        "vector_us_per_packet": round(vector_s / packets * 1e6, 4),
        "speedup": round(scalar_s / vector_s, 2),
    }


def bench_openflow_classify(chunk_size: int) -> Dict[str, object]:
    """OpenFlow key path: per-key extract, FNV-1a and wildcard scan (the
    scalar oracle) vs packed keys, row hash and compiled first match."""
    workload = openflow_workload(num_exact=2048, num_wildcard=32, seed=1)
    wildcard = workload.switch.wildcard
    chunks = [
        Chunk(frames=workload.generator.ipv4_burst(chunk_size))
        for _ in range(CHUNKS_PER_RUN)
    ]

    def run_scalar() -> None:
        for chunk in chunks:
            for frame in chunk.frames:
                key = extract_flow_key(bytes(frame), chunk.in_port)
                fnv1a_hash(key.pack())
                wildcard.lookup(key)

    def run_vector() -> None:
        for chunk in chunks:
            keys, _ = pack_flow_keys(chunk.batch(), chunk.in_port)
            fnv1a_hash_rows(keys)
            wildcard.first_match(keys)

    scalar_s, vector_s = _best_of_pair(run_scalar, run_vector)
    packets = chunk_size * CHUNKS_PER_RUN
    return {
        "bench": "openflow_classify",
        "chunk_size": chunk_size,
        "packets": packets,
        "scalar_us_per_packet": round(scalar_s / packets * 1e6, 4),
        "vector_us_per_packet": round(vector_s / packets * 1e6, 4),
        "speedup": round(scalar_s / vector_s, 2),
    }


def bench_checksum(regions: int = 256, length: int = 20) -> Dict[str, object]:
    """Per-header scalar checksum loop vs one batched column sum."""
    rng = np.random.default_rng(1624)
    buf = rng.integers(0, 256, size=regions * length, dtype=np.uint8)
    offsets = np.arange(regions, dtype=np.int64) * length
    lengths = np.full(regions, length, dtype=np.int64)
    view = memoryview(bytes(buf))

    def run_scalar() -> None:
        for offset in offsets.tolist():
            checksum16(view[offset:offset + length])

    def run_vector() -> None:
        checksum16_batch(buf, offsets, lengths)

    scalar_s, vector_s = _best_of_pair(run_scalar, run_vector)
    return {
        "bench": "checksum16",
        "regions": regions,
        "region_bytes": length,
        "scalar_us_per_region": round(scalar_s / regions * 1e6, 4),
        "vector_us_per_region": round(vector_s / regions * 1e6, 4),
        "speedup": round(scalar_s / vector_s, 2),
    }


def bench_egress_distribution(
    chunk_size: int = 256, ports: int = 4
) -> Dict[str, object]:
    """Per-packet egress append loop vs the argsort-grouped split."""
    generator = PacketGenerator(seed=5306)
    chunk = Chunk(frames=generator.ipv4_burst(chunk_size))
    rng = np.random.default_rng(5306)
    out_ports = rng.integers(0, ports, size=chunk_size)
    forwarded = rng.random(chunk_size) < 0.9
    chunk.set_forward(np.flatnonzero(forwarded), out_ports[forwarded])
    chunk.set_drop(np.flatnonzero(~forwarded))
    loops = 32

    def run_scalar() -> None:
        for _ in range(loops):
            scalar_ref.split_by_port_scalar(chunk)

    def run_vector() -> None:
        for _ in range(loops):
            chunk.split_by_port()

    scalar_s, vector_s = _best_of_pair(run_scalar, run_vector)
    packets = chunk_size * loops
    return {
        "bench": "egress_distribution",
        "chunk_size": chunk_size,
        "scalar_us_per_packet": round(scalar_s / packets * 1e6, 4),
        "vector_us_per_packet": round(vector_s / packets * 1e6, 4),
        "speedup": round(scalar_s / vector_s, 2),
    }


def bench_packet_gen() -> Dict[str, object]:
    """Per-frame scalar builds vs one column-written burst (same bytes)."""
    burst = GEN_BURST
    scalar_gen = PacketGenerator(seed=6100)
    vector_gen = PacketGenerator(seed=6100)

    def run_scalar() -> None:
        for _ in range(burst):
            scalar_gen.random_ipv4_frame(64)

    def run_vector() -> None:
        vector_gen.ipv4_burst(burst, 64)

    scalar_s, vector_s = _best_of_pair(run_scalar, run_vector)
    return {
        "bench": "packet_gen",
        "burst": burst,
        "scalar_us_per_packet": round(scalar_s / burst * 1e6, 4),
        "vector_us_per_packet": round(vector_s / burst * 1e6, 4),
        "speedup": round(scalar_s / vector_s, 2),
    }


def run_scaling_wallclock(
    worker_counts: Tuple[int, ...] = (1, 2),
    app: str = "ipv4",
    packets: int = 1024,
    bursts: int = 4,
) -> List[Dict[str, object]]:
    """Measured wall-clock of the sharded plane vs worker count.

    The committed ``BENCH_scaling.json`` curve is the capacity model
    (deterministic, host-independent); this is the real thing — fork N
    workers, push the same stream through shared-memory chunk queues,
    time the whole run.  Speedup here depends on how many cores the
    host has, which is exactly why it goes to the git-ignored history
    and never into a committed artifact.
    """
    from repro.shard.plane import PlaneSpec, run_plane

    results: List[Dict[str, object]] = []
    base_s: float = 0.0
    for workers in worker_counts:
        spec = PlaneSpec(app=app, workers=workers, packets=packets,
                         bursts=bursts, num_routes=2048)
        start = time.perf_counter()
        report = run_plane(spec)
        elapsed = time.perf_counter() - start
        if not base_s:
            base_s = elapsed
        results.append({
            "bench": "plane_scaling",
            "app": app,
            "workers": workers,
            "packets": packets * bursts,
            "wall_s": round(elapsed, 4),
            "kpps": round(packets * bursts / elapsed / 1e3, 2),
            "speedup": round(base_s / elapsed, 2),
            "conservation_ok": report.conservation_ok,
            "shm_fallbacks": report.shm_fallbacks,
        })
    return results


def run_wallclock() -> List[Dict[str, object]]:
    """Every microbenchmark, scalar-before-vs-vectorized-after."""
    results: List[Dict[str, object]] = []
    for chunk_size in CHUNK_SIZES:
        results.append(bench_ipv4_classify(chunk_size))
    for chunk_size in CHUNK_SIZES:
        results.append(bench_openflow_classify(chunk_size))
    results.append(bench_checksum())
    results.append(bench_egress_distribution())
    results.append(bench_packet_gen())
    return results


def append_wallclock_history(
    results: List[Dict[str, object]], root=runner.REPO_ROOT
):
    """One ``kind=wallclock`` line in the git-ignored trajectory."""
    line = {
        "schema_version": schema.SCHEMA_VERSION,
        "kind": "wallclock",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "results": results,
    }
    path = root / runner.HISTORY_NAME
    with path.open("a") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")
    return path


def format_scaling(results: List[Dict[str, object]]) -> str:
    header = (
        f"{'bench':<16} {'app':<6} {'workers':>7} {'wall':>9} "
        f"{'kpps':>9} {'speedup':>8}"
    )
    lines = [header, "-" * len(header)]
    for entry in results:
        lines.append(
            f"{entry['bench']:<16} {entry['app']:<6} "
            f"{entry['workers']:>7} {entry['wall_s']:>8.3f}s "
            f"{entry['kpps']:>9.1f} {entry['speedup']:>7.2f}x"
        )
    return "\n".join(lines)


def format_wallclock(results: List[Dict[str, object]]) -> str:
    header = f"{'bench':<22} {'size':>5} {'scalar':>10} {'vector':>10} {'speedup':>8}"
    lines = [header, "-" * len(header)]
    for entry in results:
        size = next(
            (entry[key] for key in ("chunk_size", "regions", "burst")
             if key in entry),
            "-",
        )
        scalar = entry.get(
            "scalar_us_per_packet", entry.get("scalar_us_per_region")
        )
        vector = entry.get(
            "vector_us_per_packet", entry.get("vector_us_per_region")
        )
        lines.append(
            f"{entry['bench']:<22} {size:>5} {scalar:>9.3f}u {vector:>9.3f}u "
            f"{entry['speedup']:>7.1f}x"
        )
    return "\n".join(lines)
