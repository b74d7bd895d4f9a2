"""The sharded data plane: N worker processes + one master process.

The paper's Figure 9 collaboration lifted onto real OS processes
(docs/SHARDING.md): each worker process runs the full worker side of
the pipeline — RX chunking, pre-shading, post-shading — over the flows
RSS assigns to its shard (:func:`repro.io_engine.rss.steer`), and
the master process (the parent) gathers pre-shaded chunks from all
workers, batches the GPU launches, and scatters results back to each
worker's private result queue.

Chunks cross the process boundaries as shared-memory descriptors, not
byte copies: every worker packs its RX frames straight into its
:class:`~repro.shard.pool.ShmChunkPool` slots, so a queue handoff
pickles to a :class:`~repro.shard.pool.ChunkShmRef` plus the SoA
verdict columns.  The only payload bytes that travel by value are the
GPU input/output arrays — exactly the gather/scatter copies the real
router makes over PCIe.

Topology and protocol:

* the parent creates every shared segment up front (metric slabs,
  chunk pools) and owns their unlink — the PR 9 fleet lifecycle;
* one shared ``submit_queue`` carries chunks worker -> master (the
  paper's fairness FIFO), per-worker ``result_queues`` carry them back
  (the scatter side's 1-to-1 queues);
* each worker regenerates the *full* deterministic ingress stream from
  the spec's seed and keeps only its shard's frames — the software
  analogue of every RSS engine hashing every arriving packet;
* a worker signals completion with a ``("done", worker_id)`` sentinel
  after a blocking transport flush, then reports its totals on the
  report queue; the master exits once every worker is done and the
  submit queue is drained.

:func:`run_plane_inprocess` runs the identical shard decomposition
sequentially in one process — the reference the differential suite
compares the multi-process plane against, packet for packet.
"""

from __future__ import annotations

import multiprocessing
import queue as _stdlib_queue
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

from repro.calib.constants import SYSTEM
from repro.core.config import RouterConfig
from repro.obs import Stages, get_registry, get_tracer, names
from repro.obs.registry import MetricsRegistry
from repro.obs.shm import MetricSlab, aggregate_slabs, slab_name
from repro.shard.pool import DEFAULT_SLOT_BYTES, ShmChunkPool, pool_name


@dataclass
class PlaneSpec:
    """One sharded run — plain data, picklable across spawn (RL010)."""

    app: str = "ipv4"
    workers: int = 2
    #: Frames per ingress burst (the full stream, pre-partition).
    packets: int = 2048
    bursts: int = 4
    seed: int = 1
    num_routes: int = 5_000
    frame_len: int = 0  # 0 = the app's natural default (64 / 78)
    pool_slots: int = 32
    pool_slot_bytes: int = DEFAULT_SLOT_BYTES
    dump_dir: Optional[str] = None


@dataclass
class WorkerReport:
    """One worker's end-of-run totals (plain data over the report queue)."""

    worker_id: int
    received: int = 0
    forwarded: int = 0
    dropped: int = 0
    slow_path: int = 0
    chunks: int = 0
    gpu_launches: int = 0
    #: port -> egress frame count (the observable output of the shard).
    egress: Dict[int, int] = field(default_factory=dict)
    #: Chunks that crossed the boundary as byte copies (pool fallback).
    shm_fallbacks: int = 0
    exitcode: Optional[int] = None


@dataclass
class PlaneReport:
    """The merged view of one sharded run."""

    spec: PlaneSpec
    workers: List[WorkerReport]
    injected: int = 0
    master_batches: int = 0
    master_chunks: int = 0

    @property
    def received(self) -> int:
        return sum(w.received for w in self.workers)

    @property
    def forwarded(self) -> int:
        return sum(w.forwarded for w in self.workers)

    @property
    def dropped(self) -> int:
        return sum(w.dropped for w in self.workers)

    @property
    def slow_path(self) -> int:
        return sum(w.slow_path for w in self.workers)

    @property
    def shm_fallbacks(self) -> int:
        return sum(w.shm_fallbacks for w in self.workers)

    @property
    def conservation_ok(self) -> bool:
        """The merged ingress identity: every injected frame is
        accounted exactly once across every shard."""
        return (
            self.injected == self.received
            and self.received
            == self.forwarded + self.dropped + self.slow_path
        )

    def egress_totals(self) -> Dict[int, int]:
        totals: Dict[int, int] = {}
        for report in self.workers:
            for port, count in report.egress.items():
                totals[port] = totals.get(port, 0) + count
        return totals

    def verdict_totals(self) -> Dict[str, int]:
        return {
            "received": self.received,
            "forwarded": self.forwarded,
            "dropped": self.dropped,
            "slow_path": self.slow_path,
        }

    def to_dict(self) -> dict:
        return {
            "spec": asdict(self.spec),
            "injected": self.injected,
            "totals": self.verdict_totals(),
            "egress": {str(p): c for p, c in sorted(self.egress_totals().items())},
            "conservation_ok": self.conservation_ok,
            "master_batches": self.master_batches,
            "master_chunks": self.master_chunks,
            "shm_fallbacks": self.shm_fallbacks,
            "workers": [asdict(w) for w in self.workers],
        }


def scatter_chunk(result_queue, chunk) -> None:
    """Scatter one shaded chunk back to its worker's result queue.

    ``multiprocessing.Queue.put`` serializes in a background feeder
    thread, so the chunk must not be mutated after ``put()`` unless
    its pickle form is independent of the mutated fields.  Shm-backed
    packed chunks pickle as descriptors — for those (and only those)
    the master drops its aliasing views into the shared slot, so the
    worker can recycle the slot and the master's pool mapping can
    close without a ``BufferError``.  Heap-backed and detached chunks
    ship owned bytes built *from* ``frames``/``_frame_store``; clearing
    them here would race the pickle and silently ship empty frames.
    """
    result_queue.put(chunk)
    if chunk.shm_ref is not None and chunk.is_packed:
        chunk.frames = []
        chunk._frame_store = b""


def _worker_config() -> RouterConfig:
    """Each worker process is exactly one logical worker of one node.

    The process *is* the paper's worker thread; parallelism comes from
    the OS scheduler, not from the in-process cooperative stepping, so
    the embedded framework is told it owns a single worker core.
    """
    return RouterConfig(
        use_gpu=True,
        system=replace(
            SYSTEM, num_nodes=1, workers_per_node_gpu_mode=1,
            masters_per_node=1,
        ),
    )


def _build_app(spec: PlaneSpec):
    """(application, burst function) for a spec — deterministic in seed.

    Every worker calls this with the *same* seed: identical tables,
    identical full frame stream.  Per-shard traffic comes from the
    ShardMap partition, never from per-worker seeds, so the union of
    all shards is exactly the unsharded stream.
    """
    if spec.app == "ipv6":
        from repro.apps.ipv6 import IPv6Forwarder
        from repro.gen.workloads import ipv6_workload

        workload = ipv6_workload(num_routes=spec.num_routes, seed=spec.seed)
        frame_len = spec.frame_len or 78
        return (
            IPv6Forwarder(workload.table),
            lambda: workload.generator.ipv6_burst(spec.packets, frame_len),
        )
    if spec.app == "openflow":
        from repro.apps.openflow import OpenFlowApp
        from repro.gen.workloads import openflow_workload

        workload = openflow_workload(
            num_exact=2048, num_wildcard=32, seed=spec.seed
        )
        frame_len = spec.frame_len or 64
        return (
            OpenFlowApp(workload.switch),
            lambda: workload.generator.ipv4_burst(spec.packets, frame_len),
        )
    if spec.app == "ipv4":
        from repro.apps.ipv4 import IPv4Forwarder
        from repro.gen.workloads import ipv4_workload

        workload = ipv4_workload(num_routes=spec.num_routes, seed=spec.seed)
        frame_len = spec.frame_len or 64
        return (
            IPv4Forwarder(workload.table),
            lambda: workload.generator.ipv4_burst(spec.packets, frame_len),
        )
    raise ValueError(f"unknown app {spec.app!r}")


def shard_bursts(spec: PlaneSpec, shard: int, burst_fn) -> List[List[bytearray]]:
    """One shard's sub-stream: the full stream, RSS-partitioned.

    ``burst_fn`` is a fresh :func:`_build_app` burst function for
    ``spec``.  A single :class:`ShardMap` persists across bursts so the
    round-robin fallback for unhashable frames stays globally
    deterministic — re-partitioning the same stream always lands every
    frame on the same shard.
    """
    from repro.io_engine.rss import ShardMap

    shard_map = ShardMap(spec.workers)
    return [shard_map.partition(burst_fn())[shard] for _ in range(spec.bursts)]


def _count_egress(counts: Counter, egress: Dict[int, List]) -> None:
    """Add one round's per-port egress frame counts."""
    counts.update({port: len(frames) for port, frames in egress.items()})


def _worker_report(worker_id: int, router, egress: Counter, **extra) -> WorkerReport:
    """One shard's end-of-run totals, from its router's stats."""
    stats = router.stats
    return WorkerReport(
        worker_id=worker_id, received=stats.received, forwarded=stats.forwarded,
        dropped=stats.dropped, slow_path=stats.slow_path, chunks=stats.chunks,
        gpu_launches=stats.gpu_launches, egress=dict(egress), **extra,
    )


def _pool_chunks(router, pool: ShmChunkPool, frames, worker_id: int):
    """RX edge of one burst: pack frames straight into pool slots."""
    cap = router.effective_chunk_capacity()
    return [
        pool.build_chunk(frames[start:start + cap], worker_id=worker_id)
        for start in range(0, len(frames), cap)
    ]


def _plane_worker_main(session: str, worker_id: int, spec: PlaneSpec,
                       submit_queue, result_queue, report_queue) -> None:
    """One worker process: obs stack, pool, router, bursts, report."""
    from repro.core.framework import PacketShader
    from repro.core.queues import RemoteMasterClient
    from repro.obs import reset_tracer, set_registry
    from repro.obs.flightrec import FlightRecorder, set_flightrec
    from repro.obs.shm import ShmMetricsRegistry

    slab = MetricSlab.attach(slab_name(session, worker_id))
    set_registry(ShmMetricsRegistry(slab))
    recorder = FlightRecorder(writer_id=worker_id)
    set_flightrec(recorder)
    reset_tracer()
    pool = ShmChunkPool.attach(pool_name(session, worker_id), allocator=True)
    app, burst_fn = _build_app(spec)
    transport = RemoteMasterClient(
        submit_queue, result_queue, worker_id,
        max_in_flight=pool.nslots, pool=pool,
    )
    router = PacketShader(app, config=_worker_config(), transport=transport)
    egress_counts: Counter = Counter()
    for burst in shard_bursts(spec, worker_id, burst_fn):
        chunks = _pool_chunks(router, pool, burst, worker_id)
        _count_egress(egress_counts, router.process_chunks(chunks))
        # Release this burst's slot views before the next pack round
        # (the submitted originals are dead; their clones came back).
        chunks = None
    tail: Dict[int, List[bytearray]] = {}
    router.flush_transport(tail)
    _count_egress(egress_counts, tail)
    transport.finish()
    report_queue.put(_worker_report(
        worker_id, router, egress_counts,
        # The pool's own tally, so RX-edge heap builds and later
        # ensure_packed escapes in submit() both count — the report
        # agrees with the SHARD_POOL_FALLBACKS metric exactly.
        shm_fallbacks=pool.fallback_count,
    ))
    if spec.dump_dir:
        recorder.dump(
            Path(spec.dump_dir) / f"flightrec-w{worker_id}.jsonl",
            reason=f"shard-worker-{worker_id}",
        )
    pool.close()
    slab.close()


class ShardedDataPlane:
    """Supervises one sharded run: segments, workers, the master loop.

    Usable as a context manager; exit joins workers and unlinks every
    shared segment.  :meth:`run` is the whole lifecycle in one call.
    """

    #: Seconds of master-side silence that mean a worker died.
    MASTER_TIMEOUT = 60.0

    def __init__(self, spec: PlaneSpec,
                 session: Optional[str] = None,
                 start_method: Optional[str] = None) -> None:
        if spec.workers < 1:
            raise ValueError("workers must be >= 1")
        self.spec = spec
        from repro.obs.multiproc import worker_session

        self.session = session or worker_session("repro-shard")
        methods = multiprocessing.get_all_start_methods()
        method = start_method or ("fork" if "fork" in methods else "spawn")
        self._ctx = multiprocessing.get_context(method)
        # The parent creates (and so owns) every segment up front.
        self.slabs: List[MetricSlab] = [
            MetricSlab.create(slab_name(self.session, wid), writer_id=wid)
            for wid in range(spec.workers)
        ]
        self.pools: List[ShmChunkPool] = [
            ShmChunkPool.create(
                pool_name(self.session, wid),
                slots=spec.pool_slots, slot_bytes=spec.pool_slot_bytes,
            )
            for wid in range(spec.workers)
        ]
        self.submit_queue = self._ctx.Queue()
        self.result_queues = [self._ctx.Queue() for _ in range(spec.workers)]
        self.report_queue = self._ctx.Queue()
        self.procs: List = []
        registry = get_registry()
        self._m_batches = registry.counter(
            names.SHARD_MASTER_BATCHES,
            help="gather batches the master launched",
        )
        self._m_chunks = registry.counter(
            names.SHARD_MASTER_CHUNKS,
            help="chunks the master gathered across all workers",
        )
        # Registry counters span every plane of the process: report deltas.
        self._m_start = (self._m_batches.value, self._m_chunks.value)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        if self.procs:
            raise RuntimeError("plane already started")
        if self.spec.dump_dir:
            Path(self.spec.dump_dir).mkdir(parents=True, exist_ok=True)
        for wid in range(self.spec.workers):
            proc = self._ctx.Process(
                target=_plane_worker_main,
                args=(self.session, wid, self.spec, self.submit_queue,
                      self.result_queues[wid], self.report_queue),
                name=f"repro-shard-{wid}",
                daemon=True,
            )
            proc.start()
            self.procs.append(proc)

    def serve_master(self) -> None:
        """The master loop: gather, launch, scatter, until all done.

        Runs in the parent.  Gathering is opportunistic — one blocking
        get, then whatever else is already queued up to the configured
        gather width — so GPU batching adapts to load exactly like the
        in-process master's ``get_batch``.
        """
        from repro.hw.gpu import GPUDevice

        device = GPUDevice(device_id=0, node=0)
        tracer = get_tracer()
        # The master's own application instance plays the role of GPU
        # device memory: kernels arrive stripped of their callables
        # (GPUWorkItem.__getstate__) and rebind against the tables held
        # here — identical copies, built from the same seed.
        app, _ = _build_app(self.spec)
        gather = _worker_config().effective_gather_chunks()
        done: set = set()
        while len(done) < self.spec.workers:
            batch = []
            try:
                item = self.submit_queue.get(timeout=self.MASTER_TIMEOUT)
            except _stdlib_queue.Empty:
                dead = [
                    f"{proc.name} (exitcode {proc.exitcode})"
                    for proc in self.procs
                    if proc.exitcode is not None
                ]
                detail = (
                    f"dead worker(s): {', '.join(dead)}"
                    if dead else "all workers still alive but silent"
                )
                raise RuntimeError(
                    f"master: no chunk or done sentinel for "
                    f"{self.MASTER_TIMEOUT:.0f}s with {len(done)}/"
                    f"{self.spec.workers} workers done; {detail}"
                ) from None
            while True:
                if isinstance(item, tuple) and item and item[0] == "done":
                    done.add(item[1])
                else:
                    batch.append(item)
                if len(batch) >= gather or len(done) >= self.spec.workers:
                    break
                try:
                    item = self.submit_queue.get_nowait()
                except _stdlib_queue.Empty:
                    break
            if not batch:
                continue
            self._m_batches.inc()
            self._m_chunks.inc(len(batch))
            for chunk in batch:
                work = chunk.gpu_input
                if work is None:
                    chunk.gpu_output = None
                else:
                    app.bind_kernel(work)
                    with tracer.measure(
                        Stages.GPU, packets=len(chunk)
                    ) as span:
                        result = work.launch_on(device)
                        span.ns = result.total_ns
                        span.meta["kernel"] = result.kernel
                    chunk.gpu_output = result.output
                    chunk.service_ns += result.total_ns
                scatter_chunk(self.result_queues[chunk.worker_id], chunk)

    def collect(self) -> PlaneReport:
        """Join workers and assemble the merged report."""
        reports: Dict[int, WorkerReport] = {}
        for _ in range(self.spec.workers):
            try:
                report = self.report_queue.get(timeout=self.MASTER_TIMEOUT)
            except _stdlib_queue.Empty:
                break
            reports[report.worker_id] = report
        for proc in self.procs:
            proc.join(timeout=10.0)
        for wid, proc in enumerate(self.procs):
            report = reports.setdefault(wid, WorkerReport(worker_id=wid))
            report.exitcode = proc.exitcode
        return PlaneReport(
            spec=self.spec,
            workers=[reports[wid] for wid in sorted(reports)],
            injected=self.spec.bursts * self.spec.packets,
            master_batches=int(self._m_batches.value - self._m_start[0]),
            master_chunks=int(self._m_chunks.value - self._m_start[1]),
        )

    def aggregate(self, into: Optional[MetricsRegistry] = None) -> MetricsRegistry:
        """All worker slabs merged into one registry snapshot."""
        return aggregate_slabs(self.slabs, into=into)

    def close(self) -> None:
        """Destroy every shared segment (parent owns them all)."""
        for pool in self.pools:
            pool.close()
            pool.unlink()
        for slab in self.slabs:
            slab.unlink()
            slab.close()

    def __enter__(self) -> "ShardedDataPlane":
        return self

    def __exit__(self, *exc) -> None:
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self.procs:
            proc.join(timeout=5.0)
        self.close()

    def run(self) -> PlaneReport:
        """start -> serve the master -> collect, as one call."""
        self.start()
        self.serve_master()
        return self.collect()


def run_plane(spec: PlaneSpec, **kwargs) -> PlaneReport:
    """Run one sharded plane end to end (segments cleaned up)."""
    with ShardedDataPlane(spec, **kwargs) as plane:
        return plane.run()


def run_plane_inprocess(spec: PlaneSpec) -> PlaneReport:
    """The sequential reference: same shards, one process, no queues.

    Runs each shard's exact sub-stream through its own single-worker
    router, one shard after another.  The differential suite asserts
    the multi-process plane matches this packet for packet — same
    verdict totals, same per-port egress counts.
    """
    from repro.core.framework import PacketShader

    reports: List[WorkerReport] = []
    for wid in range(spec.workers):
        app, burst_fn = _build_app(spec)
        router = PacketShader(app, config=_worker_config())
        egress_counts: Counter = Counter()
        for burst in shard_bursts(spec, wid, burst_fn):
            _count_egress(egress_counts, router.process_frames(burst))
        reports.append(_worker_report(wid, router, egress_counts, exitcode=0))
    return PlaneReport(
        spec=spec,
        workers=reports,
        injected=spec.bursts * spec.packets,
    )
