"""The PacketShader router: workers, masters, and the chunk workflow.

A functional, deterministic implementation of Figure 9's collaboration:
worker threads pre-shade chunks and enqueue them on their node's master
input queue; the master gathers queued chunks (gather/scatter,
Section 5.4), launches the GPU work, and scatters results to the
per-worker output queues; workers post-shade and split packets to their
destination ports.

Threads are cooperative objects stepped by the framework in round-robin
order (not OS threads): the paper's threads are hard-affinitized and
communicate only through these queues, so a deterministic interleaving
preserves all the observable behaviour while keeping tests reproducible.
Every packet is a real frame; every application callback does its real
work.  Timing lives in :mod:`repro.core.solver`, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Dict, List, Optional

from repro.calib.constants import CPU, FRAMEWORK
from repro.core.application import RouterApplication
from repro.core.chunk import Chunk
from repro.core.config import RouterConfig
from repro.core.overload import OverloadController
from repro.core.queues import MasterInputQueue, WorkerOutputQueue
from repro.faults.errors import DMAError, GPULaunchError
from repro.faults.plan import FaultInjector
from repro.faults.recovery import CircuitBreaker, RetryPolicy, Watchdog
from repro.hw.gpu import GPUDevice
from repro.core.slowpath import SlowPathHandler
from repro.io_engine.rss import steer
from repro.obs import (
    BATCH_SIZE_BUCKETS,
    Events,
    Stages,
    get_flightrec,
    get_registry,
    get_tracer,
    names,
)


@dataclass
class RouterStats:
    """End-to-end packet accounting.

    The conservation invariant ``received == forwarded + dropped +
    slow_path`` holds under every fault scenario; ``backpressure_drops``
    attributes the subset of ``dropped`` shed by bounded backpressure
    (it is an attribution counter, not a fourth verdict — those packets
    are already counted in ``dropped`` exactly once).
    """

    received: int = 0
    forwarded: int = 0
    dropped: int = 0
    slow_path: int = 0
    chunks: int = 0
    gpu_launches: int = 0
    gathered_chunks: int = 0
    #: Failed launches retried (transient faults absorbed by backoff).
    gpu_retries: int = 0
    #: Launches that failed past their retry budget.
    gpu_failures: int = 0
    #: Chunks processed on the CPU although GPU mode was configured
    #: (master-side fallback or breaker-open CPU-only rerouting).
    degraded_chunks: int = 0
    #: Packets shed when the master input queue stayed wedged (a subset
    #: of ``dropped``).
    backpressure_drops: int = 0

    @property
    def accounted(self) -> int:
        return self.forwarded + self.dropped + self.slow_path


@dataclass
class _Worker:
    worker_id: int
    node: int
    output_queue: WorkerOutputQueue
    #: Chunks pre-shaded and awaiting shading results (chunk pipelining:
    #: the worker moves on to the next chunk instead of blocking).
    in_flight: int = 0


@dataclass
class _Node:
    node_id: int
    workers: List[_Worker]
    input_queue: MasterInputQueue
    gpu: Optional[GPUDevice]


class PacketShader:
    """The router framework, parameterised by an application."""

    #: How many drain-and-retry rounds a worker attempts before shedding
    #: a chunk that the master input queue keeps refusing.  In the
    #: healthy design the first drain empties the queue, so only a
    #: wedged master (fault injection, breaker churn) ever gets past
    #: round one — the bound turns a potential livelock into an
    #: accounted drop.
    MAX_BACKPRESSURE_RETRIES = 8

    def __init__(
        self,
        app: RouterApplication,
        config: Optional[RouterConfig] = None,
        slow_path: Optional[SlowPathHandler] = None,
        fault_injector: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
        overload: Optional[OverloadController] = None,
        transport=None,
    ) -> None:
        self.app = app
        self.config = config or RouterConfig()
        #: Optional remote shading transport (docs/SHARDING.md): when a
        #: :class:`~repro.core.queues.RemoteMasterClient` is installed,
        #: pre-shaded chunks go to a master in another OS process
        #: instead of this router's in-process master loop; shaded
        #: results come back through :meth:`flush_transport` /
        #: the drain step of :meth:`process_chunks`.
        self.transport = transport
        #: Optional overload controller: when present it owns the chunk
        #: capacity (SLO-aware adaptive sizing) and consumes per-chunk
        #: latency observations and queue-rejection signals.
        self.overload = overload
        #: Diverted packets go here ("passes them onto Linux TCP/IP
        #: stack", Section 6.2.1); its ICMP responses leave through the
        #: ingress port, back toward the source.
        self.slow_path = slow_path
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy or RetryPolicy()
        self.stats = RouterStats()
        #: Span tracing of the chunk lifecycle: per-stage modelled costs
        #: and, through ``tracer.measure``, per-stage wall time.
        self.tracer = get_tracer()
        #: Flight recorder (structured event ring).  Handles are
        #: resolved once here, like the registry instruments below.
        self.flightrec = get_flightrec()
        # Registry mirrors of RouterStats: same increment sites, so the
        # conservation invariant holds for both views.
        registry = get_registry()
        self._m_received = registry.counter(
            names.ROUTER_RECEIVED_PACKETS, help="packets entering the workflow"
        )
        self._m_forwarded = registry.counter(
            names.ROUTER_FORWARDED_PACKETS, help="packets with a FORWARD verdict"
        )
        self._m_dropped = registry.counter(
            names.ROUTER_DROPPED_PACKETS, help="packets with a DROP verdict"
        )
        self._m_slow_path = registry.counter(
            names.ROUTER_SLOW_PATH_PACKETS,
            help="packets diverted to the slow path",
        )
        self._m_chunks = registry.counter(
            names.ROUTER_CHUNKS, help="chunks completing the workflow"
        )
        self._m_gpu_launches = registry.counter(
            names.ROUTER_GPU_LAUNCHES, help="GPU kernel launches by masters"
        )
        self._m_gathered = registry.counter(
            names.ROUTER_GATHERED_CHUNKS, help="chunks gathered by masters"
        )
        self._h_chunk_size = registry.histogram(
            names.ROUTER_CHUNK_SIZE, buckets=BATCH_SIZE_BUCKETS,
            help="packets per chunk entering the workflow",
        )
        self._m_gpu_retries = registry.counter(
            names.ROUTER_GPU_RETRIES, help="GPU launches retried after a failure"
        )
        self._m_gpu_failures = registry.counter(
            names.ROUTER_GPU_FAILURES,
            help="GPU launches failed past the retry budget",
        )
        self._m_degraded_chunks = registry.counter(
            names.ROUTER_DEGRADED_CHUNKS,
            help="chunks shaded on the CPU although GPU mode was configured",
        )
        self._m_backpressure_drops = registry.counter(
            names.ROUTER_BACKPRESSURE_DROPS,
            help="packets shed after bounded backpressure gave up",
        )
        self.nodes: List[_Node] = []
        worker_id = 0
        for node_id in range(self.config.system.num_nodes):
            workers = []
            for _ in range(self.config.workers_per_node):
                workers.append(
                    _Worker(
                        worker_id=worker_id,
                        node=node_id,
                        output_queue=WorkerOutputQueue(worker_id),
                    )
                )
                worker_id += 1
            self.nodes.append(
                _Node(
                    node_id=node_id,
                    workers=workers,
                    input_queue=MasterInputQueue(fault_injector=fault_injector),
                    gpu=GPUDevice(
                        device_id=node_id, node=node_id,
                        fault_injector=fault_injector,
                    )
                    if self.config.use_gpu
                    else None,
                )
            )
        # Recovery machinery: one breaker per GPU device gates its node's
        # shading path; a single watchdog notices when chunk completion
        # stops making progress.
        self.breakers: Dict[int, CircuitBreaker] = {
            n.node_id: CircuitBreaker(device_id=n.node_id) for n in self.nodes
        }
        self.watchdog = Watchdog()
        self._rr_worker: Dict[int, int] = {n.node_id: 0 for n in self.nodes}

    # ------------------------------------------------------------------
    # Ingress.
    # ------------------------------------------------------------------

    def effective_chunk_capacity(self) -> int:
        """The chunk cap in force: adaptive when overload control is on."""
        if self.overload is not None:
            return self.overload.chunk_capacity
        return self.config.chunk_capacity

    def node_of_port(self, port: int) -> int:
        """Which NUMA node hosts a NIC port (ports split evenly)."""
        ports_per_node = self.config.system.total_ports // self.config.system.num_nodes
        node = port // ports_per_node
        if not 0 <= node < len(self.nodes):
            raise ValueError(f"port {port} out of range")
        return node

    def _chunks_from(self, frames: List[bytearray], in_port: int) -> List[Chunk]:
        """Distribute ingress frames to workers by RSS, then chunk.

        Each worker's share is split into capped chunks; per-worker
        arrival order is preserved (the RX queue is a FIFO).
        """
        node = self.nodes[self.node_of_port(in_port)]
        # Local-node workers only: the NUMA-aware steering of Section 4.5.
        queues, self._rr_worker[node.node_id] = steer(
            frames, len(node.workers), self._rr_worker[node.node_id]
        )
        chunks = []
        cap = self.effective_chunk_capacity()
        # Chunks built here (process_frames, no I/O engine) anchor
        # their trace context at the recorder's current seq: the most
        # recent event in flight when the batch entered the router.
        ctx = (self.flightrec.writer_id, self.flightrec.seq)
        for index, worker in enumerate(node.workers):
            share = list(compress(frames, queues == index))
            for start in range(0, len(share), cap):
                chunk = Chunk(
                    frames=share[start:start + cap],
                    worker_id=worker.worker_id,
                    in_port=in_port,
                )
                chunk.trace_ctx = ctx
                chunks.append(chunk)
        return chunks

    # ------------------------------------------------------------------
    # The three-step workflow.
    # ------------------------------------------------------------------

    def _shade_node(self, node: _Node) -> None:
        """Run the node's master: gather, launch, scatter (Section 5.4)."""
        gather = self.config.effective_gather_chunks()
        while len(node.input_queue):
            chunks = node.input_queue.get_batch(gather)
            self.stats.gathered_chunks += len(chunks)
            self._m_gathered.inc(len(chunks))
            self.tracer.record(
                Stages.GATHER,
                packets=sum(len(c) for c in chunks),
                cycles=FRAMEWORK.queue_handoff_cycles * len(chunks),
            )
            for chunk in chunks:
                work = chunk.gpu_input
                if work is None:
                    chunk.gpu_output = None
                else:
                    self._launch_chunk(node, chunk, work)
                worker = node.workers[
                    chunk.worker_id - node.workers[0].worker_id
                ]
                worker.output_queue.put(chunk)
                self.tracer.record(
                    Stages.SCATTER,
                    packets=len(chunk),
                    cycles=FRAMEWORK.queue_handoff_cycles,
                )

    def _launch_chunk(self, node: _Node, chunk: Chunk, work) -> None:
        """Launch one chunk's GPU work, absorbing faults (Section 5.4 +
        the degradation ladder: retry with backoff -> breaker -> CPU).

        Transient launch failures are retried up to the policy's budget
        with exponential backoff (charged as modelled wait time).  A
        launch that fails past the budget counts against the node's
        circuit breaker and the chunk is shaded on the master's CPU
        instead — the already pre-shaded work cannot be re-classified
        (TTLs are already decremented), so the fallback runs the kernel
        function itself on the host.
        """
        breaker = self.breakers[node.node_id]
        if breaker.is_open:
            # The breaker opened while this chunk sat in the input queue:
            # don't even try the device.
            self._shade_on_cpu(chunk, work)
            return
        policy = self.retry_policy
        for attempt in range(policy.max_retries + 1):
            try:
                with self.tracer.measure(
                    Stages.GPU, packets=len(chunk)
                ) as span:
                    result = work.launch_on(node.gpu)
                    span.ns = result.total_ns
                    span.meta["kernel"] = result.kernel
            except (GPULaunchError, DMAError):
                if attempt < policy.max_retries:
                    self.stats.gpu_retries += 1
                    self._m_gpu_retries.inc()
                    self.flightrec.note(
                        Events.GPU_RETRY, str(node.node_id), attempt + 1
                    )
                    # The backoff wait is real (modelled) time on the
                    # shading path.
                    wait_ns = policy.backoff_ns(attempt + 1, salt=node.node_id)
                    chunk.service_ns += wait_ns
                    self.tracer.record(
                        Stages.GPU,
                        packets=0,
                        ns=wait_ns,
                        retry=attempt + 1,
                    )
                    continue
                self.stats.gpu_failures += 1
                self._m_gpu_failures.inc()
                breaker.record_failure()
                self._shade_on_cpu(chunk, work)
                return
            breaker.record_success()
            self.stats.gpu_launches += 1
            self._m_gpu_launches.inc()
            chunk.gpu_output = result.output
            chunk.service_ns += result.total_ns
            return

    def _shade_on_cpu(self, chunk: Chunk, work) -> None:
        """Master-side CPU fallback for a chunk whose GPU path failed.

        Runs the kernel function on the host, producing bit-identical
        output (the kernels are the same Python callables the device
        model executes).  The extra CPU cost relative to the worker-side
        shading already charged is the CPU-only application cost minus
        the worker-side share.
        """
        frame_len = self._frame_len(chunk)
        extra = max(
            0.0,
            self.app.cpu_cycles_per_packet(frame_len)
            - self.app.worker_cycles_per_packet(frame_len),
        )
        with self.tracer.measure(
            Stages.GPU_FALLBACK, packets=len(chunk), cycles=extra * len(chunk)
        ):
            chunk.gpu_output = (
                work.spec.fn(*work.args) if work.spec.fn is not None else None
            )
        self.stats.degraded_chunks += 1
        self._m_degraded_chunks.inc()
        self.flightrec.note(Events.GPU_FALLBACK, "", len(chunk))
        chunk.service_ns += extra * len(chunk) * CPU.cycle_ns

    @property
    def degraded_mode(self) -> bool:
        """True while any node's breaker keeps its GPU out of service."""
        return any(b.is_open for b in self.breakers.values())

    def _finish_chunk(self, chunk: Chunk, egress: Dict[int, List[bytearray]]) -> None:
        """Account verdicts and split forwarded frames to ports.

        All three tallies and the egress/slow-path splits come from the
        chunk's disposition column: one ``bincount`` and two mask passes
        instead of four per-packet walks.
        """
        for port, frames in chunk.split_by_port().items():
            # Egress frames outlive the chunk: hand the caller owned
            # copies, not views into the packed store a later
            # replace_frame() would repack underneath them (RL009).
            egress.setdefault(port, []).extend(map(bytearray, frames))
        forwarded, dropped, slow = chunk.disposition_counts()
        self.stats.forwarded += forwarded
        self.stats.dropped += dropped
        self.stats.slow_path += slow
        self.stats.chunks += 1
        self._m_forwarded.inc(forwarded)
        self._m_dropped.inc(dropped)
        self._m_slow_path.inc(slow)
        self._m_chunks.inc()
        ctx = chunk.trace_ctx or (self.flightrec.writer_id, 0)
        self.flightrec.note(
            Events.CHUNK, "", len(chunk), forwarded, dropped, slow,
            ctx[0], ctx[1],
        )
        self.watchdog.note_progress()
        if self.overload is not None:
            self.overload.observe_chunk(
                len(chunk), chunk.service_ns, chunk.enqueue_depth
            )
        if self.slow_path is not None:
            frames = chunk.frames
            diverted = [bytes(frames[i]) for i in chunk.slow_path_indices()]
            if diverted:
                self.tracer.record(Stages.SLOW_PATH, packets=len(diverted))
            for response in self.slow_path.handle_batch(diverted):
                # ICMP responses head back toward the source: out the
                # ingress port, framed with the original source MAC.
                reply_frame = bytearray(14 + len(response))
                reply_frame[12:14] = (0x0800).to_bytes(2, "big")
                reply_frame[14:] = response
                egress.setdefault(chunk.in_port, []).append(reply_frame)

    def process_frames(
        self, frames: List[bytearray], in_port: int = 0
    ) -> Dict[int, List[bytearray]]:
        """Run a burst of ingress frames through the full workflow.

        Returns the egress map ``port -> frames``.  In CPU+GPU mode the
        chunks flow worker -> master -> worker exactly as in Figure 9; in
        CPU-only mode workers do everything.
        """
        node = self.nodes[self.node_of_port(in_port)]
        chunks = self._chunks_from(frames, in_port)
        return self.process_chunks(chunks, node)

    def process_chunks(
        self, chunks: List[Chunk], node: Optional[_Node] = None
    ) -> Dict[int, List[bytearray]]:
        """Run pre-built chunks through the workflow on one node.

        The entry point for callers that already did the RX side (the
        functional testbed fetches chunks through the packet I/O engine
        and hands them here); ``process_frames`` is the convenience
        wrapper that builds the chunks itself.
        """
        node = node or self.nodes[0]
        egress: Dict[int, List[bytearray]] = {}
        for chunk in chunks:
            self.stats.received += len(chunk)
            self._m_received.inc(len(chunk))
            self._h_chunk_size.observe(len(chunk))
            if not self.config.use_gpu:
                self._cpu_process_chunk(chunk, egress, degraded=False)
                continue
            if not self.breakers[node.node_id].allow():
                # Breaker open: the node runs the paper's CPU-only path
                # (Figure 11's CPU-only rows) until a probe closes it.
                # Workers do the whole pipeline, so throughput degrades
                # to the CPU baseline instead of collapsing behind a
                # dead device.
                self._cpu_process_chunk(chunk, egress, degraded=True)
                continue
            with self.tracer.measure(
                Stages.PRE_SHADE, packets=len(chunk)
            ) as span:
                chunk.gpu_input = self.app.pre_shade(chunk)
                # After the callback: ipsec grows frames in pre-shade.
                span.cycles = self._worker_stage_cycles(
                    chunk, FRAMEWORK.pre_shading_cycles
                )
            chunk.service_ns += span.cycles * CPU.cycle_ns
            if self.transport is not None:
                # Remote master: the submit may hand back already-shaded
                # chunks while waiting for in-flight headroom — the
                # cross-process equivalent of the backpressure drain.
                chunk.enqueue_depth = self.transport.in_flight
                for shaded in self.transport.submit(chunk):
                    self._post_shade_chunk(shaded, egress)
                    self.transport.recycle(shaded)
                continue
            chunk.enqueue_depth = len(node.input_queue)
            for _ in range(self.MAX_BACKPRESSURE_RETRIES):
                if node.input_queue.put(chunk):
                    break
                # Backpressure: drain the master before retrying.
                if self.overload is not None:
                    self.overload.note_reject()
                self.watchdog.note_stall()
                self._shade_node(node)
                self._drain_outputs(node, egress)
                chunk.enqueue_depth = len(node.input_queue)
            else:
                # The queue stayed wedged across every retry round:
                # shed the chunk with explicit accounting rather than
                # spin forever.
                self._shed_chunk(chunk, egress)
        if self.config.use_gpu:
            if self.transport is not None:
                # Pick up whatever the remote master has scattered so
                # far (chunk pipelining: never block mid-burst).
                for shaded in self.transport.drain(block=False):
                    self._post_shade_chunk(shaded, egress)
                    self.transport.recycle(shaded)
            else:
                self._shade_node(node)
                self._drain_outputs(node, egress)
        return egress

    def flush_transport(self, egress: Dict[int, List[bytearray]]) -> None:
        """Block until every in-flight remote chunk is post-shaded.

        The end-of-run barrier of the sharded plane: after the last
        burst a worker drains its private result queue to zero before
        reporting totals, so the conservation identities close.
        """
        if self.transport is None:
            return
        for shaded in self.transport.drain(block=True):
            self._post_shade_chunk(shaded, egress)
            self.transport.recycle(shaded)

    def _cpu_process_chunk(
        self, chunk: Chunk, egress: Dict[int, List[bytearray]], degraded: bool
    ) -> None:
        """Run one chunk through the CPU-only pipeline and finish it."""
        with self.tracer.measure(
            Stages.CPU_PROCESS, packets=len(chunk), degraded=degraded
        ) as span:
            self.app.cpu_process(chunk)
            span.cycles = self.app.cpu_cycles_per_packet(
                self._frame_len(chunk)
            ) * len(chunk)
        if degraded:
            self.stats.degraded_chunks += 1
            self._m_degraded_chunks.inc()
        chunk.service_ns += span.cycles * CPU.cycle_ns
        self._finish_chunk(chunk, egress)

    def _shed_chunk(
        self, chunk: Chunk, egress: Dict[int, List[bytearray]]
    ) -> None:
        """Drop a chunk's still-pending packets under sustained backpressure.

        Pre-shading already settled some verdicts (drops, slow-path
        diversions) — those stand; only the PENDING packets that needed
        the wedged shading path are shed.  Accounting flows through
        ``_finish_chunk`` so the conservation invariant counts each
        packet exactly once; ``backpressure_drops`` attributes the shed
        subset.
        """
        pending = chunk.pending_mask()
        shed = int(pending.sum())
        chunk.set_drop(pending)
        self.stats.backpressure_drops += shed
        self._m_backpressure_drops.inc(shed)
        self.flightrec.note(Events.SHED, "", shed)
        chunk.gpu_input = None
        self._finish_chunk(chunk, egress)

    def _post_shade_chunk(
        self, chunk: Chunk, egress: Dict[int, List[bytearray]]
    ) -> None:
        """One shaded chunk's worker-side completion: post-shade + finish."""
        with self.tracer.measure(
            Stages.POST_SHADE, packets=len(chunk)
        ) as span:
            self.app.post_shade(chunk, chunk.gpu_output)
            span.cycles = self._worker_stage_cycles(
                chunk, FRAMEWORK.post_shading_cycles
            )
        chunk.service_ns += span.cycles * CPU.cycle_ns
        self._finish_chunk(chunk, egress)

    def _drain_outputs(self, node: _Node, egress: Dict[int, List[bytearray]]) -> None:
        """Workers pick up shaded chunks and post-shade them."""
        for worker in node.workers:
            while True:
                chunk = worker.output_queue.get()
                if chunk is None:
                    break
                self._post_shade_chunk(chunk, egress)

    # ------------------------------------------------------------------
    # Cost attribution helpers (the modelled per-stage spans).
    # ------------------------------------------------------------------

    @staticmethod
    def _frame_len(chunk: Chunk) -> int:
        return len(chunk.frames[0]) if chunk.frames else 64

    def _worker_stage_cycles(self, chunk: Chunk, framework_cycles: float) -> float:
        """Modelled cycles of one worker-side shading step for a chunk.

        The application's worker cycles cover pre- and post-shading
        together; each step is attributed half, on top of the framework's
        own per-step constant.
        """
        app_cycles = self.app.worker_cycles_per_packet(self._frame_len(chunk))
        return (framework_cycles + app_cycles / 2.0) * len(chunk)
