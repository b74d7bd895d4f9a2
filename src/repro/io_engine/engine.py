"""User-level packet I/O: virtual per-queue interfaces and capacities.

Two layers live here:

* the **functional API** (:class:`PacketIOEngine`, :class:`VirtualInterface`)
  — the Section 5.2 user-level interface.  A virtual interface is a
  ``(NIC id, RX queue id)`` pair dedicated to one user thread, so queues
  are never shared across cores (Figure 8b); a thread fetches from its
  interfaces round-robin "for fairness".  Chunks of real frames flow
  through real huge-buffer cells.
* the **capacity model** (:func:`io_throughput_report`) — computes the
  Figure 5/6 numbers by combining the per-core cycle model of
  :mod:`repro.io_engine.batching` with the IOH ceilings of
  :mod:`repro.hw.numa` and identifying the bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.calib.constants import CPU, FRAMEWORK
from repro.hw.numa import SystemTopology
from repro.io_engine.batching import (
    forwarding_cycles_per_packet,
    rx_cycles_per_packet,
    tx_cycles_per_packet,
)
from repro.io_engine.driver import OptimizedDriver
from repro.io_engine.livelock import LivelockAvoider, PollState
from repro.obs import (
    BATCH_SIZE_BUCKETS,
    Events,
    Stages,
    get_flightrec,
    get_registry,
    get_tracer,
    names,
)
from repro.sim.metrics import ThroughputReport, gbps_to_pps
from repro.sim.pipeline import PipelineModel, Stage


@dataclass
class VirtualInterface:
    """A (NIC id, RX queue id) pair owned by exactly one user thread."""

    nic_id: int
    queue_id: int
    owner_thread: int
    livelock: LivelockAvoider = field(default_factory=LivelockAvoider)


class PacketIOEngine:
    """The user-mode packet API over one or more optimized drivers.

    ``attach`` dedicates a queue to a thread; ``recv_chunk`` fetches a
    batched chunk from the thread's interfaces in round-robin order;
    ``send_chunk`` posts frames to a port's TX queue.  Double-attaching a
    queue is rejected — the no-sharing guarantee is the whole point of
    the multiqueue-aware interface (Figure 8).
    """

    def __init__(
        self,
        drivers: Dict[int, OptimizedDriver],
        fault_injector=None,
        overload=None,
    ) -> None:
        if not drivers:
            raise ValueError("engine needs at least one driver")
        self.drivers = drivers
        #: Optional :class:`repro.faults.plan.FaultInjector` modelling
        #: corruption on the host read side of the RX DMA (frames that
        #: were fine on the wire but arrive damaged in the huge buffer).
        self.fault_injector = fault_injector
        #: Optional :class:`repro.core.overload.OverloadController`: every
        #: RX fetch runs through its priority shedding ladder, and under
        #: pressure the livelock scheme stays in polling mode.
        self.overload = overload
        self._interfaces: Dict[Tuple[int, int], VirtualInterface] = {}
        self._by_thread: Dict[int, List[VirtualInterface]] = {}
        self._rr_cursor: Dict[int, int] = {}
        self._recorder = get_flightrec()
        #: Seq of the most recent RX event this engine noted — the
        #: trace-context anchor the testbed stamps onto the chunk built
        #: from that fetch (``Chunk.trace_ctx``).
        self.last_rx_seq = 0
        registry = get_registry()
        self._m_rx_packets = registry.counter(
            names.IO_ENGINE_RX_PACKETS, help="packets fetched through recv_chunk"
        )
        self._m_rx_chunks = registry.counter(
            names.IO_ENGINE_RX_CHUNKS, help="non-empty recv_chunk fetches"
        )
        self._h_chunk_size = registry.histogram(
            names.IO_ENGINE_CHUNK_SIZE, buckets=BATCH_SIZE_BUCKETS,
            help="packets per recv_chunk fetch",
        )

    def attach(self, nic_id: int, queue_id: int, thread: int) -> VirtualInterface:
        """Dedicate (nic, queue) to ``thread``; returns the interface."""
        key = (nic_id, queue_id)
        if key in self._interfaces:
            raise ValueError(f"queue {key} is already attached")
        if nic_id not in self.drivers:
            raise KeyError(f"unknown NIC {nic_id}")
        if not 0 <= queue_id < len(self.drivers[nic_id].buffers):
            raise ValueError(f"NIC {nic_id} has no queue {queue_id}")
        interface = VirtualInterface(nic_id, queue_id, thread)
        self._interfaces[key] = interface
        self._by_thread.setdefault(thread, []).append(interface)
        self._rr_cursor.setdefault(thread, 0)
        return interface

    def interfaces_of(self, thread: int) -> List[VirtualInterface]:
        return list(self._by_thread.get(thread, []))

    def recv_chunk(self, thread: int, max_packets: int = 0) -> List[bytes]:
        """Fetch one chunk for ``thread``, round-robin over its queues.

        The chunk size is capped, never waited for (Section 5.3).  Walks
        the thread's interfaces starting after the last one served and
        returns the first non-empty fetch; an empty list means all queues
        are drained (the caller would block per the livelock scheme).
        """
        interfaces = self._by_thread.get(thread)
        if not interfaces:
            raise KeyError(f"thread {thread} has no attached queues")
        cap = max_packets or FRAMEWORK.chunk_capacity
        start = self._rr_cursor[thread]
        with get_tracer().measure(Stages.RX) as span:
            frames = self._recv_chunk(thread, interfaces, cap, start)
            if frames:
                span.packets = len(frames)
                span.cycles = rx_cycles_per_packet(len(frames)) * len(frames)
        return frames

    def _recv_chunk(
        self,
        thread: int,
        interfaces: List[VirtualInterface],
        cap: int,
        start: int,
    ) -> List[bytes]:
        for step in range(len(interfaces)):
            interface = interfaces[(start + step) % len(interfaces)]
            driver = self.drivers[interface.nic_id]
            if interface.livelock.state is PollState.BLOCKED:
                if not driver.buffers[interface.queue_id]:
                    continue
                # Pending packets: the interrupt path wakes the thread.
                if interface.livelock.on_interrupt():
                    interface.livelock.resume()
            elif interface.livelock.state is PollState.WAKING:
                interface.livelock.resume()
            frames = driver.fetch_batch(interface.queue_id, cap)
            buffer = driver.buffers[interface.queue_id]
            remaining = len(buffer)
            keep_polling = (
                self.overload is not None
                and self.overload.rx_keep_polling()
            )
            interface.livelock.on_fetch(
                len(frames), remaining, keep_polling=keep_polling
            )
            if frames and self.fault_injector is not None:
                # Chaos-only path: per-frame corruption hooks fire off
                # the hot path (the injector is None in production runs).
                frames = [  # reprolint: ignore[RL006]
                    bytes(self.fault_injector.corrupt_frame(f)[0])
                    for f in frames
                ]
            if frames and self.overload is not None:
                # The shedding ladder runs before the RX event is noted,
                # so RX event sums stay equal to what the router
                # receives.  Pressure is the ring occupancy at poll
                # time: what was fetched plus what is still waiting.
                frames = self.overload.admit(
                    frames,
                    backlog=remaining + len(frames),
                    ring_size=buffer.ring_size,
                )
            if frames:
                self._rr_cursor[thread] = (start + step + 1) % len(interfaces)
                self._m_rx_packets.inc(len(frames))
                self._m_rx_chunks.inc()
                self._h_chunk_size.observe(len(frames))
                self.last_rx_seq = self._recorder.note(
                    Events.RX,
                    f"{interface.nic_id}:{interface.queue_id}",
                    len(frames),
                )
                return frames
        return []

    @staticmethod
    def send_chunk(port, frames: List[bytes], queue_id: int = 0) -> int:
        """Post a chunk to a port's TX queue; returns packets accepted."""
        with get_tracer().measure(Stages.TX) as span:
            accepted = port.tx_queues[queue_id].post_batch(frames)
            span.packets = accepted
            span.cycles = tx_cycles_per_packet(max(1, accepted)) * accepted
        if accepted:
            get_registry().counter(
                names.IO_ENGINE_TX_PACKETS, help="packets posted through send_chunk"
            ).inc(accepted)
        return accepted


def io_throughput_report(
    frame_len: int,
    topology: Optional[SystemTopology] = None,
    mode: str = "forward",
    batch_size: int = 64,
    cores: int = 0,
    node_crossing: bool = False,
    numa_aware: bool = True,
) -> ThroughputReport:
    """Throughput of the bare I/O engine — the Figure 6 generator.

    ``mode`` is ``rx`` (receive and drop), ``tx`` (transmit prebuilt
    frames), or ``forward`` (RX + TX without IP lookup).  The CPU
    capacity (cores x clock / cycles-per-packet) and the relevant I/O
    ceiling become a two-stage pipeline whose bottleneck the
    observability analyzer identifies.
    """
    topology = topology or SystemTopology()
    cores = cores or topology.total_cores
    if mode == "rx":
        cycles = rx_cycles_per_packet(batch_size)
        io_gbps = topology.rx_capacity_gbps(frame_len)
    elif mode == "tx":
        cycles = tx_cycles_per_packet(batch_size)
        io_gbps = topology.tx_capacity_gbps(frame_len)
    elif mode == "forward":
        cycles = forwarding_cycles_per_packet(
            batch_size, aligned_queues=True, num_cores=cores
        )
        io_gbps = topology.forwarding_capacity_gbps(
            frame_len, numa_aware=numa_aware, node_crossing=node_crossing
        )
    else:
        raise ValueError(f"unknown mode {mode!r}")
    pipeline = PipelineModel(
        [
            Stage(name="cpu", capacity_pps=CPU.clock_hz / cycles,
                  parallelism=cores),
            Stage(name="io", capacity_pps=gbps_to_pps(io_gbps, frame_len)),
        ],
        frame_len,
    )
    return pipeline.report()
