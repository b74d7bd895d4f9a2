"""Intel 82599-like 10 GbE NIC model (paper Sections 3.1 and 4).

Functional pieces: RX/TX descriptor rings over the huge packet buffer,
RSS dispatch of incoming frames to per-core RX queues, per-queue statistics
(the Section 4.4 fix for the shared-counter coherence problem), and the
interrupt/polling state used by the livelock-avoidance scheme (Section 5.2).

Rings hold indices into buffer cells, as the real hardware holds DMA
addresses; frames themselves live in :class:`repro.io_engine.hugebuf`
cells.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from repro.calib.constants import NIC, NICModel
from repro.faults.plan import FaultInjector, Sites
from repro.net.ethernet import wire_bits


@dataclass
class QueueStats:
    """Per-queue packet/byte counters (Section 4.4: per-queue, not per-NIC,
    so cores never contend on a shared cache line)."""

    packets: int = 0
    bytes: int = 0
    drops: int = 0

    def add(self, frame_len: int) -> None:
        self.packets += 1
        self.bytes += frame_len

    def __iadd__(self, other: "QueueStats") -> "QueueStats":
        self.packets += other.packets
        self.bytes += other.bytes
        self.drops += other.drops
        return self


class RxQueue:
    """One RX descriptor ring.

    A bounded FIFO of received frames; overflow (ring full when a frame
    arrives) is a tail drop, exactly as on hardware when the host cannot
    keep up.
    """

    def __init__(self, queue_id: int, ring_size: int = 0, model: NICModel = NIC):
        self.queue_id = queue_id
        self.ring_size = ring_size or model.rx_ring_size
        self._ring: Deque = deque()
        self.stats = QueueStats()
        self.interrupt_enabled = True

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def full(self) -> bool:
        return len(self._ring) >= self.ring_size

    def deliver(self, frame) -> bool:
        """Hardware-side: DMA a received frame into the ring.

        Returns False (and counts a drop) if the ring is full.
        """
        if self.full:
            self.stats.drops += 1
            return False
        self._ring.append(frame)
        self.stats.add(len(frame))
        return True

    def fetch(self, max_packets: int) -> List:
        """Host-side: drain up to ``max_packets`` frames (batched RX)."""
        if max_packets <= 0:
            raise ValueError("max_packets must be positive")
        count = min(max_packets, len(self._ring))
        return [self._ring.popleft() for _ in range(count)]


class TxQueue:
    """One TX descriptor ring; ``transmit`` drains to the attached sink."""

    def __init__(self, queue_id: int, ring_size: int = 0, model: NICModel = NIC):
        self.queue_id = queue_id
        self.ring_size = ring_size or model.tx_ring_size
        self._ring: Deque = deque()
        self.stats = QueueStats()

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def full(self) -> bool:
        return len(self._ring) >= self.ring_size

    def post(self, frame) -> bool:
        """Host-side: enqueue a frame for transmission."""
        if self.full:
            self.stats.drops += 1
            return False
        self._ring.append(frame)
        return True

    def post_batch(self, frames) -> int:
        """Enqueue a batch; returns how many fit (rest are dropped)."""
        sent = 0
        for frame in frames:
            if self.post(frame):
                sent += 1
        return sent

    def drain(self) -> List:
        """Hardware-side: transmit everything queued; returns the frames."""
        frames = list(self._ring)
        self._ring.clear()
        for frame in frames:
            self.stats.add(len(frame))
        return frames


class NICPort:
    """One 10 GbE port with multiple core-aware RX/TX queue pairs.

    ``num_queues`` RX and TX queues, one pair per serving CPU core
    (Section 4.4).  Incoming frames are spread by RSS:
    :func:`repro.io_engine.rss.steer` maps each frame's Toeplitz hash to
    queue ``hash % num_queues``, as the 82599 does with its indirection
    table; :meth:`receive` takes a hash or an already reduced queue index.
    """

    def __init__(
        self,
        port_id: int,
        node: int = 0,
        num_queues: int = 4,
        model: NICModel = NIC,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        if num_queues <= 0:
            raise ValueError("num_queues must be positive")
        self.port_id = port_id
        self.node = node
        self.model = model
        self.fault_injector = fault_injector
        self.rx_queues = [RxQueue(i, model=model) for i in range(num_queues)]
        self.tx_queues = [TxQueue(i, model=model) for i in range(num_queues)]

    @property
    def num_queues(self) -> int:
        return len(self.rx_queues)

    def receive(self, frame, rss_hash: int) -> bool:
        """Deliver an incoming frame to the RSS-selected RX queue.

        An attached fault injector models the wire and the host falling
        behind: frames may arrive corrupted (truncated, garbage bytes,
        bad checksum — the adversarial-traffic evaluations of
        Benchmarking-NFV-dataplanes) or find the ring full.
        """
        queue = self.rx_queues[rss_hash % self.num_queues]
        if self.fault_injector is not None:
            frame, _ = self.fault_injector.corrupt_frame(frame)
            if self.fault_injector.should_fire(Sites.RX_RING_OVERFLOW):
                queue.stats.drops += 1
                return False
        return queue.deliver(frame)

    def aggregate_stats(self) -> QueueStats:
        """On-demand accumulation of per-queue counters (the cheap-stats
        scheme of Section 4.4 — what ifconfig/ethtool would trigger)."""
        total = QueueStats()
        for queue in self.rx_queues:
            total += queue.stats
        return total

    def line_rate_pps(self, frame_len: int) -> float:
        """Packets/s the 10 GbE line sustains at ``frame_len`` (wire
        overhead included)."""
        return self.model.line_rate_bps / wire_bits(frame_len)


def effective_itr_ns(per_queue_pps: float, model: NICModel = NIC) -> float:
    """The dynamic moderation window at a per-queue packet rate.

    The driver retunes the timer toward ``itr_target_packets`` per
    interrupt (ixgbe adaptive ITR), clamped between the low-latency
    minimum and the bulk maximum.
    """
    if per_queue_pps <= 0:
        return model.interrupt_moderation_ns
    window = model.itr_target_packets * 1e9 / per_queue_pps
    return min(model.interrupt_moderation_ns, max(model.itr_min_ns, window))


def interrupt_extra_delay_ns(
    per_queue_pps: float, utilization: float = 0.0, model: NICModel = NIC
) -> float:
    """Average extra latency from interrupt moderation.

    A packet arriving while its serving thread is blocked waits on
    average half the effective moderation window; the probability of
    finding the thread blocked falls with utilization (in polling mode
    interrupts stay masked and moderation is irrelevant).  This produces
    the elevated round-trip latency at low offered load in Figure 12 —
    the paper attributes it to "interrupt moderation in NICs" — fading
    as load rises.
    """
    idle = max(0.0, 1.0 - utilization)
    return effective_itr_ns(per_queue_pps, model) / 2.0 * idle
