"""Receive-Side Scaling: the Toeplitz hash and queue indirection.

RSS (paper Section 4.4) spreads received packets across RX queues "by
hashing the five-tuples ... of a packet header", so that each CPU core
owns its queues exclusively.  The hash is the Toeplitz construction the
82599 (and the Microsoft RSS spec the paper cites) uses, implemented
bit-exactly: test vectors from the Microsoft "Verifying the RSS Hash
Calculation" documentation pass against this implementation.

Flow affinity — all packets of one flow land in one queue, preserving
intra-flow order (Section 5.3) — follows from the hash being a pure
function of the tuple.

:func:`steer` is the one steering path (testbed NIC, router, ShardMap);
:class:`RSSHasher` is the bit-serial reference the tests check it against.
"""

from __future__ import annotations

from itertools import compress
from typing import List, Sequence, Tuple

import numpy as np

from repro.net.frames import FrameBatch
from repro.net.ipv4 import PROTO_TCP, PROTO_UDP
from repro.net.packet import FiveTuple
from repro.net.tcp import TCP_HEADER_LEN
from repro.net.udp import UDP_HEADER_LEN

#: The de-facto standard 40-byte RSS secret key from the Microsoft RSS
#: specification; drivers (including ixgbe) ship it as the default.
MICROSOFT_RSS_KEY = bytes(
    [
        0x6D, 0x5A, 0x56, 0xDA, 0x25, 0x5B, 0x0E, 0xC2,
        0x41, 0x67, 0x25, 0x3D, 0x43, 0xA3, 0x8F, 0xB0,
        0xD0, 0xCA, 0x2B, 0xCB, 0xAE, 0x7B, 0x30, 0xB4,
        0x77, 0xCB, 0x2D, 0xA3, 0x80, 0x30, 0xF2, 0x0C,
        0x6A, 0x42, 0xB7, 0x3B, 0xBE, 0xAC, 0x01, 0xFA,
    ]
)


class RSSHasher:
    """Toeplitz hasher plus an indirection table of queue indices.

    ``queue_map`` plays the role of the NIC's RETA (redirection table):
    hash bits index into it to select the destination RX queue.  The
    Section 4.5 NUMA fix — "configure RSS to distribute packets only to
    those CPU cores in the same node as the NICs" — is expressed by
    building the map from the local node's queues only.
    """

    def __init__(
        self,
        queue_map: Sequence[int],
        key: bytes = MICROSOFT_RSS_KEY,
    ) -> None:
        if not queue_map:
            raise ValueError("queue_map must not be empty")
        if len(key) < 16:
            raise ValueError("RSS key too short")
        self.queue_map: List[int] = list(queue_map)
        self.key = key

    def toeplitz(self, data: bytes) -> int:
        """The Toeplitz hash of ``data`` under the configured key.

        For each set bit of the input (MSB first), XOR in the 32-bit
        window of the key starting at that bit position.
        """
        if len(data) + 4 > len(self.key):
            raise ValueError(
                f"input of {len(data)}B needs a key of {len(data) + 4}B"
            )
        result = 0
        window = int.from_bytes(self.key[:4], "big")
        key_bits = int.from_bytes(self.key, "big")
        total_bits = len(self.key) * 8
        for i, byte in enumerate(data):
            for bit in range(8):
                if byte & (0x80 >> bit):
                    result ^= window
                # Slide the 32-bit window one bit right along the key.
                position = i * 8 + bit + 1
                window = (key_bits >> (total_bits - 32 - position)) & 0xFFFFFFFF
        return result

    @staticmethod
    def tuple_bytes(flow: FiveTuple) -> bytes:
        """Serialise a 5-tuple into the RSS input layout.

        IPv4: src(4) dst(4) sport(2) dport(2); IPv6: src(16) dst(16)
        sport(2) dport(2) — the orders the Microsoft spec defines.
        """
        addr_len = 16 if flow.is_ipv6 else 4
        return (
            flow.src_ip.to_bytes(addr_len, "big")
            + flow.dst_ip.to_bytes(addr_len, "big")
            + flow.src_port.to_bytes(2, "big")
            + flow.dst_port.to_bytes(2, "big")
        )

    def hash_flow(self, flow: FiveTuple) -> int:
        """32-bit RSS hash of a flow."""
        return self.toeplitz(self.tuple_bytes(flow))

    def queue_for(self, flow: FiveTuple) -> int:
        """Destination RX queue for a flow (hash LSBs through the RETA)."""
        return self.queue_map[self.hash_flow(flow) % len(self.queue_map)]


def _toeplitz_rows(width: int) -> np.ndarray:
    """``rows[i, b]``: the Toeplitz hash of byte value ``b`` at input byte ``i``.

    Toeplitz is linear over GF(2), so an input's hash is the XOR of its
    bytes' rows: one table gather per input byte hashes a whole batch.
    """
    key_bits = int.from_bytes(MICROSOFT_RSS_KEY, "big")
    last = len(MICROSOFT_RSS_KEY) * 8 - 32
    windows = np.array(
        [(key_bits >> (last - bit)) & 0xFFFFFFFF for bit in range(width * 8)],
        dtype=np.uint32,
    ).reshape(width, 1, 8)
    # bits[b, j]: bit j (MSB first) of byte value b picks window 8i + j.
    bits = ((np.arange(256)[:, None] >> np.arange(7, -1, -1)) & 1) == 1
    return np.bitwise_xor.reduce(np.where(bits, windows, np.uint32(0)), axis=2)


#: Per IP family: EtherType, (mask, value) of byte 14 (the version, and
#: IHL 5 for IPv4), protocol byte, first address byte, L4 offset, and the
#: Toeplitz rows of the tuple — the address pair (up to L4) and 4 port bytes.
_FAMILIES = (
    (0x0800, 0xFF, 0x45, 23, 26, 34, _toeplitz_rows(12)),
    (0x86DD, 0xF0, 0x60, 20, 22, 54, _toeplitz_rows(36)),
)


def steer(frames: Sequence, num_queues: int, rr: int) -> Tuple[np.ndarray, int]:
    """RSS queue of every frame, and the round-robin counter to carry on.

    A frame hashes exactly when ``parse_packet(frame).five_tuple()``
    returns a tuple: IPv4 (at least 34 bytes, byte 14 == 0x45) or IPv6
    (at least 54 bytes, version 6), unless it is TCP with 20 L4 bytes
    and a data offset below 5.  UDP (8 L4 bytes) and TCP (20) hash their
    ports, anything else ports 0; the queue is ``hash % num_queues``.
    The ``k``-th frame that does not hash goes to ``(rr + k) %
    num_queues``; the returned counter is ``rr`` plus their count.
    """
    batch = FrameBatch.from_frames(frames)
    queues = np.full(len(batch), -1, dtype=np.int64)
    for ethertype, vmask, version, proto_at, addr_at, l4, rows in _FAMILIES:
        proto = batch.byte_at(proto_at)
        l4_len = batch.lengths - l4
        tcp = (proto == PROTO_TCP) & (l4_len >= TCP_HEADER_LEN)
        ports = tcp | ((proto == PROTO_UDP) & (l4_len >= UDP_HEADER_LEN))
        # A TCP data offset below 5 words fails the parse: no tuple.
        indices = np.flatnonzero(
            batch.ethertype_is(ethertype)
            & (l4_len >= 0)
            & ((batch.byte_at(14) & vmask) == version)
            & ~(tcp & ((batch.byte_at(l4 + 12) >> 4) < 5))
        )
        with_ports = ports[indices]
        data = np.zeros((len(indices), len(rows)), dtype=np.uint8)
        data[:, :-4] = batch.gather(indices, addr_at, l4 - addr_at)
        data[with_ports, -4:] = batch.gather(indices[with_ports], l4, 4)
        hashes = np.bitwise_xor.reduce(rows[np.arange(len(rows)), data], axis=1)
        queues[indices] = hashes % num_queues
    spill = np.flatnonzero(queues < 0)
    queues[spill] = (rr + np.arange(len(spill))) % num_queues
    return queues, rr + len(spill)


class ShardMap:
    """RSS flow steering lifted to worker *processes* (docs/SHARDING.md).

    The sharded data plane assigns each flow to exactly one worker
    process the same way the NIC assigns flows to RX queues: Toeplitz
    hash of the 5-tuple, modulo the shard count (:func:`steer`).  Flow
    affinity is the correctness keystone — every packet of a flow is
    pre-shaded, shaded, and post-shaded by one worker, so per-flow state
    (flow tables, reordering) never crosses a process boundary.

    Frames that carry no 5-tuple (ARP, malformed L3, unknown
    EtherTypes) cannot hash; they round-robin over shards from
    :attr:`fallbacks`, a counter carried across calls, so chaos traffic
    spreads evenly *and* a sequential re-partition of the same frame
    stream lands every frame on the same shard — the property the
    differential suite leans on.
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards
        #: Unhashable frames seen so far: the round-robin counter.
        self.fallbacks = 0

    def partition(self, frames: Sequence) -> List[List]:
        """Split a frame stream into per-shard sub-streams.

        Relative order within each shard matches arrival order — the
        intra-flow ordering RSS guarantees (Section 5.3).
        """
        queues, self.fallbacks = steer(frames, self.num_shards, self.fallbacks)
        return [
            list(compress(frames, queues == shard))
            for shard in range(self.num_shards)
        ]
