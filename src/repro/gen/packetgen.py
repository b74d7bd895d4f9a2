"""Deterministic packet generator.

Builds real frames with seeded randomness, so every experiment is
reproducible bit-for-bit.  The generator is also the traffic *sink* for
round-trip latency measurement, like the paper's (timestamps ride in the
UDP payload).

Bursts are built column-wise (:meth:`PacketGenerator.ipv4_burst`): one
draw of Mersenne-Twister words, a walk over the rare port redraws, and
address/port column writes into a grid tiled from one template frame.
They are byte-identical to a loop of :meth:`random_ipv4_frame` calls and
leave the RNG in the same state, so seeded streams never change.

Instrumentation goes through :mod:`repro.obs` — the repo's single
instrumentation path: generated-frame counters land in the shared
metrics registry and diagnostics go through the ``repro.gen.packetgen``
logger, so generator volume exports alongside router counters.
"""

from __future__ import annotations

import random
import struct
from typing import List, Optional, Tuple

import numpy as np

from repro.net.checksum import checksum16_rows
from repro.net.ethernet import ETHERNET_HEADER_LEN
from repro.net.ipv4 import IPV4_HEADER_LEN
from repro.net.ipv6 import IPV6_HEADER_LEN
from repro.net.packet import build_udp_ipv4, build_udp_ipv6
from repro.obs import get_logger, get_registry, names

log = get_logger("gen.packetgen")

#: The port ranges :meth:`PacketGenerator.random_ipv4_frame` draws from:
#: ``randint(low, 65535)`` takes the top 16 bits of one 32-bit word and
#: redraws while they reach the span (CPython's
#: ``_randbelow_with_getrandbits``), so ``word >> 16`` is the offset.
_SPORT_LOW, _SPORT_SPAN = 1024, 65536 - 1024
_DPORT_LOW, _DPORT_SPAN = 1, 65536 - 1

#: Frame offsets of the columns a burst writes into its template: the
#: IPv4 header checksum, the src/dst address pair (back to back in both
#: families) and the UDP src/dst port pair.
_IP = ETHERNET_HEADER_LEN
_V4_CHECKSUM = _IP + 10
_V4_ADDRS = _IP + 12
_V6_ADDRS = _IP + 8
_V4_PORTS = _IP + IPV4_HEADER_LEN
_V6_PORTS = _IP + IPV6_HEADER_LEN


def _mt_words(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` 32-bit words of ``rng``, in draw order.

    ``getrandbits(32 * count)`` consumes exactly ``count`` words and
    places the first one in the least significant bits.
    """
    bits = rng.getrandbits(32 * count)
    return np.frombuffer(bits.to_bytes(4 * count, "little"), dtype="<u4")


def _walk_redraws(words: np.ndarray, count: int, addr_words: int,
                  frame: int, shift: int, redraws: list):
    """Find the frames whose port draws were rejected and redrawn.

    Every frame takes ``addr_words`` address words (src, then dst), then
    a src-port draw and a dst-port draw, each repeated while rejected.
    Rejections are rare (about 1 frame in 64), so the walk jumps from one
    rejected frame to the next with a strided search and steps word by
    word only through those; frames before ``frame`` are already walked
    and took ``shift`` redraws.  Appends ``(frame, src-port redraws,
    all redraws)`` to ``redraws`` per rejected frame.

    Returns ``(frame, shift, needed)``: where to resume once ``words``
    is longer, and the words the burst needs at the least (exactly, when
    it is ``len(words)``).
    """
    stride = addr_words + 2
    top = words >> 16
    sport_bad = top >= _SPORT_SPAN
    dport_bad = top >= _DPORT_SPAN
    # A frame whose src port sits at p is redrawn when either its src
    # port (p) or its dst port (p + 1) is rejected.
    bad = sport_bad.copy()
    bad[:-1] |= dport_bad[1:]
    end = len(words)
    while frame < count:
        first = frame * stride + addr_words + shift
        ahead = bad[first::stride][:count - frame]
        if not ahead.any():
            break
        hit = int(ahead.argmax())
        frame += hit
        start = sport = first + hit * stride
        while sport < end and sport_bad[sport]:
            sport += 1
        dport = sport + 1
        while dport < end and dport_bad[dport]:
            dport += 1
        extra = dport - start - 1
        if dport >= end:
            return frame, shift, count * stride + shift + extra
        redraws.append((frame, sport - start, extra))
        shift += extra
        frame += 1
    return frame, shift, count * stride + shift


def _draw_burst(rng: random.Random, count: int,
                addr_words: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` frames' words: (address words, src ports, dst ports).

    Draws only words the frames consume, so ``rng`` ends where ``count``
    scalar frame builds would leave it: first the redraw-free minimum,
    then, while the walk finds more words needed, that deficit.
    """
    stride = addr_words + 2
    words = _mt_words(rng, count * stride)
    redraws: List[Tuple[int, int, int]] = []
    frame = shift = 0
    while True:
        frame, shift, needed = _walk_redraws(
            words, count, addr_words, frame, shift, redraws
        )
        if needed == len(words):
            break
        words = np.concatenate((words, _mt_words(rng, needed - len(words))))
    sport_shift = np.zeros(count, dtype=np.int64)
    frame_shift = np.zeros(count, dtype=np.int64)
    if redraws:
        frames, sport_extra, extra = zip(*redraws)
        sport_shift[list(frames)] = sport_extra
        frame_shift[list(frames)] = extra
    start = np.arange(count, dtype=np.int64) * stride
    start[1:] += np.cumsum(frame_shift[:-1])
    sport = start + addr_words + sport_shift
    dport = start + stride - 1 + frame_shift
    addrs = words[start[:, None] + np.arange(addr_words)]
    sports = (words[sport] >> 16) + _SPORT_LOW
    dports = (words[dport] >> 16) + _DPORT_LOW
    return addrs, sports, dports


def _frames_from(template: bytearray, addrs: np.ndarray, addr_at: int,
                 sports: np.ndarray, dports: np.ndarray,
                 port_at: int) -> np.ndarray:
    """The ``(count, len(template))`` grid with the columns written in.

    ``addrs`` holds each frame's address bytes as big-endian words.
    """
    count = len(sports)
    grid = np.empty((count, len(template)), dtype=np.uint8)
    grid[:] = np.frombuffer(template, dtype=np.uint8)
    addr_bytes = np.ascontiguousarray(addrs, dtype=">u4").view(np.uint8)
    addr_bytes = addr_bytes.reshape(count, -1)
    grid[:, addr_at:addr_at + addr_bytes.shape[1]] = addr_bytes
    ports = np.stack((sports, dports), axis=1).astype(">u2")
    grid[:, port_at:port_at + 4] = ports.view(np.uint8).reshape(count, 4)
    return grid


def _split(grid: np.ndarray) -> List[bytearray]:
    """The grid's rows as separate frames (slicing one copy is cheapest)."""
    whole = bytearray(grid)
    length = grid.shape[1]
    return [whole[at:at + length] for at in range(0, len(whole), length)]


class PacketGenerator:
    """Seeded generator of evaluation traffic."""

    def __init__(self, seed: int = 1) -> None:
        self.rng = random.Random(seed)
        self.generated = 0
        registry = get_registry()
        self._m_ipv4 = registry.counter(
            names.GEN_FRAMES, help="frames built by the generator", family="ipv4"
        )
        self._m_ipv6 = registry.counter(
            names.GEN_FRAMES, help="frames built by the generator", family="ipv6"
        )

    def random_ipv4_frame(self, frame_len: int = 64,
                          timestamp_ns: Optional[int] = None) -> bytearray:
        """One IPv4/UDP frame with random dst address and ports."""
        payload = b""
        if timestamp_ns is not None:
            payload = struct.pack(">Q", timestamp_ns)
        frame = build_udp_ipv4(
            src_ip=self.rng.getrandbits(32),
            dst_ip=self.rng.getrandbits(32),
            src_port=self.rng.randint(1024, 65535),
            dst_port=self.rng.randint(1, 65535),
            frame_len=frame_len,
            payload=payload,
        )
        self.generated += 1
        self._m_ipv4.inc()
        return frame

    def random_ipv6_frame(self, frame_len: int = 78,
                          timestamp_ns: Optional[int] = None) -> bytearray:
        """One IPv6/UDP frame with random dst address and ports."""
        payload = b""
        if timestamp_ns is not None:
            payload = struct.pack(">Q", timestamp_ns)
        frame = build_udp_ipv6(
            src_ip=self.rng.getrandbits(128),
            dst_ip=self.rng.getrandbits(128),
            src_port=self.rng.randint(1024, 65535),
            dst_port=self.rng.randint(1, 65535),
            frame_len=frame_len,
            payload=payload,
        )
        self.generated += 1
        self._m_ipv6.inc()
        return frame

    def ipv4_burst(self, count: int, frame_len: int = 64) -> List[bytearray]:
        """A burst of random-destination IPv4 frames.

        Byte for byte the frames ``count`` :meth:`random_ipv4_frame` calls
        return, with the RNG left in the same state.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        log.debug("ipv4 burst: %d frames of %d B", count, frame_len)
        if count == 0:
            return []
        template = build_udp_ipv4(0, 0, 0, 0, frame_len=frame_len)
        addrs, sports, dports = _draw_burst(self.rng, count, 2)
        grid = _frames_from(template, addrs, _V4_ADDRS, sports, dports,
                            _V4_PORTS)
        grid[:, _V4_CHECKSUM:_V4_CHECKSUM + 2] = 0
        checksums = checksum16_rows(grid[:, _IP:_V4_PORTS]).astype(">u2")
        grid[:, _V4_CHECKSUM:_V4_CHECKSUM + 2] = (
            checksums.view(np.uint8).reshape(count, 2)
        )
        self.generated += count
        self._m_ipv4.inc(count)
        return _split(grid)

    def ipv6_burst(self, count: int, frame_len: int = 78) -> List[bytearray]:
        """A burst of random-destination IPv6 frames.

        Byte for byte the frames ``count`` :meth:`random_ipv6_frame` calls
        return, with the RNG left in the same state.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        log.debug("ipv6 burst: %d frames of %d B", count, frame_len)
        if count == 0:
            return []
        template = build_udp_ipv6(0, 0, 0, 0, frame_len=frame_len)
        addrs, sports, dports = _draw_burst(self.rng, count, 8)
        # getrandbits(128) puts its first word lowest: reverse each
        # address's four words into big-endian order.
        addrs = addrs[:, [3, 2, 1, 0, 7, 6, 5, 4]]
        grid = _frames_from(template, addrs, _V6_ADDRS, sports, dports,
                            _V6_PORTS)
        self.generated += count
        self._m_ipv6.inc(count)
        return _split(grid)

    def random_ipv4_addresses(self, count: int) -> List[int]:
        """Bare random addresses (the Figure 2 lookup-only workload)."""
        return [self.rng.getrandbits(32) for _ in range(count)]

    def random_ipv6_addresses(self, count: int) -> List[int]:
        """Bare random 128-bit addresses."""
        return [self.rng.getrandbits(128) for _ in range(count)]

    @staticmethod
    def read_timestamp(frame: bytes, l4_payload_offset: int = 42) -> Optional[int]:
        """Recover a timestamp embedded by the frame builders."""
        if len(frame) < l4_payload_offset + 8:
            return None
        return struct.unpack_from(">Q", frame, l4_payload_offset)[0]

    @staticmethod
    def replay_pcap(path: str) -> List[bytearray]:
        """Load a capture as injectable frames (trace replay).

        Pairs with :func:`repro.net.pcap.write_pcap`: dump a run's sink,
        edit or trim it in Wireshark, and replay it through the testbed.
        """
        from repro.net.pcap import read_pcap

        frames = [bytearray(record.data) for record in read_pcap(path)]
        log.info("replayed %d frames from %s", len(frames), path)
        return frames
