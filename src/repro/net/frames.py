"""Structure-of-arrays frame batches: vectorized header operations.

PacketShader's core lesson is that per-packet work dominates a software
router (Sections 4.2-4.3): the paper amortizes every cost — system
calls, DMA doorbells, copies — over batches.  This module applies the
same lesson to the reproduction's own hot path.  A :class:`FrameBatch`
repacks a chunk's ``List[bytearray]`` into one contiguous ``uint8``
buffer plus per-packet offset/length arrays, so header classification
(ethertype/version extraction, IPv4 checksum verification, TTL
decrement with the RFC 1624 incremental update, destination-address
gather) runs as a handful of numpy column operations over *all* packets
at once instead of a Python loop per packet.

When every frame has the same length — the common case for generated
bursts and min-sized forwarding workloads — the buffer doubles as an
``(n, frame_len)`` matrix, so each header byte column is a strided
*view* (no gather, no bounds clamping).  Mixed-length batches fall back
to bounds-safe gathers where a too-short frame reads as 0 and callers
mask on :meth:`FrameBatch.long_enough`.

The batch is a *view for computation*, not a new ownership model: it is
built from the frame list at the start of classification and any header
mutation is written back into the original ``bytearray`` objects (which
the rest of the pipeline — egress queues, pcap dumps, tests — keeps
holding).  Conversion at the edges is two C-level copies; everything in
between is vectorized.

None of this touches the *simulated* cycle accounting: the calibrated
cost models in :mod:`repro.calib` still charge the per-packet cycles the
paper measured.  This module only shrinks the reproduction's own
wall-clock footprint (see docs/PERF.md).
"""

from __future__ import annotations

import sys
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.net.checksum import checksum16_batch, checksum16_rows
from repro.net.ethernet import ETHERNET_HEADER_LEN
from repro.net.ipv4 import IPV4_HEADER_LEN

FrameLike = Union[bytes, bytearray, memoryview]


def frame_extents(frames: Sequence[FrameLike]):
    """Per-frame ``(offsets, lengths)`` of the packed SoA layout."""
    count = len(frames)
    lengths = np.fromiter(map(len, frames), dtype=np.int64, count=count)
    offsets = np.zeros(count, dtype=np.int64)
    if count > 1:
        np.cumsum(lengths[:-1], out=offsets[1:])
    return offsets, lengths


def pack_frames(frames: Sequence[FrameLike], out: Optional[memoryview] = None):
    """Pack frames into one contiguous store: ``(store, offsets, lengths)``.

    The single packing copy of the SoA data plane (chunk construction,
    chunk repacking, shm slot adoption all route through here).  With
    ``out`` the frames land in the caller-supplied buffer — e.g. a
    shared-memory chunk-pool slot — and the returned store is a
    writable ``memoryview`` slice of it; otherwise a fresh ``bytearray``
    is allocated.  Raises ``ValueError`` if ``out`` is too small.
    """
    offsets, lengths = frame_extents(frames)
    total = int(lengths.sum()) if len(frames) else 0
    if out is None:
        store = bytearray().join(frames)
        return store, offsets, lengths
    if total > len(out):
        raise ValueError(
            f"packed frames need {total}B, buffer holds {len(out)}B"
        )
    store = out[:total]
    # The one edge copy into the caller's buffer (RX-edge pack, not a
    # data-plane loop).
    for offset, frame in zip(offsets.tolist(), frames):  # reprolint: ignore[RL006]
        store[offset:offset + len(frame)] = frame
    return store, offsets, lengths

#: Byte weights of a big-endian 32-bit field (the dst-gather matmul).
_BE32 = np.array([1 << 24, 1 << 16, 1 << 8, 1], dtype=np.uint32)

#: Decrementing TTL in the *native* u16 word domain: TTL is the first
#: byte of the big-endian TTL/protocol word, i.e. the low half of a
#: little-endian word (subtract 1) or the high half of a big-endian one
#: (subtract 0x100).  TTL >= 2 on every selected packet, so neither
#: form borrows into the protocol byte.
_TTL_DEC_WORD = np.uint32(1 if sys.byteorder == "little" else 0x100)


class FrameBatch:
    """A batch of frames as one contiguous buffer + offset/length arrays.

    ``buf`` is a writable ``uint8`` array holding every frame
    back-to-back; ``offsets[i]``/``lengths[i]`` locate frame ``i``.
    ``grid`` is the ``(n, frame_len)`` matrix view when the batch is
    uniform (every frame the same length, packed back-to-back), else
    ``None``.  All gather helpers are bounds-safe: a frame too short for
    the requested field yields 0 (callers mask on :meth:`long_enough`).

    ``shared`` marks a batch whose buffer *is* the frames' own storage
    (:meth:`repro.core.chunk.Chunk.batch`): header mutations are then
    visible through the frame objects directly and the per-packet
    write-back step is skipped entirely.
    """

    __slots__ = ("buf", "offsets", "lengths", "grid", "shared")

    def __init__(
        self,
        buf: np.ndarray,
        offsets: np.ndarray,
        lengths: np.ndarray,
        shared: bool = False,
    ) -> None:
        self.buf = buf
        self.offsets = offsets
        self.lengths = lengths
        self.shared = shared
        self.grid: Optional[np.ndarray] = None
        count = len(offsets)
        if count:
            length = int(lengths[0])
            if (
                length > 0
                and count * length == len(buf)
                and int(offsets[-1]) == (count - 1) * length
                and (lengths == length).all()
            ):
                self.grid = buf.reshape(count, length)

    # ------------------------------------------------------------------
    # Edge conversions (the only per-frame work, both C-level copies).
    # ------------------------------------------------------------------

    @classmethod
    def from_frames(cls, frames: Sequence[FrameLike]) -> "FrameBatch":
        """Pack a frame list into one contiguous batch buffer."""
        count = len(frames)
        if count == 0:
            return cls(
                np.zeros(0, dtype=np.uint8),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
            )
        # ``bytearray().join`` accepts any buffer objects and produces a
        # mutable buffer that numpy wraps without another copy.
        joined = bytearray().join(frames)
        buf = np.frombuffer(joined, dtype=np.uint8)
        lengths = np.fromiter(map(len, frames), dtype=np.int64, count=count)
        offsets = np.empty(count, dtype=np.int64)
        offsets[0] = 0
        np.cumsum(lengths[:-1], out=offsets[1:])
        return cls(buf, offsets, lengths)

    def to_frames(self) -> List[bytearray]:
        """Unpack back into independent ``bytearray`` frames."""
        view = memoryview(self.buf)
        return [
            bytearray(view[offset:offset + length])
            for offset, length in zip(
                self.offsets.tolist(), self.lengths.tolist()
            )
        ]

    def __len__(self) -> int:
        return len(self.offsets)

    # ------------------------------------------------------------------
    # Bounds-safe scalar-field gathers.
    # ------------------------------------------------------------------

    def long_enough(self, needed: int) -> np.ndarray:
        """Boolean mask: frames with at least ``needed`` bytes."""
        if self.grid is not None:
            value = self.grid.shape[1] >= needed
            return np.full(len(self), value, dtype=bool)
        return self.lengths >= needed

    def byte_at(self, pos: int) -> np.ndarray:
        """Byte ``pos`` of every frame (0 where the frame is shorter).

        Uniform batches return a strided column *view* — do not mutate.
        """
        if self.grid is not None:
            if pos < self.grid.shape[1]:
                return self.grid[:, pos]
            return np.zeros(len(self), dtype=np.uint8)
        if len(self.buf) == 0:  # every frame empty: nothing to gather
            return np.zeros(len(self), dtype=np.uint8)
        valid = self.lengths > pos
        values = self.buf[np.where(valid, self.offsets + pos, 0)]
        return np.where(valid, values, 0).astype(np.uint8)

    def u16_at(self, pos: int) -> np.ndarray:
        """Big-endian 16-bit field at ``pos`` (0 where out of bounds)."""
        hi = self.byte_at(pos).astype(np.uint16)
        lo = self.byte_at(pos + 1).astype(np.uint16)
        return (hi << np.uint16(8)) | lo

    def u32_at(self, pos: int) -> np.ndarray:
        """Big-endian 32-bit field at ``pos`` (0 where out of bounds)."""
        if self.grid is not None and pos + 4 <= self.grid.shape[1]:
            return self.grid[:, pos:pos + 4].astype(np.uint32) @ _BE32
        value = self.u16_at(pos).astype(np.uint32) << np.uint32(16)
        return value | self.u16_at(pos + 2).astype(np.uint32)

    def bytes_equal(self, pos: int, expected: bytes) -> np.ndarray:
        """Mask of frames whose bytes at ``pos`` equal ``expected``.

        Compares byte columns directly — no field widening — so a
        two-byte ethertype test is three cheap ``uint8`` column ops.
        Frames too short for the span compare unequal.
        """
        if self.grid is not None and pos + len(expected) > self.grid.shape[1]:
            return np.zeros(len(self), dtype=bool)
        mask: Optional[np.ndarray] = None
        for i, value in enumerate(expected):
            hit = self.byte_at(pos + i) == value
            mask = hit if mask is None else (mask & hit)
        if self.grid is None:
            mask &= self.lengths >= pos + len(expected)
        return mask

    def head(self, width: int) -> np.ndarray:
        """``(n, width)`` matrix of every frame's first ``width`` bytes.

        Bytes past the end of a shorter frame read as 0.  Uniform
        batches at least ``width`` long return a *view* — do not mutate.
        """
        if self.grid is not None and self.grid.shape[1] >= width:
            return self.grid[:, :width]
        out = np.zeros((len(self), width), dtype=np.uint8)
        if self.grid is not None:
            out[:, :self.grid.shape[1]] = self.grid
        elif len(self.buf):
            columns = np.arange(width, dtype=np.int64)
            valid = columns[None, :] < self.lengths[:, None]
            out[valid] = self.buf[(self.offsets[:, None] + columns)[valid]]
        return out

    def gather(self, indices: np.ndarray, start: int, width: int) -> np.ndarray:
        """``(len(indices), width)`` byte matrix of a fixed header slice.

        Callers guarantee the selected frames are at least
        ``start + width`` bytes long (mask with :meth:`long_enough`).
        """
        if len(indices) == 0:
            return np.zeros((0, width), dtype=np.uint8)
        if self.grid is not None:
            return self.grid[indices, start:start + width]
        grid = self.offsets[indices][:, None] + np.arange(
            start, start + width, dtype=np.int64
        )[None, :]
        return self.buf[grid]

    # ------------------------------------------------------------------
    # Protocol-field conveniences (offsets relative to the L2 header).
    # ------------------------------------------------------------------

    def ethertypes(self) -> np.ndarray:
        """EtherType of every frame (0 where shorter than 14 bytes)."""
        return self.u16_at(12)

    def ethertype_is(self, ethertype: int) -> np.ndarray:
        """Mask of frames carrying ``ethertype`` (False where short)."""
        return self.bytes_equal(12, ethertype.to_bytes(2, "big"))

    def ipv4_dsts(self) -> np.ndarray:
        """IPv4 destination address column (uint32, 0 where too short)."""
        return self.u32_at(ETHERNET_HEADER_LEN + 16)

    def ipv6_dsts(self, indices: np.ndarray) -> List[int]:
        """128-bit destination addresses of the selected frames.

        Returned as Python ints (what the binary-search table consumes);
        the byte gather and 64-bit folds are vectorized, only the final
        hi/lo combine runs per selected packet.
        """
        l3 = ETHERNET_HEADER_LEN
        raw = self.gather(indices, l3 + 24, 16).astype(np.uint64)
        shifts = (np.arange(7, -1, -1, dtype=np.uint64) * np.uint64(8))
        hi = (raw[:, :8] << shifts).sum(axis=1, dtype=np.uint64)
        lo = (raw[:, 8:] << shifts).sum(axis=1, dtype=np.uint64)
        return [
            (int(h) << 64) | int(l)
            for h, l in zip(hi.tolist(), lo.tolist())
        ]

    def ipv4_checksum_ok(self, mask_or_indices: np.ndarray) -> np.ndarray:
        """Verify the 20-byte IPv4 header checksums of selected frames.

        Vectorized RFC 1071: treat the gathered headers as 16-bit
        big-endian words, column-sum, fold carries — one pass over the
        whole batch instead of a per-byte Python loop per packet.

        Accepts a boolean mask over the batch (returns a same-shape mask
        that is True only where selected *and* verified) or an index
        array (returns one flag per index).
        """
        l3 = ETHERNET_HEADER_LEN
        selector = np.asarray(mask_or_indices)
        is_mask = selector.dtype == bool
        if self.grid is not None:
            width = self.grid.shape[1]
            if width % 2 == 0 and width >= l3 + IPV4_HEADER_LEN:
                # Native-endian word view over the whole batch.  The
                # one's-complement sum is byte-order independent
                # (RFC 1071 section 2(B)): a header verifies iff the
                # folded sum is 0xFFFF in either byte order, so the
                # verification never needs a big-endian conversion.
                # The header spans words l3/2 .. (l3+20)/2 of each row.
                words = self.buf.view(np.uint16).reshape(len(self), width // 2)
                totals = words[:, l3 // 2:(l3 + IPV4_HEADER_LEN) // 2].sum(
                    axis=1, dtype=np.uint64
                )
                # Ten 0xFFFF words sum below 0xA0000: two folds suffice.
                totals = (totals & np.uint64(0xFFFF)) + (
                    totals >> np.uint64(16)
                )
                totals = (totals & np.uint64(0xFFFF)) + (
                    totals >> np.uint64(16)
                )
                verified = totals == np.uint64(0xFFFF)
                if is_mask:
                    return selector & verified
                return verified[selector]
            headers = self.grid[:, l3:l3 + IPV4_HEADER_LEN]
            if is_mask:
                if not selector.all():
                    headers = headers[selector]
                ok = checksum16_rows(headers) == 0
                if len(ok) == len(selector):
                    return selector & ok
                result = np.zeros(len(selector), dtype=bool)
                result[selector] = ok
                return result
            return checksum16_rows(headers[selector]) == 0
        indices = np.flatnonzero(selector) if is_mask else selector
        if len(indices) == 0:
            return (
                np.zeros(len(selector), dtype=bool)
                if is_mask
                else np.zeros(0, dtype=bool)
            )
        sums = checksum16_batch(
            self.buf,
            self.offsets[indices] + l3,
            np.full(len(indices), IPV4_HEADER_LEN, dtype=np.int64),
        )
        if is_mask:
            result = np.zeros(len(selector), dtype=bool)
            result[indices] = sums == 0
            return result
        return sums == 0

    def ipv4_decrement_ttl(
        self, selected: np.ndarray, frames: Sequence[bytearray]
    ) -> None:
        """Batched TTL decrement + RFC 1624 incremental checksum update.

        ``selected`` (an index array or boolean mask) picks IPv4 frames
        already known to have TTL > 1.  The new TTL and checksum are
        computed vectorized for the whole selection; the changed header
        region is then stored back into both the batch buffer and the
        original ``bytearray`` frames (which the egress path keeps
        holding) — one 4-byte slice copy per packet, the only remaining
        per-packet step.
        """
        selected = np.asarray(selected)
        l3 = ETHERNET_HEADER_LEN
        width = 0 if self.grid is None else self.grid.shape[1]
        if (
            selected.dtype == bool
            and width % 2 == 0
            and width >= l3 + IPV4_HEADER_LEN
        ):
            # Uniform batches: the TTL/protocol pair (header bytes 8-9)
            # and the checksum (bytes 10-11) are whole 16-bit words at
            # even offsets, so the RFC 1624 update runs on two native
            # u16 columns — no offset gathers, no per-byte recombining.
            # One's-complement sums are byte-order independent
            # (RFC 1071 section 2(B)); in the native word domain the
            # TTL decrement subtracts 1 (little-endian: TTL is the low
            # byte) or 0x100 (big-endian).  The arithmetic runs over
            # every row (cheaper than gathering the selection) and only
            # the selected rows are written; unselected rows may hold
            # garbage, so their words are masked to 16 bits to keep the
            # fixed two-fold carry bound.
            words = self.buf.view(np.uint16).reshape(len(self), width // 2)
            word_col = words[:, (l3 + 8) // 2]
            check_col = words[:, (l3 + 10) // 2]
            old_word = word_col.astype(np.uint32)
            new_word = old_word - _TTL_DEC_WORD
            total = (
                (~check_col.astype(np.uint32) & np.uint32(0xFFFF))
                + (~old_word & np.uint32(0xFFFF))
                + (new_word & np.uint32(0xFFFF))
            )
            # total <= 3 * 0xFFFF: two folds always suffice.
            total = (total & np.uint32(0xFFFF)) + (total >> np.uint32(16))
            total = (total & np.uint32(0xFFFF)) + (total >> np.uint32(16))
            new_checksum = ~total & np.uint32(0xFFFF)
            if selected.all():
                word_col[:] = new_word.astype(np.uint16)
                check_col[:] = new_checksum.astype(np.uint16)
            else:
                word_col[selected] = new_word[selected].astype(np.uint16)
                check_col[selected] = new_checksum[selected].astype(np.uint16)
            if not self.shared:
                view = memoryview(self.buf)
                lo = l3 + 8
                hi = l3 + 12
                for index in np.flatnonzero(selected).tolist():
                    offset = index * width + lo
                    frames[index][lo:hi] = view[offset:offset + 4]
            return
        indices = (
            np.flatnonzero(selected) if selected.dtype == bool else selected
        )
        if len(indices) == 0:
            return
        offs = self.offsets[indices]
        ttl = self.buf[offs + (l3 + 8)].astype(np.uint32)
        proto = self.buf[offs + (l3 + 9)].astype(np.uint32)
        old_word = (ttl << np.uint32(8)) | proto
        new_ttl = ttl - np.uint32(1)
        new_word = (new_ttl << np.uint32(8)) | proto
        old_checksum = (
            self.buf[offs + (l3 + 10)].astype(np.uint32) << np.uint32(8)
        ) | self.buf[offs + (l3 + 11)].astype(np.uint32)
        # HC' = ~(~HC + ~m + m')   (RFC 1624 eqn. 3), carries folded.
        total = (
            (~old_checksum & np.uint32(0xFFFF))
            + (~old_word & np.uint32(0xFFFF))
            + new_word
        )
        while (total >> np.uint32(16)).any():
            total = (total & np.uint32(0xFFFF)) + (total >> np.uint32(16))
        new_checksum = ~total & np.uint32(0xFFFF)
        self.buf[offs + (l3 + 8)] = new_ttl.astype(np.uint8)
        self.buf[offs + (l3 + 10)] = (new_checksum >> np.uint32(8)).astype(
            np.uint8
        )
        self.buf[offs + (l3 + 11)] = (new_checksum & np.uint32(0xFF)).astype(
            np.uint8
        )
        if self.shared:
            return
        # Copy the mutated TTL/checksum region (bytes 8-11 of the IPv4
        # header; byte 9, the protocol, is unchanged) back into the
        # caller's frames in one slice assignment per packet.
        view = memoryview(self.buf)
        lo = l3 + 8
        hi = l3 + 12
        for index, offset in zip(indices.tolist(), (offs + lo).tolist()):
            frames[index][lo:hi] = view[offset:offset + 4]

    def ipv6_decrement_hop_limit(
        self, indices: np.ndarray, frames: Sequence[bytearray]
    ) -> None:
        """Batched hop-limit decrement (no checksum in IPv6 headers).

        ``indices`` selects IPv6 frames already known to have hop limit
        > 1; the single changed byte is written back into the caller's
        frames.
        """
        if len(indices) == 0:
            return
        pos = ETHERNET_HEADER_LEN + 7
        offs = self.offsets[indices] + pos
        new_hop = (self.buf[offs] - np.uint8(1)).astype(np.uint8)
        self.buf[offs] = new_hop
        if self.shared:
            return
        for index, hop in zip(indices.tolist(), new_hop.tolist()):
            frames[index][pos] = hop
