"""The chunk: PacketShader's unit of batched processing (Section 5.3).

"We define chunk as a group of packets fetched in a batch of packet
reception.  The chunk size is not fixed but only capped."  A chunk is
also the minimum unit of GPU parallelism, and FIFO order within a chunk
is preserved end to end (flow order is guaranteed by RSS + FIFO queues).

Each packet in a chunk carries a verdict: forward (with an output port),
drop (malformed), or slow path (destined to local, TTL expired, bad
checksum — Section 6.2.1's classification).

Verdicts are stored structure-of-arrays: one ``uint8`` disposition
column and one ``int32`` out-port column, so the data plane classifies,
counts, and splits whole chunks with numpy masks instead of per-packet
Python loops (the same batching lesson the paper applies to packet I/O).
The per-packet :class:`PacketVerdict` API survives as a thin view over
those columns for callers that still think packet-at-a-time.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.net.frames import FrameBatch, pack_frames


class Disposition(enum.Enum):
    """What should happen to one packet."""

    PENDING = "pending"
    FORWARD = "forward"
    DROP = "drop"
    SLOW_PATH = "slow_path"


#: Array codes of the dispositions (the SoA storage form).
_CODES: Dict[Disposition, int] = {
    Disposition.PENDING: 0,
    Disposition.FORWARD: 1,
    Disposition.DROP: 2,
    Disposition.SLOW_PATH: 3,
}
_DISPOSITIONS: Tuple[Disposition, ...] = (
    Disposition.PENDING,
    Disposition.FORWARD,
    Disposition.DROP,
    Disposition.SLOW_PATH,
)

PENDING_CODE = _CODES[Disposition.PENDING]
FORWARD_CODE = _CODES[Disposition.FORWARD]
DROP_CODE = _CODES[Disposition.DROP]
SLOW_PATH_CODE = _CODES[Disposition.SLOW_PATH]

#: ``out_ports`` sentinel for "no port assigned".
NO_PORT = -1

IndexLike = Union[np.ndarray, Sequence[int]]


class PacketVerdict:
    """Per-packet processing outcome.

    Standalone instances hold their own state (legacy constructions and
    tests); instances handed out by :attr:`Chunk.verdicts` are *views*
    bound to the chunk's disposition/out-port columns, so per-packet
    mutations and batch numpy updates see the same storage.
    """

    __slots__ = ("_chunk", "_index", "_disposition", "_out_port")

    def __init__(
        self,
        disposition: Disposition = Disposition.PENDING,
        out_port: Optional[int] = None,
    ) -> None:
        self._chunk: Optional["Chunk"] = None
        self._index = 0
        self._disposition = disposition
        self._out_port = out_port

    @classmethod
    def _bound(cls, chunk: "Chunk", index: int) -> "PacketVerdict":
        verdict = cls.__new__(cls)
        verdict._chunk = chunk
        verdict._index = index
        verdict._disposition = Disposition.PENDING
        verdict._out_port = None
        return verdict

    @property
    def disposition(self) -> Disposition:
        if self._chunk is not None:
            return _DISPOSITIONS[self._chunk.dispositions[self._index]]
        return self._disposition

    @disposition.setter
    def disposition(self, value: Disposition) -> None:
        if self._chunk is not None:
            self._chunk.dispositions[self._index] = _CODES[value]
        else:
            self._disposition = value

    @property
    def out_port(self) -> Optional[int]:
        if self._chunk is not None:
            port = int(self._chunk.out_ports[self._index])
            return None if port == NO_PORT else port
        return self._out_port

    @out_port.setter
    def out_port(self, value: Optional[int]) -> None:
        if self._chunk is not None:
            self._chunk.out_ports[self._index] = (
                NO_PORT if value is None else value
            )
        else:
            self._out_port = value

    def forward_to(self, port: int) -> None:
        self.disposition = Disposition.FORWARD
        self.out_port = port

    def drop(self) -> None:
        self.disposition = Disposition.DROP
        self.out_port = None

    def slow_path(self) -> None:
        self.disposition = Disposition.SLOW_PATH
        self.out_port = None

    def __repr__(self) -> str:
        return (
            f"PacketVerdict(disposition={self.disposition!r}, "
            f"out_port={self.out_port!r})"
        )


class VerdictColumn:
    """Sequence view presenting the SoA columns as per-packet verdicts."""

    __slots__ = ("_chunk",)

    def __init__(self, chunk: "Chunk") -> None:
        self._chunk = chunk

    def __len__(self) -> int:
        return len(self._chunk.dispositions)

    def __getitem__(self, index: int) -> PacketVerdict:
        length = len(self)
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError("verdict index out of range")
        return PacketVerdict._bound(self._chunk, index)

    def __iter__(self) -> Iterator[PacketVerdict]:
        for index in range(len(self)):
            yield PacketVerdict._bound(self._chunk, index)


class Chunk:
    """A batch of packets moving through the three shading steps."""

    __slots__ = (
        "frames",
        "worker_id",
        "in_port",
        "queue_id",
        "dispositions",
        "out_ports",
        "gpu_input",
        "gpu_output",
        "app_state",
        "arrival_ns",
        "service_ns",
        "enqueue_depth",
        "trace_ctx",
        "_frame_store",
        "_offsets",
        "_lengths",
        "_packed",
        "_batch",
        "_shm",
    )

    def __init__(
        self,
        frames: List[bytearray],
        worker_id: int = 0,
        in_port: int = 0,
        queue_id: int = 0,
        verdicts: Optional[Sequence[PacketVerdict]] = None,
        gpu_input: object = None,
        gpu_output: object = None,
        app_state: object = None,
        arrival_ns: float = 0.0,
        store_into: Optional[memoryview] = None,
    ) -> None:
        #: Raw frames (mutable: the fast path rewrites TTLs and checksums).
        #: Stored structure-of-arrays: the incoming frames are packed
        #: into one contiguous backing buffer at the RX edge and each
        #: list entry is a writable ``memoryview`` slice of it, so the
        #: per-packet view and the vectorized :meth:`batch` view share
        #: storage — a batched TTL rewrite is immediately visible here.
        #: With ``store_into`` the pack lands in the caller's buffer
        #: (a shared-memory chunk-pool slot) instead of a fresh
        #: bytearray — the RX edge is then the chunk's only byte copy.
        store, offsets, lengths = pack_frames(frames, out=store_into)
        view = memoryview(store)
        self.frames: List[memoryview] = [
            view[offset:offset + length]
            for offset, length in zip(offsets.tolist(), lengths.tolist())
        ]
        self._frame_store = store
        self._offsets = offsets
        self._lengths = lengths
        self._packed = True
        self._batch: Optional[FrameBatch] = None
        #: Shared-memory descriptor when the store is a chunk-pool slot
        #: (:mod:`repro.shard.pool` binds it); None for heap-backed
        #: chunks.
        self._shm = None
        #: RX provenance: which worker fetched it, from which port/queue.
        self.worker_id = worker_id
        self.in_port = in_port
        self.queue_id = queue_id
        #: Per-packet disposition codes, parallel to ``frames`` (SoA).
        self.dispositions = np.full(len(frames), PENDING_CODE, dtype=np.uint8)
        #: Per-packet output ports (``NO_PORT`` where unassigned).
        self.out_ports = np.full(len(frames), NO_PORT, dtype=np.int32)
        #: Application-specific GPU input staging (built in pre-shading).
        self.gpu_input = gpu_input
        #: GPU results placed back by the master (consumed in post-shading).
        self.gpu_output = gpu_output
        #: Application-private per-chunk state surviving from pre- to
        #: post-shading (e.g. the OpenFlow app stashes extracted flow keys).
        self.app_state = app_state
        #: Simulated clock bookkeeping for latency accounting.
        self.arrival_ns = arrival_ns
        #: Modelled service time accumulated across the shading stages
        #: (fed to the overload controller's p99 window on finish).
        self.service_ns = 0.0
        #: Chunks already queued at the master when this one was handed
        #: off — the queue-wait component of the latency estimate.
        self.enqueue_depth = 0
        #: Flight-recorder trace context ``(writer_id, origin_seq)``:
        #: which worker's ring recorded the RX that birthed this chunk,
        #: and that event's seq.  Stamped at the RX edge, carried across
        #: queue (and pickle) boundaries, and echoed into the CHUNK
        #: completion event so a merged cross-process stream can link a
        #: verdict back to its ingress.  ``None`` until stamped.
        self.trace_ctx: Optional[Tuple[int, int]] = None
        if verdicts is not None:
            if len(verdicts) != len(frames):
                raise ValueError("verdicts must parallel frames")
            # Legacy-constructor edge conversion, not a data-plane loop.
            for index, verdict in enumerate(verdicts):  # reprolint: ignore[RL006]
                self.dispositions[index] = _CODES[verdict.disposition]
                self.out_ports[index] = (
                    NO_PORT if verdict.out_port is None else verdict.out_port
                )

    def __len__(self) -> int:
        return len(self.frames)

    # ------------------------------------------------------------------
    # Process-boundary serialization.
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle the chunk for a process-boundary queue handoff.

        Two wire forms:

        * **shm descriptor** — the store is a chunk-pool slot: only the
          :class:`~repro.shard.pool.ChunkShmRef` travels (plus the
          offset/length columns); the frame bytes are never copied.
        * **owned bytes** — everything else ships its store as one
          ``bytes`` blob.  A detached chunk (``replace_frame()`` touched
          it) is repacked into a fresh store first, so the receiver
          always gets a packed chunk.  The repack lands in the state
          dict only: an ``mp.Queue`` feeder pickles after ``put()``
          returns, so the sender must not be mutated here.
        """
        state = {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot not in ("frames", "_frame_store", "_batch")
        }
        if not self._packed:
            store, offsets, lengths = pack_frames(self.frames)
            state.update(
                _shm=None, _store_bytes=bytes(store), _offsets=offsets,
                _lengths=lengths, _packed=True,
            )
        elif self._shm is not None:
            # Zero-copy: the descriptor already in state["_shm"] names
            # the packed bytes; nothing else to ship.
            state["_store_bytes"] = None
        else:
            state["_store_bytes"] = bytes(self._frame_store)
        return state

    def __setstate__(self, state: dict) -> None:
        store_bytes = state.pop("_store_bytes")
        for slot, value in state.items():
            setattr(self, slot, value)
        self._batch = None
        if self._shm is not None:
            # Map the descriptor back onto the shared slot: the rebuilt
            # frames alias the sender's bytes (validated by generation
            # and epoch, raising StaleChunkError on a recycled slot).
            from repro.shard.pool import resolve_ref

            view = resolve_ref(self._shm)
            self._frame_store = view
        else:
            self._frame_store = bytearray(store_bytes)
            view = memoryview(self._frame_store)
        self.frames = [
            view[offset:offset + length]
            for offset, length in zip(
                self._offsets.tolist(), self._lengths.tolist()
            )
        ]

    # ------------------------------------------------------------------
    # The structure-of-arrays view.
    # ------------------------------------------------------------------

    def batch(self) -> FrameBatch:
        """The chunk's frames as a :class:`FrameBatch` (cached).

        While the frames are still the original packed slices the batch
        wraps the backing buffer zero-copy and is marked *shared*:
        vectorized header writes land directly in the frames and no
        per-packet write-back is needed.  After :meth:`replace_frame`
        the correspondence is broken, so the batch is rebuilt from the
        live frame list on each call (copy-in, with write-back).
        """
        if self._batch is not None:
            return self._batch
        if self._packed:
            batch = FrameBatch(
                np.frombuffer(self._frame_store, dtype=np.uint8),
                self._offsets,
                self._lengths,
                shared=True,
            )
            self._batch = batch
            return batch
        return FrameBatch.from_frames(self.frames)

    def replace_frame(self, index: int, frame: bytearray) -> None:
        """Substitute packet ``index``'s frame (e.g. ESP encap/decap).

        Rebinding a frame (rather than mutating it in place) detaches it
        from the packed buffer, so the cached batch view is invalidated.
        On a shm-backed chunk the slot's epoch counter is bumped too, so
        any descriptor of the old store still in flight in another
        process fails validation instead of reading a half-true frame
        list (the cross-process invalidation of docs/SHARDING.md).
        Always use this instead of assigning ``chunk.frames[index]``
        directly.
        """
        self.frames[index] = frame
        self._packed = False
        self._batch = None
        if self._shm is not None:
            from repro.shard.pool import note_frame_replaced

            self._shm = note_frame_replaced(self._shm)

    # ------------------------------------------------------------------
    # Shared-memory backing (bound by repro.shard.pool).
    # ------------------------------------------------------------------

    @property
    def shm_ref(self):
        """The chunk-pool descriptor of the store (None if heap-backed)."""
        return self._shm

    @property
    def is_packed(self) -> bool:
        """True while every frame is still a slice of the packed store."""
        return self._packed

    def packed_nbytes(self) -> int:
        """Total packed bytes of the store (valid while packed)."""
        return int(self._lengths.sum()) if len(self._lengths) else 0

    def repack_into(self, buffer: memoryview) -> int:
        """Repack the live frames into ``buffer`` (a fresh pool slot).

        The copy-on-grow escape: after ``replace_frame`` detached
        frames, one packing copy restores the SoA invariants against a
        caller-supplied store.  Offset/length columns are recomputed
        (replacement frames may differ in size); returns the packed
        byte count.  The caller re-binds the shm descriptor.
        """
        store, offsets, lengths = pack_frames(self.frames, out=buffer)
        view = memoryview(store)
        self._frame_store = store
        self._offsets = offsets
        self._lengths = lengths
        self.frames = [
            view[offset:offset + length]
            for offset, length in zip(offsets.tolist(), lengths.tolist())
        ]
        self._packed = True
        self._batch = None
        self._shm = None
        return self.packed_nbytes()

    # ------------------------------------------------------------------
    # The per-packet compatibility view.
    # ------------------------------------------------------------------

    @property
    def verdicts(self) -> VerdictColumn:
        """Per-packet verdict views over the disposition/port columns."""
        return VerdictColumn(self)

    # ------------------------------------------------------------------
    # Vectorized verdict updates (the data-plane fast path).
    # ------------------------------------------------------------------

    def set_forward(self, where: IndexLike, ports) -> None:
        """FORWARD the selected packets to ``ports`` (array or scalar)."""
        self.dispositions[where] = FORWARD_CODE
        self.out_ports[where] = ports

    def set_drop(self, where: IndexLike) -> None:
        """DROP the selected packets (index array or boolean mask)."""
        self.dispositions[where] = DROP_CODE
        self.out_ports[where] = NO_PORT

    def set_slow_path(self, where: IndexLike) -> None:
        """Divert the selected packets to the slow path."""
        self.dispositions[where] = SLOW_PATH_CODE
        self.out_ports[where] = NO_PORT

    def pending_mask(self) -> np.ndarray:
        """Boolean mask of packets still awaiting a verdict."""
        return self.dispositions == PENDING_CODE

    def pending_indices(self) -> List[int]:
        """Packets still awaiting a verdict (the GPU-bound subset)."""
        return np.flatnonzero(self.pending_mask()).tolist()

    def slow_path_indices(self) -> List[int]:
        """Packets diverted to the slow path, in FIFO order."""
        return np.flatnonzero(self.dispositions == SLOW_PATH_CODE).tolist()

    def reopen_forwarded(self) -> List[int]:
        """Reset FORWARD verdicts to PENDING; returns the reopened
        indices (multi-stage composites re-offer forwarded packets)."""
        mask = self.dispositions == FORWARD_CODE
        self.dispositions[mask] = PENDING_CODE
        return np.flatnonzero(mask).tolist()

    def disposition_counts(self) -> Tuple[int, int, int]:
        """``(forwarded, dropped, slow_path)`` in one counting pass."""
        counts = np.bincount(self.dispositions, minlength=4)
        return (
            int(counts[FORWARD_CODE]),
            int(counts[DROP_CODE]),
            int(counts[SLOW_PATH_CODE]),
        )

    def split_by_port(self) -> dict:
        """Post-shading's final step: frames grouped by output port.

        A stable argsort over the forwarded packets' ports groups the
        egress distribution in one vectorized pass; FIFO order within
        each port is preserved (the paper's intra-flow ordering
        guarantee rides on it).
        """
        forwarded = np.flatnonzero(self.dispositions == FORWARD_CODE)
        by_port: dict = {}
        if forwarded.size == 0:
            return by_port
        ports = self.out_ports[forwarded]
        order = np.argsort(ports, kind="stable")
        sorted_ports = ports[order]
        sorted_indices = forwarded[order]
        boundaries = np.flatnonzero(np.diff(sorted_ports)) + 1
        frames = self.frames
        start = 0
        for end in [*boundaries.tolist(), len(sorted_indices)]:
            port = int(sorted_ports[start])
            by_port[port] = [frames[i] for i in sorted_indices[start:end]]
            start = end
        return by_port

    def count(self, disposition: Disposition) -> int:
        """How many packets carry a given disposition."""
        return int(
            np.count_nonzero(self.dispositions == _CODES[disposition])
        )

    def max_frame_len(self, default: int = 64) -> int:
        """Largest frame in the chunk (``default`` when empty)."""
        return max(map(len, self.frames), default=default)
