"""OpenFlow flow tables: exact-match hash table + priority wildcard table.

Exact-match lookup hashes the packed ten-field key (the hash the paper
offloads to the GPU) into bucket chains.  Wildcard lookup is a linear
scan in descending priority order, "as the reference implementation
does" — the O(n) behaviour that makes large wildcard tables expensive on
the CPU (Figure 11c) and embarrassingly parallel on the GPU.

Wildcard entries support per-field wildcard bits plus CIDR masks on the
IP fields ("bitmask is also available for IP addresses", Section 6.2.3).

Both tables also serve the columnar data path over packed keys
(:func:`repro.openflow.flowkey.pack_flow_keys`): :func:`fnv1a_hash_rows`
hashes every key at once, :meth:`WildcardTable.first_match` compiles
the rules into (mask, value) rows over the packed layout and scans them
for all keys together, and :meth:`ExactMatchTable.occupied` screens out
keys whose bucket is empty before any scalar probe.  ``fnv1a_hash``,
:meth:`WildcardTable.lookup` and :meth:`WildcardEntry.matches` stay as
the scalar oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.obs import Events, get_flightrec, get_registry, names
from repro.openflow.flowkey import KEY_BYTES, KEY_LAYOUT, FlowKey

_FNV_OFFSET = 0x811C9DC5
_FNV_PRIME = 0x01000193
#: Packed keys are padded to this many bytes and matched as uint64 words.
_WORD_BYTES = 32


def fnv1a_hash(data: bytes) -> int:
    """FNV-1a 32-bit — a simple, GPU-friendly key hash.

    Deliberately a pure streaming byte hash: it vectorises trivially
    (:func:`fnv1a_hash_rows` is the same hash over a key matrix), so
    offloaded results are bit-identical to CPU ones.
    """
    value = _FNV_OFFSET
    for byte in data:
        value = ((value ^ byte) * _FNV_PRIME) & 0xFFFFFFFF
    return value


def fnv1a_hash_rows(keys: np.ndarray) -> np.ndarray:
    """``fnv1a_hash`` of every row of an ``(n, width)`` uint8 matrix."""
    value = np.full(len(keys), _FNV_OFFSET, dtype=np.uint32)
    prime = np.uint32(_FNV_PRIME)
    for column in keys.T:
        value ^= column
        value *= prime
    return value


@dataclass
class FlowStats:
    """Per-entry packet/byte counters OpenFlow exposes to the controller."""

    packets: int = 0
    bytes: int = 0
    #: Wall-clock bookkeeping for flow expiry (0.8.9 idle/hard timeouts).
    installed_ns: float = 0.0
    last_used_ns: float = 0.0

    def count(self, frame_len: int, now_ns: float = 0.0) -> None:
        self.packets += 1
        self.bytes += frame_len
        if now_ns:
            self.last_used_ns = now_ns


class ExactMatchTable:
    """Bucketed hash table over exact ten-field keys.

    Bucket-chained rather than a plain dict so the lookup exposes its
    probe count — the memory-access number the cost models charge.

    Optionally bounded: ``max_entries`` caps the table (FIFO eviction of
    the oldest flow past it) and ``per_source_cap`` limits the entries
    any one ``nw_src`` may hold (the insertion guard that stops a
    spoofed-source flood from owning the whole table — each forged
    source is unique, so the guard bites the flood, not real traffic).
    Zero means unbounded; the defaults preserve historic behaviour.
    Every eviction and rejected insert is counted, metered
    (``overload.flow_*``), and noted as a ``FLOW_EVICT`` event.
    """

    def __init__(
        self,
        num_buckets: int = 1 << 16,
        max_entries: int = 0,
        per_source_cap: int = 0,
    ) -> None:
        if num_buckets <= 0:
            raise ValueError("num_buckets must be positive")
        if max_entries < 0 or per_source_cap < 0:
            raise ValueError("bounds must be non-negative (0 = unbounded)")
        self.num_buckets = num_buckets
        self.max_entries = max_entries
        self.per_source_cap = per_source_cap
        self._buckets: List[List[Tuple[FlowKey, object, FlowStats]]] = [
            [] for _ in range(num_buckets)
        ]
        self._count = 0
        #: Entries per bucket: the columnar path probes only keys whose
        #: bucket holds any.
        self._occupancy = np.zeros(num_buckets, dtype=np.int32)
        #: Insertion order for FIFO eviction (slots may go stale when a
        #: flow is removed explicitly; eviction skips those).
        self._fifo: Deque[FlowKey] = deque()
        self._per_source: Dict[int, int] = {}
        self.evictions = 0
        self.rejected_inserts = 0
        self._recorder = get_flightrec()
        registry = get_registry()
        self._m_evictions = registry.counter(
            names.OVERLOAD_FLOW_EVICTIONS,
            help="exact-match flows FIFO-evicted at the table bound",
        )
        self._m_rejected = registry.counter(
            names.OVERLOAD_FLOW_REJECTED_INSERTS,
            help="exact-match inserts refused by the per-source guard",
        )

    def __len__(self) -> int:
        return self._count

    def _bucket_of(self, key: FlowKey, key_hash: Optional[int] = None) -> int:
        if key_hash is None:
            key_hash = fnv1a_hash(key.pack())
        return key_hash % self.num_buckets

    def add(self, key: FlowKey, actions: object) -> bool:
        """Insert or replace the entry for an exact key.

        Returns True if the key is in the table afterwards; False when
        the per-source guard refused a new insert.  At ``max_entries``
        the oldest flow is evicted to make room (replacements of an
        existing key never evict).
        """
        bucket_index = self._bucket_of(key)
        bucket = self._buckets[bucket_index]
        for index, (existing, _, stats) in enumerate(bucket):
            if existing == key:
                bucket[index] = (key, actions, stats)
                return True
        if (
            self.per_source_cap
            and self._per_source.get(key.nw_src, 0) >= self.per_source_cap
        ):
            self.rejected_inserts += 1
            self._m_rejected.inc()
            self._recorder.note(Events.FLOW_EVICT, "reject", 1)
            return False
        if self.max_entries and self._count >= self.max_entries:
            self._evict_oldest()
        bucket.append((key, actions, FlowStats()))
        self._count += 1
        self._occupancy[bucket_index] += 1
        self._fifo.append(key)
        self._per_source[key.nw_src] = (
            self._per_source.get(key.nw_src, 0) + 1
        )
        return True

    def _evict_oldest(self) -> None:
        """Drop the oldest live flow (skipping stale FIFO slots)."""
        while self._fifo:
            victim = self._fifo.popleft()
            if self._unlink(victim):
                self.evictions += 1
                self._m_evictions.inc()
                self._recorder.note(Events.FLOW_EVICT, "evict", 1)
                return

    def _unlink(self, key: FlowKey) -> bool:
        """Remove a key from its bucket and the per-source ledger."""
        bucket_index = self._bucket_of(key)
        bucket = self._buckets[bucket_index]
        for index, (existing, _, _) in enumerate(bucket):
            if existing == key:
                del bucket[index]
                self._count -= 1
                self._occupancy[bucket_index] -= 1
                held = self._per_source.get(key.nw_src, 0) - 1
                if held > 0:
                    self._per_source[key.nw_src] = held
                else:
                    self._per_source.pop(key.nw_src, None)
                return True
        return False

    def remove(self, key: FlowKey) -> bool:
        """Delete an entry; True if it existed."""
        return self._unlink(key)

    def occupied(self, key_hashes: np.ndarray) -> np.ndarray:
        """Mask of hashes whose bucket holds at least one entry."""
        return self._occupancy[key_hashes % np.uint32(self.num_buckets)] > 0

    def lookup(
        self, key: FlowKey, key_hash: Optional[int] = None, frame_len: int = 0
    ) -> Tuple[Optional[object], int]:
        """Find the actions for a key; returns (actions or None, probes).

        ``key_hash`` may be supplied by the GPU hash kernel (the paper's
        offload); otherwise it is computed here (the CPU-only mode).
        """
        bucket = self._buckets[self._bucket_of(key, key_hash)]
        probes = 1  # the bucket head access
        for existing, actions, stats in bucket:
            if existing == key:
                if frame_len:
                    stats.count(frame_len)
                return actions, probes
            probes += 1
        return None, probes


@dataclass
class WildcardEntry:
    """One wildcard rule: per-field match-or-wildcard plus IP CIDR masks.

    ``fields`` maps field name -> required value; any field absent is
    wildcarded.  ``nw_src_mask``/``nw_dst_mask`` give CIDR prefix lengths
    for the IP fields (0 = fully wildcarded, 32 = exact).
    """

    priority: int
    fields: Dict[str, int]
    actions: object
    nw_src_mask: int = 0
    nw_dst_mask: int = 0
    stats: FlowStats = field(default_factory=FlowStats)

    def __post_init__(self) -> None:
        unknown = set(self.fields) - set(FlowKey.FIELD_NAMES)
        if unknown:
            raise ValueError(f"unknown flow-key fields: {sorted(unknown)}")
        for mask in (self.nw_src_mask, self.nw_dst_mask):
            if not 0 <= mask <= 32:
                raise ValueError(f"CIDR mask {mask} out of range")

    def matches(self, key: FlowKey) -> bool:
        """Does this rule match the key?  (The GPU kernel's inner loop.)"""
        for name, required in self.fields.items():
            if name == "nw_src" and self.nw_src_mask:
                shift = 32 - self.nw_src_mask
                if (key.nw_src >> shift) != (required >> shift):
                    return False
            elif name == "nw_dst" and self.nw_dst_mask:
                shift = 32 - self.nw_dst_mask
                if (key.nw_dst >> shift) != (required >> shift):
                    return False
            elif getattr(key, name) != required:
                return False
        return True

    def compile(self) -> Optional[Tuple[bytes, bytes]]:
        """``(mask, value)`` bytes over the padded packed key, or None.

        A key matches exactly when ``key & mask == value`` — the rule as
        a ternary match over header bytes.  A present IP field with CIDR
        length 0 compares all 32 bits, as :meth:`matches` does.  None
        when a required value does not fit its field, so no key can
        match.
        """
        mask = bytearray(_WORD_BYTES)
        value = bytearray(_WORD_BYTES)
        cidr = {"nw_src": self.nw_src_mask, "nw_dst": self.nw_dst_mask}
        for name, required in self.fields.items():
            start, width = KEY_LAYOUT[name]
            bits = 8 * width
            if not 0 <= required < 1 << bits:
                return None
            kept = cidr.get(name) or bits
            field_mask = ((1 << kept) - 1) << (bits - kept)
            mask[start:start + width] = field_mask.to_bytes(width, "big")
            value[start:start + width] = (required & field_mask).to_bytes(
                width, "big"
            )
        return bytes(mask), bytes(value)


class WildcardTable:
    """Priority-ordered wildcard rules with linear-search lookup.

    Entries are not edited once added: the compiled match table is
    rebuilt only when :meth:`add` changes the rule list.
    """

    def __init__(self) -> None:
        self._entries: List[WildcardEntry] = []
        self._compiled: Optional[Tuple[np.ndarray, ...]] = None

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, entry: WildcardEntry) -> None:
        """Insert keeping descending priority (stable for equal priority)."""
        index = 0
        while (
            index < len(self._entries)
            and self._entries[index].priority >= entry.priority
        ):
            index += 1
        self._entries.insert(index, entry)
        self._compiled = None

    def _match_table(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(entry index, key words, masks, values)`` of every matchable
        rule in priority order, compiled on first use after a change.

        Only the uint64 key words some rule constrains are kept.
        """
        if self._compiled is None:
            rows, masks, values = [], [], []
            for index, entry in enumerate(self._entries):
                compiled = entry.compile()
                if compiled is not None:
                    rows.append(index)
                    masks.append(compiled[0])
                    values.append(compiled[1])
            shape = (len(rows), _WORD_BYTES // 8)
            masks = np.frombuffer(b"".join(masks), np.uint64).reshape(shape)
            values = np.frombuffer(b"".join(values), np.uint64).reshape(shape)
            used = np.flatnonzero(masks.any(axis=0))
            self._compiled = (
                np.array(rows, dtype=np.int32), used,
                masks[:, used], values[:, used],
            )
        return self._compiled

    def first_match(self, keys: np.ndarray) -> np.ndarray:
        """Index of the first (highest-priority) rule matching each packed
        key, or -1: :meth:`lookup` for a ``(n, 31)`` key matrix at once."""
        result = np.full(len(keys), -1, dtype=np.int32)
        rows, used, masks, values = self._match_table()
        if not len(keys) or not len(rows):
            return result
        padded = np.zeros((len(keys), _WORD_BYTES), dtype=np.uint8)
        padded[:, :KEY_BYTES] = keys
        words = padded.view(np.uint64)[:, None, used]
        hits = ((words & masks) == values).all(axis=2)
        found = hits.any(axis=1)
        result[found] = rows[hits[found].argmax(axis=1)]
        return result

    def lookup(self, key: FlowKey, frame_len: int = 0) -> Tuple[Optional[WildcardEntry], int]:
        """Highest-priority matching rule; returns (entry or None, compared).

        ``compared`` is the number of entries examined — the linear-search
        cost that grows with table size in Figure 11(c).  The scan cannot
        stop early on priority alone; it stops at the first match because
        entries are kept in priority order.
        """
        for index, entry in enumerate(self._entries):
            if entry.matches(key):
                if frame_len:
                    entry.stats.count(frame_len)
                return entry, index + 1
        return None, len(self._entries)

    def entries(self) -> List[WildcardEntry]:
        return list(self._entries)
