"""Shared-memory metrics slabs: the multiprocess registry backend.

The sharded data plane (ROADMAP, PAPER.md Fig 8) runs one worker
process per core; every worker keeps the same instruments the
single-process router has, but a plain :class:`MetricsRegistry` is
process-local — after ``fork()`` each copy diverges silently (the exact
failure RL008 lints for).  This module gives each writer process its
own *slab*: a preallocated ``multiprocessing.shared_memory`` segment
holding every counter cell and histogram bucket as ``float64`` slots,
with numpy views on top so the hot-path cost stays one float add.

Concurrency model — single-writer, quiesced-read:

* exactly one process writes a given slab (its owner); writes are plain
  stores through preallocated views, no locks, no atomics;
* any process may read any slab at any time.  A read concurrent with a
  write can see a *torn* histogram (bucket counts mid-update); readers
  therefore go through :func:`read_slab`, which recomputes ``count`` as
  the sum of the copied bucket counts — the same repair
  :meth:`MetricsRegistry.snapshot` applies in-process — so derived
  views are always internally consistent, merely up to one in-flight
  sample stale;
* the directory grows append-only: an entry's fields and key are fully
  written *before* the ``dir_used`` header word is bumped, so readers
  never observe a half-initialised entry.

Slab layout (all little-endian, offsets in bytes)::

    [0,   128)  header: 16 x int64
                (magic, version, writer_id, dir_capacity, dir_used,
                 data_capacity, data_used, nbytes, 8 reserved)
    [128, 128 + dir_capacity*192)  directory, fixed 192-byte entries:
                int32 key_len | uint8 kind | uint8 nbounds | pad |
                int64 data_off | 176-byte key ("name|k=v|...")
    [...,  end) data region: float64 slots
                counter/gauge: 1 slot (value)
                histogram:     nbounds bounds, nbounds+1 counts, sum

Capacities default from the :mod:`repro.obs.names` catalog size, so
the slab always fits every canonical instrument plus label fan-out.
Exemplars stay process-local (they reference the writer's own
flight-recorder seqs, which are meaningless in another process).
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np
from multiprocessing import shared_memory

from repro.obs import names
from repro.obs.registry import (
    WALL_NS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LabelPairs,
    MetricsRegistry,
    _freeze_labels,
    get_registry,
)

MAGIC = 0x5053_4C41_4231  # "PSLAB1" as the low 6 bytes
VERSION = 1

KIND_COUNTER = 1
KIND_GAUGE = 2
KIND_HISTOGRAM = 3

#: Longest encoded ``name|k=v|...`` key a directory entry can hold.
MAX_KEY_BYTES = 176
#: Widest bucket list a slab histogram supports (catalog max is 12).
MAX_BOUNDS = 24

_HEADER_WORDS = 16
_HEADER_BYTES = _HEADER_WORDS * 8
(_H_MAGIC, _H_VERSION, _H_WRITER, _H_DIR_CAP, _H_DIR_USED,
 _H_DATA_CAP, _H_DATA_USED, _H_NBYTES, _H_TRACKER) = range(9)

_DIR_DTYPE = np.dtype([
    ("key_len", "<i4"),
    ("kind", "<u1"),
    ("nbounds", "<u1"),
    ("_pad", "<u2"),
    ("data_off", "<i8"),
    ("key", f"S{MAX_KEY_BYTES}"),
])
assert _DIR_DTYPE.itemsize == 192

#: Directory headroom per catalog name (label fan-out: per-queue,
#: per-site, per-stage series all share one catalog name).
_DIR_FANOUT = 8
#: Average data slots budgeted per directory entry (histograms are the
#: minority; 2*MAX_BOUNDS+2 is the worst single entry).
_DATA_PER_ENTRY = 16


def default_dir_capacity() -> int:
    return max(64, _DIR_FANOUT * len(names.METRIC_NAMES))


def default_data_capacity() -> int:
    return default_dir_capacity() * _DATA_PER_ENTRY


def slab_name(session: str, writer_id: int) -> str:
    """The canonical shared-memory segment name for one writer."""
    return f"{session}-w{writer_id}"


def _escape(part: str) -> str:
    return part.replace("\\", "\\\\").replace("|", "\\|").replace("=", "\\=")


def _split_unescaped(text: str, sep: str) -> List[str]:
    parts: List[str] = []
    current: List[str] = []
    it = iter(text)
    for ch in it:
        if ch == "\\":
            current.append(ch)
            current.append(next(it, ""))
        elif ch == sep:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def _unescape(part: str) -> str:
    out: List[str] = []
    it = iter(part)
    for ch in it:
        out.append(next(it, "") if ch == "\\" else ch)
    return "".join(out)


def encode_key(name: str, labels: LabelPairs) -> bytes:
    """``name|k=v|...`` with labels already sorted by ``_freeze_labels``."""
    text = "|".join(
        [_escape(name)]
        + [f"{_escape(k)}={_escape(v)}" for k, v in labels]
    )
    raw = text.encode("utf-8")
    if len(raw) > MAX_KEY_BYTES:
        raise ValueError(f"metric key too long for slab directory: {text!r}")
    return raw


def decode_key(raw: bytes) -> Tuple[str, LabelPairs]:
    parts = _split_unescaped(raw.decode("utf-8"), "|")
    name = _unescape(parts[0])
    labels = []
    for pair in parts[1:]:
        k, v = _split_unescaped(pair, "=")
        labels.append((_unescape(k), _unescape(v)))
    return name, tuple(labels)


def _tracker_token() -> int:
    """Identity of this process's resource-tracker daemon (0 if none).

    The token is the inode of the tracker's command pipe: fork *and*
    spawn children inherit the creator's pipe fd (same inode), while an
    unrelated process gets its own daemon and pipe.  Pids don't work —
    a spawn child shares the daemon without ever learning its pid.
    """
    try:
        import os

        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        return int(os.fstat(resource_tracker._resource_tracker._fd).st_ino)
    except Exception:
        return 0


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Detach a segment from this process's resource tracker.

    On Python < 3.13 the tracker registers shared memory on *attach*
    too, so a foreign reader (own tracker daemon) exiting would unlink
    the writer's live segment out from under everyone else.  Plane
    children share the creator's daemon and are skipped — see the
    tracker-token check in :meth:`MetricSlab.attach`.  The creating
    process keeps its registration and owns cleanup via
    :meth:`MetricSlab.unlink`.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


class SlabEntry(NamedTuple):
    key: bytes
    kind: int
    nbounds: int
    data: np.ndarray


class MetricSlab:
    """One writer process's metrics segment (see module docstring).

    Construct through :meth:`create` (the owning writer-side parent)
    or :meth:`attach` (readers and forked/spawned workers).
    """

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool) -> None:
        self._shm = shm
        self.owner = owner
        self.name = shm.name
        self._header = np.ndarray(
            (_HEADER_WORDS,), dtype="<i8", buffer=shm.buf
        )
        if int(self._header[_H_MAGIC]) != MAGIC:
            raise ValueError(f"segment {shm.name!r} is not a metrics slab")
        if int(self._header[_H_VERSION]) != VERSION:
            raise ValueError(
                f"slab {shm.name!r}: layout version "
                f"{int(self._header[_H_VERSION])} != {VERSION}"
            )
        dir_cap = int(self._header[_H_DIR_CAP])
        data_cap = int(self._header[_H_DATA_CAP])
        self._dir = np.ndarray(
            (dir_cap,), dtype=_DIR_DTYPE, buffer=shm.buf, offset=_HEADER_BYTES
        )
        self._data = np.ndarray(
            (data_cap,), dtype="<f8", buffer=shm.buf,
            offset=_HEADER_BYTES + dir_cap * _DIR_DTYPE.itemsize,
        )
        #: Writer-side lookup: encoded key -> directory index.
        self._index: Dict[bytes, int] = {}

    @classmethod
    def create(
        cls,
        name: str,
        writer_id: int = 0,
        dir_capacity: Optional[int] = None,
        data_capacity: Optional[int] = None,
    ) -> "MetricSlab":
        dir_cap = dir_capacity or default_dir_capacity()
        data_cap = data_capacity or default_data_capacity()
        nbytes = (
            _HEADER_BYTES + dir_cap * _DIR_DTYPE.itemsize + data_cap * 8
        )
        shm = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        header = np.ndarray((_HEADER_WORDS,), dtype="<i8", buffer=shm.buf)
        header[:] = 0
        header[_H_VERSION] = VERSION
        header[_H_WRITER] = writer_id
        header[_H_DIR_CAP] = dir_cap
        header[_H_DATA_CAP] = data_cap
        header[_H_NBYTES] = nbytes
        # Which tracker daemon holds the creator's registration: plane
        # children share it (their duplicate attach registration is a
        # set no-op and must NOT be unregistered — the daemon keeps one
        # entry per name), while a foreign reader has its own tracker
        # that must be untracked on attach (see _untrack).
        header[_H_TRACKER] = _tracker_token()
        # Magic goes last: an attacher racing create sees not-a-slab,
        # never a half-initialised header.
        header[_H_MAGIC] = MAGIC
        del header
        return cls(shm, owner=True)

    @classmethod
    def attach(cls, name: str) -> "MetricSlab":
        shm = shared_memory.SharedMemory(name=name)
        slab = cls(shm, owner=False)
        if _tracker_token() != int(slab._header[_H_TRACKER]):
            _untrack(shm)
        return slab

    @property
    def writer_id(self) -> int:
        return int(self._header[_H_WRITER])

    @property
    def nbytes(self) -> int:
        return int(self._header[_H_NBYTES])

    def __len__(self) -> int:
        return int(self._header[_H_DIR_USED])

    def allocate(self, kind: int, key: bytes, nslots: int) -> np.ndarray:
        """Writer-side: claim directory + data slots for one instrument.

        Idempotent per key (re-allocating returns the existing view).
        The entry becomes reader-visible only once fully written.
        """
        index = self._index.get(key)
        if index is None:
            index = self._find(key)
        if index is not None:
            entry = self._dir[index]
            off = int(entry["data_off"])
            count = self._entry_slots(int(entry["kind"]), int(entry["nbounds"]))
            self._index[key] = index
            return self._data[off:off + count]
        used = int(self._header[_H_DIR_USED])
        data_used = int(self._header[_H_DATA_USED])
        if used >= int(self._header[_H_DIR_CAP]):
            raise RuntimeError(
                f"slab {self.name!r}: directory full ({used} entries); "
                "raise dir_capacity"
            )
        if data_used + nslots > int(self._header[_H_DATA_CAP]):
            raise RuntimeError(
                f"slab {self.name!r}: data region full; raise data_capacity"
            )
        entry = self._dir[used]
        entry["key_len"] = len(key)
        entry["kind"] = kind
        entry["nbounds"] = max(0, (nslots - 2) // 2) if kind == KIND_HISTOGRAM else 0
        entry["data_off"] = data_used
        entry["key"] = key
        self._header[_H_DATA_USED] = data_used + nslots
        # Publish: a single aligned int64 store; readers iterating
        # [0, dir_used) never see the entry before this point.
        self._header[_H_DIR_USED] = used + 1
        self._index[key] = used
        return self._data[data_used:data_used + nslots]

    def _find(self, key: bytes) -> Optional[int]:
        for i in range(int(self._header[_H_DIR_USED])):
            entry = self._dir[i]
            if bytes(entry["key"])[: int(entry["key_len"])] == key:
                return i
        return None

    @staticmethod
    def _entry_slots(kind: int, nbounds: int) -> int:
        return 2 * nbounds + 2 if kind == KIND_HISTOGRAM else 1

    def entries(self) -> Iterator[SlabEntry]:
        """All published instruments (reader-safe at any time)."""
        for i in range(int(self._header[_H_DIR_USED])):
            entry = self._dir[i]
            kind = int(entry["kind"])
            nbounds = int(entry["nbounds"])
            off = int(entry["data_off"])
            count = self._entry_slots(kind, nbounds)
            yield SlabEntry(
                key=bytes(entry["key"])[: int(entry["key_len"])],
                kind=kind,
                nbounds=nbounds,
                data=self._data[off:off + count],
            )

    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives).

        Instrument views handed out by :meth:`allocate` may still be
        alive in a worker that is about to exit; ``mmap`` refuses to
        unmap under exported buffers, and the OS reclaims the mapping
        at process exit anyway, so ``BufferError`` is absorbed.
        """
        self._header = self._dir = self._data = None
        try:
            self._shm.close()
        except BufferError:
            pass

    def unlink(self) -> None:
        """Destroy the segment (owner only; idempotent)."""
        if not self.owner:
            return
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass


class ShmCounter(Counter):
    """A :class:`Counter` whose cell lives in the writer's slab."""

    def __init__(self, name: str, help: str = "", labels: LabelPairs = (),
                 cell: Optional[np.ndarray] = None) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self._cell = cell

    @property
    def value(self) -> float:
        return float(self._cell[0])

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self._cell[0] += amount


class ShmGauge(Gauge):
    """A :class:`Gauge` whose cell lives in the writer's slab."""

    def __init__(self, name: str, help: str = "", labels: LabelPairs = (),
                 cell: Optional[np.ndarray] = None) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self._cell = cell

    @property
    def value(self) -> float:
        return float(self._cell[0])

    def set(self, value: float) -> None:
        self._cell[0] = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._cell[0] += amount

    def dec(self, amount: float = 1.0) -> None:
        self._cell[0] -= amount


class ShmHistogram(Histogram):
    """A :class:`Histogram` over slab slots.

    ``counts``/``count``/``sum`` are read-side properties over the
    shared block, so every inherited derivation (``percentile``,
    ``mean``, ``cumulative_counts``) and every exporter ``isinstance``
    check works unchanged.  Exemplars stay process-local.
    """

    def __init__(self, name: str, bounds: List[float], help: str = "",
                 labels: LabelPairs = (),
                 block: Optional[np.ndarray] = None) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self.bounds = [float(b) for b in bounds]
        nb = len(self.bounds)
        self._counts_view = block[nb:2 * nb + 1]
        self._sum_view = block[2 * nb + 1:2 * nb + 2]
        self.exemplars = {}

    @property
    def counts(self) -> List[int]:
        return [int(c) for c in self._counts_view]

    @property
    def count(self) -> int:
        return int(self._counts_view.sum())

    @property
    def sum(self) -> float:
        return float(self._sum_view[0])

    def observe(self, value: float, exemplar: Optional[int] = None) -> None:
        index = bisect_left(self.bounds, value)
        self._counts_view[index] += 1
        self._sum_view[0] += value
        if exemplar:
            self.exemplars[index] = (exemplar, value)


class ShmMetricsRegistry(MetricsRegistry):
    """Writer-side registry backed by this process's slab.

    Drop-in behind the :func:`repro.obs.registry.set_registry` facade:
    every instrumented call-site in ``core``/``io_engine``/``hw``/
    ``faults`` creates and updates instruments exactly as before, but
    the cells land in shared memory where the aggregator can see them.
    Names are validated against the :mod:`repro.obs.names` catalog —
    the slot layout is derived from it, and an off-catalog name would
    silently vanish from merged dashboards.
    """

    def __init__(self, slab: MetricSlab) -> None:
        super().__init__()
        self.slab = slab
        self.gauge(
            names.OBS_SLAB_BYTES,
            help="bytes mapped for this writer's metrics slab",
        ).set(slab.nbytes)

    def _get_or_create(self, cls, name: str, help: str, labels: Dict[str, str],
                       **kwargs):
        if not name:
            raise ValueError("metric name must be non-empty")
        key = (name, _freeze_labels(labels))
        metric = self._metrics.get(key)
        if metric is not None:
            if not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric
        if name not in names.METRIC_NAMES:
            raise ValueError(
                f"metric {name!r} is not in the names catalog; slab slots "
                "are reserved for catalog names only (RL003)"
            )
        raw = encode_key(name, key[1])
        if cls is Counter:
            cell = self.slab.allocate(KIND_COUNTER, raw, 1)
            metric = ShmCounter(name, help=help, labels=key[1], cell=cell)
        elif cls is Gauge:
            cell = self.slab.allocate(KIND_GAUGE, raw, 1)
            metric = ShmGauge(name, help=help, labels=key[1], cell=cell)
        elif cls is Histogram:
            bounds = [float(b) for b in kwargs["buckets"]]
            if not 0 < len(bounds) <= MAX_BOUNDS:
                raise ValueError(
                    f"histogram {name}: {len(bounds)} buckets outside "
                    f"slab limit 1..{MAX_BOUNDS}"
                )
            block = self.slab.allocate(
                KIND_HISTOGRAM, raw, 2 * len(bounds) + 2
            )
            block[:len(bounds)] = bounds
            metric = ShmHistogram(
                name, bounds, help=help, labels=key[1], block=block
            )
        else:
            raise TypeError(f"unknown instrument class {cls!r}")
        self._metrics[key] = metric
        return metric


def read_slab(slab: MetricSlab) -> MetricsRegistry:
    """Decode one slab into a plain, consistent in-process registry.

    Torn-read repair as in :meth:`MetricsRegistry.snapshot`: bucket
    counts are copied first and ``count`` recomputed from the copy.
    """
    registry = MetricsRegistry()
    for entry in slab.entries():
        name, labels = decode_key(entry.key)
        labelkw = dict(labels)
        if entry.kind == KIND_COUNTER:
            registry.counter(name, **labelkw).value = float(entry.data[0])
        elif entry.kind == KIND_GAUGE:
            registry.gauge(name, **labelkw).value = float(entry.data[0])
        elif entry.kind == KIND_HISTOGRAM:
            nb = entry.nbounds
            bounds = [float(b) for b in entry.data[:nb]]
            counts = [int(c) for c in entry.data[nb:2 * nb + 1]]
            clone = registry.histogram(name, buckets=bounds, **labelkw)
            clone.counts = counts
            clone.count = sum(counts)
            clone.sum = float(entry.data[2 * nb + 1])
    return registry


def merge_into(target: MetricsRegistry, source: MetricsRegistry) -> MetricsRegistry:
    """Add ``source``'s instruments into ``target`` (sum semantics).

    Counters and histogram buckets add exactly (merge is associative
    and commutative — the property suite pins this); gauges also add,
    so an aggregate depth gauge is the total over writers and an
    aggregate boolean flag reads as "how many writers assert it".
    Histogram bounds must agree; a mismatch raises rather than merging
    incomparable series.
    """
    for metric in source.collect():
        labels = dict(metric.labels)
        if isinstance(metric, Histogram):
            clone = target.histogram(
                metric.name, buckets=list(metric.bounds),
                help=metric.help, **labels,
            )
            if list(clone.bounds) != list(metric.bounds):
                raise ValueError(
                    f"histogram {metric.name}: bucket bounds differ "
                    "between writers; cannot merge"
                )
            counts = list(metric.counts)
            for i, c in enumerate(counts):
                clone.counts[i] += c
            clone.count += sum(counts)
            clone.sum += metric.sum
            for index, exemplar in metric.exemplars.items():
                clone.exemplars.setdefault(index, exemplar)
        elif isinstance(metric, Gauge):
            target.gauge(metric.name, help=metric.help, **labels).inc(
                metric.value
            )
        elif isinstance(metric, Counter):
            target.counter(metric.name, help=metric.help, **labels).inc(
                metric.value
            )
    return target


def aggregate_slabs(
    slabs: Iterable[MetricSlab],
    into: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Merge per-writer slabs into one registry snapshot.

    The aggregation pass's own wall time lands in ``obs.agg_wall_ns``
    on the *calling* process's registry (self-telemetry, RL003-covered)
    — never in the merged output unless the caller aggregates into its
    own default registry on purpose.
    """
    start = time.perf_counter_ns()
    target = into if into is not None else MetricsRegistry()
    for slab in slabs:
        merge_into(target, read_slab(slab))
    get_registry().histogram(
        names.OBS_AGG_WALL_NS,
        buckets=WALL_NS_BUCKETS,
        help="wall time of one slab aggregation pass",
    ).observe(time.perf_counter_ns() - start)
    return target
