"""The flight recorder: an always-on ring buffer of structured events.

Aggregate metrics answer "how much"; they cannot answer "what happened
just before the breaker opened".  The flight recorder fills that gap the
way an aircraft FDR does: every instrumented layer notes compact
structured events — chunk verdict summaries, fault firings, breaker
transitions, queue-depth samples, backpressure sheds, livelock wakeups —
into a fixed-size ring that the hot path writes with near-zero overhead
(one attribute check, one tuple build, one list store).  When something
goes wrong the faults layer triggers a **post-mortem dump**: the ring's
retained window plus a snapshot of the metrics registry, as JSONL, so
the last N events before a breaker-open/watchdog stall are preserved as
an artifact even though the process keeps running.

Design rules:

* **bounded** — the ring is a preallocated list; a week-long run retains
  exactly ``capacity`` events and evicts the oldest, never growing;
* **compact** — an event is a plain tuple ``(seq, kind, label, data)``;
  field names are attached only on the read side (:data:`KIND_FIELDS`),
  so recording does no dict building;
* **attributable** — ``note()`` returns the event's monotonically
  increasing ``seq``; ``Tracer.measure`` stores these ids as wall-time
  histogram exemplars, linking "this chunk was slow" to "these events
  were in flight at the time";
* **reconcilable** — a dump's first line snapshots the registry, so a
  replay can check that the recorded events and the metric counters tell
  the same story (``repro flightrec replay`` does exactly that).

The process-wide default recorder follows the registry/tracer lifecycle:
:func:`get_flightrec` / :func:`set_flightrec` / :func:`reset_flightrec`.
Recording is deliberately *not* named ``record`` — that verb belongs to
the span tracer (and reprolint RL003 checks its stage names).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, IO, Iterable, Iterator, List, Optional, Tuple, Union

from repro.obs import names
from repro.obs.registry import MetricsRegistry, get_registry


class Events:
    """Canonical event kinds (one per instrumented boundary)."""

    #: One chunk finished the workflow; data = (packets, forwarded,
    #: dropped, slow_path, ctx_writer, ctx_seq) — the trailing pair is
    #: the chunk's trace context: the writer and RX-event seq it was
    #: born from (``Chunk.trace_ctx``).
    CHUNK = "chunk"
    #: A chunk was shed after bounded backpressure gave up; data =
    #: (packets_shed,).
    SHED = "shed"
    #: A GPU launch failed and was retried; label = device, data =
    #: (attempt,).
    GPU_RETRY = "gpu_retry"
    #: A chunk was shaded on the master's CPU because the GPU path
    #: failed; data = (packets,).
    GPU_FALLBACK = "gpu_fallback"
    #: An injected fault fired; label = fault site.
    FAULT = "fault"
    #: A circuit breaker changed state; label = device, data absent —
    #: the new state rides in ``label`` as ``<device>:<state>``.
    BREAKER = "breaker"
    #: The watchdog declared a stall (no progress across its threshold).
    WATCHDOG = "watchdog"
    #: Master input queue depth after a put/get; label = "master",
    #: data = (depth, ctx_writer, ctx_seq) — the enqueued chunk's trace
    #: context crosses the queue boundary with it.
    QUEUE = "queue"
    #: A worker fetched a chunk through the I/O engine; label =
    #: "<nic>:<queue>", data = (packets,).
    RX = "rx"
    #: Livelock controller transition; label = "wakeup" or "drain".
    LIVELOCK = "livelock"
    #: A post-mortem dump was written; label = the trigger reason.
    DUMP = "dump"
    #: The overload controller shed packets at the RX ring before they
    #: entered the router; label = traffic class ("attack" / "new_flow" /
    #: "established"), data = (packets,).
    RX_SHED = "rx_shed"
    #: The overload controller resized the chunk capacity; label =
    #: "grow" or "shrink", data = (new_capacity,).
    CHUNK_RESIZE = "chunk_resize"
    #: The bounded flow table evicted or refused entries; label =
    #: "evict" or "reject", data = (count,).
    FLOW_EVICT = "flow_evict"


#: Read-side field names per kind (the write side stores bare tuples).
KIND_FIELDS: Dict[str, Tuple[str, ...]] = {
    Events.CHUNK: ("packets", "forwarded", "dropped", "slow_path",
                   "ctx_writer", "ctx_seq"),
    Events.SHED: ("packets",),
    Events.GPU_RETRY: ("attempt",),
    Events.GPU_FALLBACK: ("packets",),
    Events.FAULT: (),
    Events.BREAKER: (),
    Events.WATCHDOG: (),
    Events.QUEUE: ("depth", "ctx_writer", "ctx_seq"),
    Events.RX: ("packets",),
    Events.LIVELOCK: (),
    Events.DUMP: (),
    Events.RX_SHED: ("packets",),
    Events.CHUNK_RESIZE: ("capacity",),
    Events.FLOW_EVICT: ("count",),
}

#: Default ring capacity: generous enough that a full chaos scenario
#: (thousands of events) is retained end to end, small enough that the
#: preallocated list is trivial (~0.5 MB of pointers).
DEFAULT_CAPACITY = 65536


class FlightEvent:
    """One recorded event, hydrated with field names (read side only).

    ``epoch_ns`` is the gen-3 merge stamp: ``perf_counter_ns()`` at
    ``note()`` time (CLOCK_MONOTONIC on Linux — system-wide, so stamps
    from different worker processes are directly comparable).  Events
    constructed without one (old dumps, hand-built fixtures) serialize
    without a ``t_ns`` field, keeping gen-2 dumps byte-compatible.
    """

    __slots__ = ("seq", "kind", "label", "data", "epoch_ns")

    def __init__(self, seq: int, kind: str, label: str,
                 data: Tuple[float, ...],
                 epoch_ns: Optional[int] = None) -> None:
        self.seq = seq
        self.kind = kind
        self.label = label
        self.data = data
        self.epoch_ns = epoch_ns

    @property
    def fields(self) -> Dict[str, float]:
        return dict(zip(KIND_FIELDS.get(self.kind, ()), self.data))

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "type": "event", "seq": self.seq, "kind": self.kind,
        }
        if self.label:
            record["label"] = self.label
        if self.epoch_ns is not None:
            record["t_ns"] = self.epoch_ns
        record.update(self.fields)
        # Extra positional data beyond the schema keeps raw indices so
        # nothing is silently lost.
        schema = KIND_FIELDS.get(self.kind, ())
        for index in range(len(schema), len(self.data)):
            record[f"data{index}"] = self.data[index]
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlightEvent({self.to_dict()!r})"


class FlightRecorder:
    """The fixed-size event ring plus its dump machinery.

    ``note()`` is the hot path: with recording disabled it is a single
    attribute check; enabled, it is one tuple build and one list store
    (plus one counter add for the ``flightrec.events`` metric).
    """

    def __init__(self, enabled: bool = True,
                 capacity: int = DEFAULT_CAPACITY,
                 writer_id: int = 0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if writer_id < 0:
            raise ValueError("writer_id must be >= 0")
        self.enabled = enabled
        self.capacity = capacity
        #: Which worker process owns this ring (0 = the single-process
        #: default).  Stamped into dumps so the k-way merge can order
        #: and attribute events across workers.
        self.writer_id = writer_id
        self._ring: List[Optional[Tuple]] = [None] * capacity
        self._seq = 0
        #: Post-mortem arming: dumps go here when set (None = disarmed).
        self.postmortem_dir: Optional[Path] = None
        #: Remaining automatic dumps (a wedged breaker flapping all run
        #: must not write thousands of files).
        self.postmortem_budget = 0
        self.dumps_written: List[Path] = []
        registry = get_registry()
        self._m_events = registry.counter(
            names.FLIGHTREC_EVENTS, help="events written to the flight ring"
        )
        self._m_dumps = registry.counter(
            names.FLIGHTREC_DUMPS, help="flight-recorder dumps written"
        )

    # -- recording ------------------------------------------------------

    def note(self, kind: str, label: str = "", *data: float) -> int:
        """Write one event; returns its id (0 when recording is off).

        Each event carries a ``perf_counter_ns`` epoch stamp — the
        cross-process merge key (see :func:`merge_dumps`).  The stamp
        is one clock read on top of the tuple build; the obs layer is
        exempt from the sim-clock determinism rule (RL001 scope).
        """
        if not self.enabled:
            return 0
        seq = self._seq = self._seq + 1
        self._ring[seq % self.capacity] = (
            seq, kind, label, data, time.perf_counter_ns()
        )
        self._m_events.inc()
        return seq

    @property
    def seq(self) -> int:
        """Id of the most recent event (0 when nothing recorded)."""
        return self._seq

    @property
    def retained(self) -> int:
        return min(self._seq, self.capacity)

    @property
    def evicted(self) -> int:
        """Events pushed out of the ring by newer ones."""
        return max(0, self._seq - self.capacity)

    def reset(self) -> None:
        self._ring = [None] * self.capacity
        self._seq = 0

    # -- reading --------------------------------------------------------

    def events(self) -> List[FlightEvent]:
        """Retained events, oldest first."""
        return list(self.iter_events())

    def iter_events(self) -> Iterator[FlightEvent]:
        start = max(1, self._seq - self.capacity + 1)
        for seq in range(start, self._seq + 1):
            raw = self._ring[seq % self.capacity]
            if raw is not None and raw[0] == seq:
                yield FlightEvent(*raw)

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.iter_events():
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    # -- dumping --------------------------------------------------------

    def to_jsonl(self, registry: Optional[MetricsRegistry] = None,
                 reason: str = "manual") -> str:
        """The dump format: one meta line, then one line per event.

        The meta line snapshots the registry at dump time so a replay
        can reconcile events against counters without the live process.
        The snapshot goes through :meth:`MetricsRegistry.snapshot`, so
        a dump taken while another thread observes is never torn, and
        the ring's eviction count is published as the
        ``obs.ring_dropped_slots`` gauge before the snapshot is taken.
        """
        from repro.obs.exporters import _metric_to_dict

        registry = registry if registry is not None else get_registry()
        registry.gauge(
            names.OBS_RING_DROPPED_SLOTS,
            help="flight-ring events evicted by newer ones at dump time",
        ).set(self.evicted)
        snapshot = registry.snapshot()
        meta = {
            "type": "flightrec_meta",
            "reason": reason,
            "writer": self.writer_id,
            "seq": self._seq,
            "retained": self.retained,
            "evicted": self.evicted,
            "capacity": self.capacity,
            "metrics": [_metric_to_dict(m) for m in snapshot.collect()],
        }
        lines = [json.dumps(meta, sort_keys=True)]
        lines.extend(
            json.dumps(event.to_dict(), sort_keys=True)
            for event in self.iter_events()
        )
        return "\n".join(lines) + "\n"

    def dump(self, target: Union[str, Path, IO[str]],
             registry: Optional[MetricsRegistry] = None,
             reason: str = "manual") -> None:
        """Write the JSONL dump to a path or open text stream."""
        text = self.to_jsonl(registry, reason=reason)
        if hasattr(target, "write"):
            target.write(text)
        else:
            Path(target).write_text(text)

    def arm_postmortem(self, directory: Union[str, Path],
                       budget: int = 4) -> None:
        """Enable automatic dumps into ``directory`` (created if needed).

        ``budget`` bounds how many automatic dumps one process writes;
        manual :meth:`dump` calls are never budgeted.
        """
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        self.postmortem_dir = path
        self.postmortem_budget = budget

    def postmortem(self, reason: str,
                   registry: Optional[MetricsRegistry] = None
                   ) -> Optional[Path]:
        """Fault-layer trigger: dump the ring if armed and in budget.

        Always notes a DUMP event (so the trigger itself is on the
        record even when disarmed); returns the written path or None.
        The filename carries the trigger reason and the event id — not a
        timestamp, so chaos replays stay deterministic.  A nonzero
        ``writer_id`` is qualified into the name (``flightrec-w3-...``)
        so per-worker post-mortems landing in a shared directory never
        collide; writer 0 keeps the historical unqualified form.
        """
        self.note(Events.DUMP, reason)
        if self.postmortem_dir is None or self.postmortem_budget <= 0:
            return None
        self.postmortem_budget -= 1
        stem = (f"flightrec-w{self.writer_id}-{reason}-{self._seq}"
                if self.writer_id else f"flightrec-{reason}-{self._seq}")
        path = self.postmortem_dir / f"{stem}.jsonl"
        self.dump(path, registry, reason=reason)
        self._m_dumps.inc()
        self.dumps_written.append(path)
        return path


#: The process-wide default recorder.
_default_flightrec = FlightRecorder()


def get_flightrec() -> FlightRecorder:
    """The current default recorder (what instrumented code notes to)."""
    return _default_flightrec


def set_flightrec(recorder: FlightRecorder) -> FlightRecorder:
    """Install a recorder as the default; returns the previous one."""
    global _default_flightrec
    previous = _default_flightrec
    _default_flightrec = recorder
    return previous


def reset_flightrec() -> FlightRecorder:
    """Replace the default recorder with a fresh enabled one (returned).

    Like ``reset_registry``: objects built before the reset keep their
    old handles; instrumented constructors re-resolve.
    """
    recorder = FlightRecorder()
    set_flightrec(recorder)
    return recorder


# ----------------------------------------------------------------------
# Dump loading and replay (the read side of the artifact).
# ----------------------------------------------------------------------


class DumpReport:
    """A parsed dump plus the reconciliation verdicts replay prints."""

    def __init__(self, meta: Dict[str, object],
                 events: List[Dict[str, object]]) -> None:
        self.meta = meta
        self.events = events

    # -- views over the snapshot ---------------------------------------

    def metric_total(self, name: str) -> float:
        """Sum of a snapshot metric across label sets."""
        total = 0.0
        for metric in self.meta.get("metrics", []):
            if metric.get("name") == name and "value" in metric:
                total += metric["value"]
        return total

    def fault_counts(self) -> Dict[str, int]:
        """Snapshot ``faults.injected`` counters, keyed by site."""
        counts: Dict[str, int] = {}
        for metric in self.meta.get("metrics", []):
            if metric.get("name") == names.FAULTS_INJECTED:
                site = dict(metric.get("labels", {})).get("site", "")
                counts[site] = counts.get(site, 0) + int(metric["value"])
        return counts

    def event_counts(self, kind: str, by_label: bool = False
                     ) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            if event.get("kind") != kind:
                continue
            key = event.get("label", "") if by_label else kind
            counts[key] = counts.get(key, 0) + 1
        return counts

    def verdict_totals(self, writer: Optional[int] = None) -> Dict[str, int]:
        """Summed chunk verdict fields across every CHUNK event.

        ``writer`` narrows the sum to one worker's events in a merged
        dump (events without a ``writer`` field count as writer 0).
        """
        totals = {"packets": 0, "forwarded": 0, "dropped": 0, "slow_path": 0}
        for event in self.events:
            if event.get("kind") != Events.CHUNK:
                continue
            if writer is not None and int(event.get("writer", 0)) != writer:
                continue
            for key in totals:
                totals[key] += int(event.get(key, 0))
        return totals

    @property
    def writers(self) -> List[Dict[str, object]]:
        """Per-writer meta records (empty for a single-process dump)."""
        return list(self.meta.get("writers", []))

    # -- reconciliation -------------------------------------------------

    def reconcile(self) -> List[Tuple[str, float, float, bool]]:
        """(check, events, metrics, ok) rows for every closable identity.

        Only meaningful when the dump evicted nothing — an aged-out ring
        undercounts events by design, so replay reports eviction instead
        of failing the checks.
        """
        rows: List[Tuple[str, float, float, bool]] = []
        fired = self.event_counts(Events.FAULT, by_label=True)
        snapshots = self.fault_counts()
        # Union of sites: a fault event with no counter (or the reverse)
        # is itself a mismatch, not a site to skip.
        for site in sorted(set(fired) | set(snapshots)):
            recorded = fired.get(site, 0)
            snapshot = snapshots.get(site, 0)
            rows.append((f"fault {site}", recorded, snapshot,
                         recorded == snapshot))
        verdicts = self.verdict_totals()
        for check, metric in (
            ("forwarded", names.ROUTER_FORWARDED_PACKETS),
            ("dropped", names.ROUTER_DROPPED_PACKETS),
            ("slow_path", names.ROUTER_SLOW_PATH_PACKETS),
        ):
            snapshot = self.metric_total(metric)
            rows.append((f"verdict {check}", verdicts[check], snapshot,
                         verdicts[check] == snapshot))
        shed = sum(
            int(e.get("packets", 0)) for e in self.events
            if e.get("kind") == Events.SHED
        )
        rows.append(("backpressure shed", shed,
                     self.metric_total(names.ROUTER_BACKPRESSURE_DROPS),
                     shed == self.metric_total(
                         names.ROUTER_BACKPRESSURE_DROPS)))
        # Overload-control identities: RX sheds and flow-table evictions
        # recorded as events must match their attribution counters.
        rx_shed = sum(
            int(e.get("packets", 0)) for e in self.events
            if e.get("kind") == Events.RX_SHED
        )
        rows.append(("rx shed", rx_shed,
                     self.metric_total(names.OVERLOAD_SHED_PACKETS),
                     rx_shed == self.metric_total(
                         names.OVERLOAD_SHED_PACKETS)))
        evicted = sum(
            int(e.get("count", 0)) for e in self.events
            if e.get("kind") == Events.FLOW_EVICT
            and e.get("label") == "evict"
        )
        rows.append(("flow evictions", evicted,
                     self.metric_total(names.OVERLOAD_FLOW_EVICTIONS),
                     evicted == self.metric_total(
                         names.OVERLOAD_FLOW_EVICTIONS)))
        rows.extend(self._reconcile_writers())
        return rows

    @staticmethod
    def _writer_total(wmeta: Dict[str, object], name: str) -> float:
        total = 0.0
        for metric in wmeta.get("metrics", []):
            if metric.get("name") == name and "value" in metric:
                total += metric["value"]
        return total

    def _reconcile_writers(self) -> List[Tuple[str, float, float, bool]]:
        """Merged-view rows: per-worker identities, then the conservation
        cross-check the sharded data plane hinges on — each worker's own
        counters must match its share of the merged event stream, and
        the per-worker sums must equal the aggregate counters."""
        writers = self.writers
        if not writers:
            return []
        rows: List[Tuple[str, float, float, bool]] = []
        verdict_metrics = (
            ("forwarded", names.ROUTER_FORWARDED_PACKETS),
            ("dropped", names.ROUTER_DROPPED_PACKETS),
            ("slow_path", names.ROUTER_SLOW_PATH_PACKETS),
        )
        for wmeta in writers:
            wid = int(wmeta.get("writer", 0))
            verdicts = self.verdict_totals(writer=wid)
            for check, metric in verdict_metrics:
                snapshot = self._writer_total(wmeta, metric)
                rows.append((f"w{wid} {check}", verdicts[check], snapshot,
                             verdicts[check] == snapshot))
        for check, metric in (
            ("received", names.ROUTER_RECEIVED_PACKETS),
        ) + verdict_metrics:
            per_worker = sum(self._writer_total(w, metric) for w in writers)
            aggregate = self.metric_total(metric)
            rows.append((f"sum {check}", per_worker, aggregate,
                         per_worker == aggregate))
        return rows

    @property
    def reconciled(self) -> bool:
        if int(self.meta.get("evicted", 0)):
            return False
        return all(ok for _, _, _, ok in self.reconcile())


def load_dump(path: Union[str, Path]) -> DumpReport:
    """Parse a JSONL dump (single-writer or merged) into a report."""
    meta: Dict[str, object] = {}
    events: List[Dict[str, object]] = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("type") in ("flightrec_meta",
                                      "flightrec_merged_meta"):
                meta = record
            elif record.get("type") == "event":
                events.append(record)
    if not meta:
        raise ValueError(f"{path}: no flightrec_meta line — not a dump")
    return DumpReport(meta, events)


# ----------------------------------------------------------------------
# Gen-3: the deterministic k-way merge of per-worker dumps.
# ----------------------------------------------------------------------


def _metric_dict_key(metric: Dict[str, object]) -> Tuple:
    return (
        str(metric.get("name", "")),
        tuple(sorted((metric.get("labels") or {}).items())),
    )


def _merge_metric_dicts(
    metric_lists: Iterable[List[Dict[str, object]]],
) -> List[Dict[str, object]]:
    """Sum per-writer snapshot metrics into one aggregate list.

    Same semantics as :func:`repro.obs.shm.merge_into`, but over the
    serialized exporter dicts a dump carries: counters/gauges/histogram
    buckets add; histogram bounds must agree.  Exemplars are dropped —
    their seqs reference per-writer rings and would be ambiguous in an
    aggregate.
    """
    merged: Dict[Tuple, Dict[str, object]] = {}
    for metrics in metric_lists:
        for metric in metrics:
            key = _metric_dict_key(metric)
            current = merged.get(key)
            if current is None:
                current = json.loads(json.dumps(metric))
                current.pop("exemplars", None)
                merged[key] = current
                continue
            if "value" in metric:
                current["value"] = current.get("value", 0) + metric["value"]
            else:
                if current.get("buckets") != metric.get("buckets"):
                    raise ValueError(
                        f"histogram {metric.get('name')}: bucket bounds "
                        "differ between writers; cannot merge"
                    )
                current["counts"] = [
                    a + b for a, b in zip(current["counts"], metric["counts"])
                ]
                current["count"] = current.get("count", 0) + metric.get("count", 0)
                current["sum"] = current.get("sum", 0.0) + metric.get("sum", 0.0)
    return [merged[key] for key in sorted(merged)]


def merge_dumps(paths: Iterable[Union[str, Path]]) -> str:
    """Merge per-worker dumps into one causally-ordered JSONL stream.

    The merge key is ``(t_ns, writer, seq)``: epoch stamps are
    ``perf_counter_ns`` (CLOCK_MONOTONIC — system-wide on Linux, so
    stamps from sibling worker processes share one timeline), with
    ``(writer, seq)`` breaking exact ties deterministically.  Events
    from gen-2 dumps without stamps sort first, still ordered by their
    own seqs.  Each merged event gains a ``writer`` field; the meta
    line aggregates every writer's metric snapshot (the view the
    extended reconciler checks per-worker sums against) and embeds the
    per-writer metas verbatim.
    """
    reports: List[DumpReport] = []
    for path in paths:
        reports.append(load_dump(path))
    # Writer order (and with it the whole merged stream) is independent
    # of the order the dump files were passed in.
    reports.sort(key=lambda r: int(r.meta.get("writer", 0)))
    merged_events: List[Tuple[Tuple, Dict[str, object]]] = []
    for report in reports:
        wid = int(report.meta.get("writer", 0))
        for event in report.events:
            event = dict(event)
            event["writer"] = int(event.get("writer", wid))
            sort_key = (
                int(event.get("t_ns", 0)), event["writer"],
                int(event.get("seq", 0)),
            )
            merged_events.append((sort_key, event))
    merged_events.sort(key=lambda pair: pair[0])
    get_registry().counter(
        names.OBS_MERGE_EVENTS,
        help="events flowed through flightrec k-way merges",
    ).inc(len(merged_events))
    meta = {
        "type": "flightrec_merged_meta",
        "reason": "merge",
        "writers": [report.meta for report in reports],
        "seq": sum(int(r.meta.get("seq", 0)) for r in reports),
        "retained": sum(int(r.meta.get("retained", 0)) for r in reports),
        "evicted": sum(int(r.meta.get("evicted", 0)) for r in reports),
        "metrics": _merge_metric_dicts(
            r.meta.get("metrics", []) for r in reports
        ),
    }
    lines = [json.dumps(meta, sort_keys=True)]
    lines.extend(
        json.dumps(event, sort_keys=True) for _, event in merged_events
    )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# CLI: ``python -m repro flightrec dump|replay``.
# ----------------------------------------------------------------------


def _dump_main(args) -> int:
    """Run an instrumented burst and write its flight-recorder dump."""
    import sys

    from repro.report import _traced_run

    _traced_run(args)
    recorder = get_flightrec()
    if args.out == "-":
        recorder.dump(sys.stdout, reason="cli")
    else:
        recorder.dump(args.out, reason="cli")
        print(f"wrote {recorder.retained} events to {args.out}")
    return 0


def _merge_main(args) -> int:
    """Merge per-worker dumps; write the merged stream (see merge_dumps)."""
    import sys

    text = merge_dumps(args.paths)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
        events = text.count("\n") - 1
        print(f"merged {len(args.paths)} dumps "
              f"({events} events) into {args.out}")
    return 0


def _replay_main(args) -> int:
    """Render a dump as a timeline and reconcile it against its snapshot."""
    report = load_dump(args.path)
    meta = report.meta
    print(f"flight recorder dump: reason={meta.get('reason')} "
          f"seq={meta.get('seq')} retained={meta.get('retained')} "
          f"evicted={meta.get('evicted')}")
    if report.writers:
        print(f"merged from {len(report.writers)} writers: "
              + ", ".join(f"w{int(w.get('writer', 0))}"
                          f"({int(w.get('retained', 0))} events)"
                          for w in report.writers))
    counts = {}
    for event in report.events:
        counts[event["kind"]] = counts.get(event["kind"], 0) + 1
    print("events by kind: " + ", ".join(
        f"{kind}={count}" for kind, count in sorted(counts.items())
    ) or "none")
    verdicts = report.verdict_totals()
    print(f"chunk verdicts: {verdicts['packets']} packets -> "
          f"{verdicts['forwarded']} forwarded, {verdicts['dropped']} "
          f"dropped, {verdicts['slow_path']} slow-path")
    if args.tail:
        print(f"\nlast {args.tail} events:")
        for event in report.events[-args.tail:]:
            fields = {k: v for k, v in event.items()
                      if k not in ("type", "seq", "kind", "label",
                                   "t_ns", "writer")}
            label = f" {event['label']}" if event.get("label") else ""
            detail = (" " + " ".join(f"{k}={v}" for k, v in fields.items())
                      if fields else "")
            wtag = f" w{event['writer']}" if "writer" in event else ""
            print(f"  #{event['seq']:<8}{wtag} "
                  f"{event['kind']:<12}{label}{detail}")
    print("\nreconciliation (events vs metrics snapshot):")
    failures = 0
    for check, recorded, snapshot, ok in report.reconcile():
        marker = "ok" if ok else "MISMATCH"
        if not ok:
            failures += 1
        print(f"  {check:<28} {recorded:>10g} {snapshot:>10g} {marker:>9}")
    if int(meta.get("evicted", 0)):
        print(f"  ({meta['evicted']} events evicted from the ring: "
              "counts undercount by design)")
        return 0
    print("reconciled" if failures == 0 else f"{failures} check(s) failed")
    return 1 if failures else 0


def flightrec_main(argv=None) -> int:
    """Entry point for ``python -m repro flightrec``."""
    import argparse

    from repro.report import _run_parser

    parser = argparse.ArgumentParser(
        prog="python -m repro flightrec",
        description="Dump or replay the flight recorder's event ring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_opts = _run_parser("python -m repro flightrec dump",
                           "Run an instrumented burst and dump the ring.")
    dump = sub.add_parser(
        "dump", parents=[run_opts], add_help=False,
        help="run an instrumented burst and dump the event ring as JSONL")
    dump.add_argument("--out", default="-",
                      help="output path ('-' = stdout, the default)")
    replay = sub.add_parser(
        "replay", help="render and reconcile a previously written dump")
    replay.add_argument("path", help="dump file written by `flightrec dump` "
                        "or a post-mortem trigger")
    replay.add_argument("--tail", type=int, default=12,
                        help="events to print from the end (default: 12)")
    merge = sub.add_parser(
        "merge", help="k-way merge per-worker dumps into one causally "
        "ordered stream (replayable like any dump)")
    merge.add_argument("paths", nargs="+",
                       help="per-worker dump files to merge")
    merge.add_argument("--out", default="-",
                       help="output path ('-' = stdout, the default)")
    args = parser.parse_args(argv)
    if args.command == "dump":
        return _dump_main(args)
    if args.command == "merge":
        return _merge_main(args)
    return _replay_main(args)
