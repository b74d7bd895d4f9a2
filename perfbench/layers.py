"""Wrappers around the program's public callables, and what they measure.

The benchmark never edits the program.  In the run-host process, before
the plane forks, it replaces public callables on their modules and
classes with timing wrappers; ``fork`` copies the patched objects into
every worker, so the master and all workers are covered by one install.
:class:`Patches` records each original and puts it back on
:meth:`Patches.restore`, so no wrapper outlives the run it was made for.

Two wrapper sets:

* :class:`PhaseProbe` — the untraced run's only instruments.  It takes
  timestamps around the generator's burst function and
  ``ShardedDataPlane.serve_master`` (the measured phase) and reads each
  worker's peak resident set when the worker signals the end of its
  run.  It records no spans.
* :class:`LayerTracer` — the traced run.  One span per call into each
  layer, kept in memory per process; workers write theirs out from the
  wrapped end-of-run call ``RemoteMasterClient.finish``.  A layer's self
  time is its spans minus their child spans; :func:`breakdown` turns one
  process's spans into per-layer self times with an explicit
  ``unattributed`` remainder, and :func:`layer_metrics` derives the
  per-layer metrics ``BENCHMARK.json`` declares.

All timestamps come from ``time.perf_counter_ns`` (``CLOCK_MONOTONIC`` on
Linux), one clock shared by every process on the host, so boundaries
taken in different plane processes compare directly.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

now_ns = time.perf_counter_ns

#: Attribute set on every wrapper this module installs.
MARK = "__perfbench_wrapped__"

#: Application classes whose shading steps the tracer times.
APP_CLASSES = (
    ("repro.apps.ipv4", "IPv4Forwarder"),
    ("repro.apps.openflow", "OpenFlowApp"),
)

#: (module, attribute) of the callables the phase probe replaces.
PROBE_TARGETS = (
    ("repro.gen.packetgen", "PacketGenerator.ipv4_burst"),
    ("repro.shard.plane", "ShardedDataPlane.serve_master"),
    ("repro.core.queues", "RemoteMasterClient.finish"),
)

#: (module, attribute, span name, packet-count function or None).  The
#: span name's first dotted part is the layer it is charged to.
TRACE_TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.gen.workloads", "ipv4_workload", "setup.workload", None),
    ("repro.gen.workloads", "openflow_workload", "setup.workload", None),
    ("repro.lookup.dir24_8", "Dir24_8.add_routes", "setup.add_routes", None),
    ("repro.gen.packetgen", "PacketGenerator.ipv4_burst", "gen.burst",
     lambda gen, count, *a, **k: count),
    ("repro.io_engine.rss", "ShardMap.partition", "rss.partition",
     lambda shard_map, frames: len(frames)),
    ("repro.shard.pool", "ShmChunkPool.build_chunk", "pool.build_chunk",
     lambda pool, frames, **k: len(frames)),
    ("repro.shard.pool", "ShmChunkPool.ensure_packed", "pool.ensure_packed",
     None),
    ("repro.shard.pool", "ShmChunkPool.recycle", "pool.recycle", None),
    *(
        (module, f"{cls}.{step}", f"app.{step}",
         lambda app, chunk, *a: len(chunk))
        for module, cls in APP_CLASSES
        for step in ("pre_shade", "post_shade")
    ),
    ("repro.core.framework", "PacketShader.process_chunks",
     "framework.process_chunks", None),
    ("repro.core.framework", "PacketShader.flush_transport",
     "framework.flush_transport", None),
    ("repro.shard.plane", "scatter_chunk", "master.scatter", None),
    ("repro.core.application", "GPUWorkItem.launch_on", "gpu.launch",
     lambda work, device: work.threads),
    ("repro.shard.plane", "ShardedDataPlane.__init__", "plane.init", None),
    ("repro.shard.plane", "ShardedDataPlane.start", "plane.start", None),
    ("repro.shard.plane", "ShardedDataPlane.collect", "plane.collect", None),
    ("repro.shard.plane", "ShardedDataPlane.close", "plane.close", None),
)

#: Generator methods timed across their iteration, and the master loop;
#: these get dedicated wrappers below.
TRACE_SPECIAL = (
    ("repro.core.queues", "RemoteMasterClient.submit"),
    ("repro.core.queues", "RemoteMasterClient.drain"),
    ("repro.core.queues", "RemoteMasterClient.finish"),
    ("repro.shard.plane", "ShardedDataPlane.serve_master"),
)

#: Layers in table order; ``unattributed`` is process wall minus them.
LAYERS = ("setup", "gen", "rss", "pool", "app", "framework", "queues",
          "master", "gpu", "plane")


def _resolve(module: str, qualname: str):
    owner = importlib.import_module(module)
    *parents, attr = qualname.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def all_targets() -> List[Tuple[str, str]]:
    """(module, attribute) of every callable either wrapper set replaces."""
    targets = {(module, qualname) for module, qualname, *_ in TRACE_TARGETS}
    targets.update(PROBE_TARGETS, TRACE_SPECIAL)
    return sorted(targets)


def preload() -> None:
    """Import every module a wrapper set touches.

    Called in both traced and untraced runs before the clock starts, so
    both modes fork workers from a parent with the same modules loaded
    and their set-up times compare.
    """
    for module, _ in all_targets():
        importlib.import_module(module)


def installed_wrappers() -> List[str]:
    """Every target that currently holds a wrapper from this module."""
    found = []
    for module, qualname in all_targets():
        owner, attr = _resolve(module, qualname)
        if getattr(vars(owner)[attr], MARK, False):
            found.append(f"{module}.{qualname}")
    return found


class Patches:
    """Installed wrappers and the originals they replaced."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def wrap(self, module: str, qualname: str,
             make: Callable[[Callable], Callable]) -> None:
        """Replace ``module.qualname`` with ``make(original)``.

        The attribute must be defined on its owner itself (not
        inherited), so restoring it later leaves the owner exactly as
        it was.
        """
        owner, attr = _resolve(module, qualname)
        original = vars(owner)[attr]
        wrapper = functools.wraps(original)(make(original))
        setattr(wrapper, MARK, True)
        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original back, last wrapped first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def vm_hwm_kb() -> int:
    """This process's peak resident set (``VmHWM``), in KiB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


class PhaseProbe:
    """The untraced run's phase boundaries and per-worker peak memory.

    ``ctx`` is the multiprocessing context the plane forks with; the
    shared values it makes here are inherited by every worker.
    """

    def __init__(self, ctx, workers: int) -> None:
        self._first_ingress = ctx.Value("q", 0)
        self._worker_hwm = ctx.Array("q", workers)
        self.master_return_ns = 0

    @property
    def first_ingress_ns(self) -> int:
        """Earliest ingress-generation call in any plane process."""
        return self._first_ingress.value

    @property
    def worker_hwm_kb(self) -> List[int]:
        return list(self._worker_hwm)

    def _note_ingress(self, t_ns: int) -> None:
        with self._first_ingress.get_lock():
            first = self._first_ingress.value
            if first == 0 or t_ns < first:
                self._first_ingress.value = t_ns

    def install(self, patches: Patches) -> None:
        def burst(original):
            def wrapper(*args, **kwargs):
                self._note_ingress(now_ns())
                return original(*args, **kwargs)
            return wrapper

        def serve_master(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                self.master_return_ns = now_ns()
                return result
            return wrapper

        def finish(original):
            def wrapper(client, *args, **kwargs):
                result = original(client, *args, **kwargs)
                self._worker_hwm[client.worker_id] = vm_hwm_kb()
                return result
            return wrapper

        patches.wrap("repro.gen.packetgen", "PacketGenerator.ipv4_burst", burst)
        patches.wrap("repro.shard.plane", "ShardedDataPlane.serve_master",
                     serve_master)
        patches.wrap("repro.core.queues", "RemoteMasterClient.finish", finish)


class LayerTracer:
    """In-memory spans for one plane process at a time.

    The parent's tracer is the master's; ``os.register_at_fork`` resets
    the inherited copy in each worker so a worker records only its own
    spans, from the moment it was forked.  Each span is
    ``[name, start_ns, end_ns, parent_index, packets]``.
    """

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.active = False
        self.master_cpu_s = 0.0
        self.master_wall_s = 0.0
        self._reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.submits: List[int] = []
        self.returns: List[int] = []
        self.start_ns = now_ns()
        self.start_cpu = time.process_time()

    def _after_fork(self) -> None:
        if self.active:
            self._reset()

    def _enter(self, name: str, packets: int) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, now_ns(), 0, parent, packets]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: list) -> None:
        span[2] = now_ns()
        self._stack.pop()

    def record(self, process: str) -> dict:
        """This process's spans and clocks, as plain data."""
        return {
            "process": process,
            "wall_s": (now_ns() - self.start_ns) / 1e9,
            "cpu_s": time.process_time() - self.start_cpu,
            "spans": self.spans,
            "submits": self.submits,
            "returns": self.returns,
        }

    # -- wrapper factories ----------------------------------------------

    def _timed(self, name: str, count: Optional[Callable]):
        def make(original):
            def wrapper(*args, **kwargs):
                span = self._enter(name, count(*args, **kwargs) if count else 0)
                try:
                    return original(*args, **kwargs)
                finally:
                    self._exit(span)
            return wrapper
        return make

    def _timed_iteration(self, name_of: Callable, on_done: Optional[Callable]):
        """A generator timed across its iteration: one span per resume.

        Every chunk the generator yields is a shaded chunk coming back
        from the master; its arrival time is recorded for the round-trip
        pairing in :func:`chunk_rtts_ms`.
        """
        def make(original):
            def wrapper(*args, **kwargs):
                name = name_of(*args, **kwargs)
                inner = original(*args, **kwargs)
                try:
                    while True:
                        span = self._enter(name, 0)
                        try:
                            item = next(inner)
                        except StopIteration:
                            if on_done is not None:
                                on_done()
                            return
                        finally:
                            self._exit(span)
                        self.returns.append(span[2])
                        yield item
                finally:
                    inner.close()
            return wrapper
        return make

    def install(self, patches: Patches) -> None:
        """Wrap every layer's public callables (see ``TRACE_TARGETS``)."""
        for module, qualname, name, count in TRACE_TARGETS:
            patches.wrap(module, qualname, self._timed(name, count))
        patches.wrap(
            "repro.core.queues", "RemoteMasterClient.submit",
            self._timed_iteration(
                lambda *a, **k: "queues.submit",
                lambda: self.submits.append(now_ns()),
            ),
        )
        patches.wrap(
            "repro.core.queues", "RemoteMasterClient.drain",
            self._timed_iteration(
                lambda client, block=False: (
                    "queues.flush_wait" if block else "queues.drain"
                ),
                None,
            ),
        )

        def finish(original):
            def wrapper(client, *args, **kwargs):
                result = original(client, *args, **kwargs)
                path = self.out_dir / f"worker-{client.worker_id}.json"
                path.write_text(json.dumps(self.record(f"worker-{client.worker_id}")))
                return result
            return wrapper

        def serve_master(original):
            def wrapper(*args, **kwargs):
                span = self._enter("master.serve", 0)
                cpu0 = time.thread_time()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.master_cpu_s = time.thread_time() - cpu0
                    self._exit(span)
                    self.master_wall_s = (span[2] - span[1]) / 1e9
            return wrapper

        patches.wrap("repro.core.queues", "RemoteMasterClient.finish", finish)
        patches.wrap("repro.shard.plane", "ShardedDataPlane.serve_master",
                     serve_master)
        self.active = True

    def uninstall(self) -> None:
        self.active = False


# -- analysis -------------------------------------------------------------


def self_times(spans: List[list]) -> Dict[str, float]:
    """Seconds of self time per span name (span minus its child spans)."""
    child = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: Dict[str, float] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start - child[index]) / 1e9
    return totals


def breakdown(record: dict) -> dict:
    """One process's wall time split by layer, plus what no layer covers."""
    by_layer = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_times(record["spans"]).items():
        by_layer[name.split(".")[0]] += seconds
    attributed = sum(by_layer.values())
    wall = record["wall_s"]
    return {
        "process": record["process"],
        "wall_s": wall,
        "cpu_s": record["cpu_s"],
        "self_s": by_layer,
        "unattributed_s": wall - attributed,
        "coverage": attributed / wall,
        "busy_share": record["cpu_s"] / wall,
    }


def chunk_rtts_ms(record: dict) -> List[float]:
    """Per-chunk submit-to-return times of one worker.

    The master serves the shared submit queue in order and scatters each
    worker's chunks back in that order, so a worker's n-th returned chunk
    is its n-th submitted one.
    """
    submits, returns = record["submits"], record["returns"]
    if len(submits) != len(returns):
        raise ValueError(
            f"{record['process']}: {len(submits)} chunks submitted, "
            f"{len(returns)} returned"
        )
    return [(back - out) / 1e6 for out, back in zip(submits, returns)]


def _spans(records: List[dict], name: str) -> List[list]:
    return [span for record in records for span in record["spans"]
            if span[0] == name]


def _packets(records: List[dict], name: str) -> int:
    return sum(span[4] for span in _spans(records, name))


def _quantile(values: List[float], q: int) -> float:
    """The q-th percentile (statistics' exclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def layer_metrics(workers: List[dict], master: dict, plane: dict) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    ``workers`` and ``master`` are process records; ``plane`` holds the
    run's report figures (received packets, chunks, pool fallbacks,
    per-run master counter deltas).  Busy times are summed over the
    workers; per-packet costs are summed self time over summed packets.
    """
    everyone = [*workers, master]
    worker_self: Dict[str, float] = {}
    for record in workers:
        for name, seconds in self_times(record["spans"]).items():
            worker_self[name] = worker_self.get(name, 0.0) + seconds
    master_self = self_times(master["spans"])
    rows = [breakdown(record) for record in everyone]

    def layer_s(layer: str) -> float:
        return sum(s for name, s in worker_self.items()
                   if name.split(".")[0] == layer)

    owned = plane["received"]
    generated = _packets(workers, "gen.burst")
    partitioned = _packets(workers, "rss.partition")
    rtts = [rtt for record in workers for rtt in chunk_rtts_ms(record)]
    wall = sum(row["wall_s"] for row in rows)
    attributed = sum(sum(row["self_s"].values()) for row in rows)
    return {
        "gen.busy_s": layer_s("gen"),
        "gen.frames_per_owned": generated / owned,
        "rss.busy_s": layer_s("rss"),
        "rss.us_per_frame": 1e6 * layer_s("rss") / partitioned,
        "rss.frames_per_owned": partitioned / owned,
        "setup.table_builds": len(_spans(everyone, "setup.workload")),
        "setup.table_build_s": sum(
            (end - start) / 1e9
            for _, start, end, *_ in _spans(everyone, "setup.workload")
        ),
        "pool.busy_s": layer_s("pool"),
        "pool.fallback_share": plane["shm_fallbacks"] / plane["chunks"],
        "app.pre_shade_us_per_pkt": 1e6 * worker_self.get("app.pre_shade", 0.0)
        / _packets(workers, "app.pre_shade"),
        "app.post_shade_us_per_pkt": 1e6 * worker_self.get("app.post_shade", 0.0)
        / _packets(workers, "app.post_shade"),
        "framework.self_s": layer_s("framework"),
        "queues.submit_block_s": worker_self.get("queues.submit", 0.0),
        "queues.flush_wait_s": worker_self.get("queues.flush_wait", 0.0),
        "queues.chunk_rtt_p50_ms": statistics.median(rtts),
        "queues.chunk_rtt_p99_ms": _quantile(rtts, 99),
        "master.idle_share": 1.0 - plane["master_cpu_s"] / plane["master_wall_s"],
        "master.chunks_per_batch": plane["master_chunks"] / plane["master_batches"],
        "master.scatter_s": master_self.get("master.scatter", 0.0),
        "gpu.kernel_us_per_pkt": 1e6 * master_self.get("gpu.launch", 0.0)
        / _packets([master], "gpu.launch"),
        "proc.busy_share": sum(row["cpu_s"] for row in rows) / wall,
        "proc.coverage": attributed / wall,
        "proc.unattributed_s": wall - attributed,
    }
