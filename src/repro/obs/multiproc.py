"""Worker-fleet lifecycle over shared-memory observability.

The bridge between :mod:`repro.obs.shm` (per-process metric slabs) and
real OS processes: a :class:`WorkerFleet` forks N workers, each of
which installs the full multiprocess observability stack —
:class:`~repro.obs.shm.ShmMetricsRegistry` over its own slab, a
:class:`~repro.obs.flightrec.FlightRecorder` stamped with its writer
id, a fresh tracer bound to both — and then steps a
workload exactly as the single-process ``repro top`` runners do.  The
parent aggregates the live slabs at any time (the multi-worker
dashboard) and collects per-worker flight-recorder dumps at exit (the
``flightrec merge`` input).

Writer lifecycle (docs/OBSERVABILITY.md, "Multiprocess mode"):

1. the parent *creates* every slab before any worker starts (it owns
   the segments and their unlink);
2. each worker *attaches* by session name, installs its obs stack, and
   runs; its instruments write shared slots for the rest of its life;
3. the parent reads/aggregates concurrently — single-writer slabs plus
   snapshot repair make that safe at any moment;
4. workers dump their rings to ``dump_dir`` and exit; the parent joins,
   takes a final aggregate, and unlinks the segments.

The worker entry point is a module-level function so both ``fork`` and
``spawn`` start methods work (spawn pickles the target); everything it
receives — session name, writer id, a :class:`WorkerSpec` — is plain
data (RL010).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs.flightrec import FlightRecorder, set_flightrec
from repro.obs.registry import MetricsRegistry
from repro.obs.shm import (
    MetricSlab,
    ShmMetricsRegistry,
    aggregate_slabs,
    read_slab,
    slab_name,
)


@dataclass
class WorkerSpec:
    """What each worker runs — plain data, picklable across spawn."""

    app: str = "ipv4"
    scenario: Optional[str] = None
    packets: int = 2048
    seed: int = 1
    #: Bursts to run before exiting (0 = until the stop event).
    iterations: int = 1
    #: Seconds to sleep between bursts (live-dashboard pacing).
    interval: float = 0.0


def worker_session(prefix: str = "repro-obs") -> str:
    """A collision-free slab session name for this supervising process."""
    return f"{prefix}-{os.getpid():x}"


def _worker_main(session: str, writer_id: int, spec: WorkerSpec,
                 stop, dump_dir: Optional[str]) -> None:
    """One worker process: install shm observability, step the workload.

    Runs in the child.  The obs stack is installed *before* the runner
    is built so every instrumented constructor (router, engine, queues,
    breakers) binds instruments that live in this worker's slab and a
    flight ring stamped with this worker's id.
    """
    from repro.obs import reset_tracer, set_registry
    from repro.obs.top import _ChaosRunner, _ForwardRunner

    slab = MetricSlab.attach(slab_name(session, writer_id))
    set_registry(ShmMetricsRegistry(slab))
    recorder = FlightRecorder(writer_id=writer_id)
    set_flightrec(recorder)
    reset_tracer()
    # Distinct seeds per worker: sibling shards see different traffic,
    # as distinct RSS queues would.
    seed = spec.seed + writer_id
    if spec.scenario is not None:
        runner = _ChaosRunner(spec.scenario, spec.packets, seed)
    else:
        runner = _ForwardRunner(spec.app, spec.packets, seed)
    done = 0
    while not stop.is_set():
        runner.step()
        done += 1
        if spec.iterations and done >= spec.iterations:
            break
        if spec.interval:
            time.sleep(spec.interval)
    if dump_dir:
        recorder.dump(
            Path(dump_dir) / f"flightrec-w{writer_id}.jsonl",
            reason=f"worker-{writer_id}",
        )
    slab.close()


class WorkerFleet:
    """Supervises N workers writing per-process slabs.

    Usable as a context manager; exit stops, joins, and unlinks.
    """

    def __init__(
        self,
        workers: int,
        spec: WorkerSpec,
        session: Optional[str] = None,
        dump_dir: Optional[str] = None,
        start_method: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.spec = spec
        self.session = session or worker_session()
        self.dump_dir = Path(dump_dir) if dump_dir else None
        methods = multiprocessing.get_all_start_methods()
        method = start_method or ("fork" if "fork" in methods else "spawn")
        self._ctx = multiprocessing.get_context(method)
        # The parent creates (and so owns) every segment up front;
        # workers only ever attach.
        self.slabs: List[MetricSlab] = [
            MetricSlab.create(slab_name(self.session, wid), writer_id=wid)
            for wid in range(workers)
        ]
        self._stop = self._ctx.Event()
        self.procs: List = []

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        if self.procs:
            raise RuntimeError("fleet already started")
        if self.dump_dir:
            self.dump_dir.mkdir(parents=True, exist_ok=True)
        for slab in self.slabs:
            proc = self._ctx.Process(
                target=_worker_main,
                args=(self.session, slab.writer_id, self.spec, self._stop,
                      str(self.dump_dir) if self.dump_dir else None),
                name=f"repro-worker-{slab.writer_id}",
                daemon=True,
            )
            proc.start()
            self.procs.append(proc)

    def alive(self) -> bool:
        return any(proc.is_alive() for proc in self.procs)

    def request_stop(self) -> None:
        self._stop.set()

    def join(self, timeout: Optional[float] = None) -> None:
        for proc in self.procs:
            proc.join(timeout)

    def exitcodes(self) -> List[Optional[int]]:
        return [proc.exitcode for proc in self.procs]

    def close(self, unlink: bool = True) -> None:
        """Drop mappings and (by default) destroy the segments."""
        for slab in self.slabs:
            if unlink:
                slab.unlink()
            slab.close()

    def __enter__(self) -> "WorkerFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.request_stop()
        self.join(timeout=10.0)
        self.close()

    # -- reading --------------------------------------------------------

    def per_worker(self) -> Dict[int, MetricsRegistry]:
        """One consistent registry snapshot per live slab."""
        return {slab.writer_id: read_slab(slab) for slab in self.slabs}

    def aggregate(self, into: Optional[MetricsRegistry] = None) -> MetricsRegistry:
        """All slabs merged into one registry snapshot."""
        return aggregate_slabs(self.slabs, into=into)

    def dump_paths(self) -> List[Path]:
        """Per-worker flight-recorder dumps written so far."""
        if self.dump_dir is None:
            return []
        return sorted(self.dump_dir.glob("flightrec-w*.jsonl"))
