"""One plane run in a fresh process; prints one JSON line.

The entry point (``run.py``) starts this script once per run, so every run
begins from a fresh interpreter: the master's peak resident set is this
process's own, and the program's process-global metric registry starts
empty.  Modes:

``reference``
    ``run_plane_inprocess`` on the spec: the expected verdict totals and
    per-port egress every measured run is checked against.
``untraced``
    ``run_plane`` with only the :class:`~layers.PhaseProbe` installed.
``traced``
    the same, plus the :class:`~layers.LayerTracer` on every layer.

Usage: ``python3 perfbench/host.py MODE SPEC_JSON SESSION TMP_DIR`` with
``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import multiprocessing
import platform
import shutil
import sys
import time
import traceback
from pathlib import Path

from layers import (
    LayerTracer,
    Patches,
    PhaseProbe,
    breakdown,
    installed_wrappers,
    layer_metrics,
    now_ns,
    preload,
    vm_hwm_kb,
)

SHM_DIR = Path("/dev/shm")


def shm_leftovers(session: str) -> list:
    """Shared-memory segments of this session still present."""
    return sorted(p.name for p in SHM_DIR.glob(f"{session}*"))


def _outputs(report) -> dict:
    return {
        "totals": report.verdict_totals(),
        "egress": {str(p): c for p, c in sorted(report.egress_totals().items())},
    }


def reference(spec) -> dict:
    """The sequential in-process run, plus the program's host facts."""
    import numpy

    from repro.shard.plane import run_plane_inprocess

    return {
        **_outputs(run_plane_inprocess(spec)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _master_counters() -> tuple:
    """The master's gather counters as they stand in this process.

    ``PlaneReport.master_batches``/``master_chunks`` read the
    process-global registry and so accumulate across ``run_plane``
    calls; the run's own figures are the difference across the call.
    """
    from repro.obs import get_registry, names

    registry = get_registry()
    values = []
    for name in (names.SHARD_MASTER_BATCHES, names.SHARD_MASTER_CHUNKS):
        counter = registry.get(name)
        values.append(int(counter.value) if counter is not None else 0)
    return tuple(values)


def measure(spec, session: str, traced: bool, tmp_dir: Path) -> dict:
    """One forked-plane run with its phase boundaries (and spans)."""
    from repro.shard.plane import run_plane

    stray = installed_wrappers()
    if stray:
        raise RuntimeError(f"wrappers left from an earlier run: {stray}")
    preload()
    ctx = multiprocessing.get_context("fork")
    probe = PhaseProbe(ctx, spec.workers)
    tracer = LayerTracer(tmp_dir) if traced else None
    patches = Patches()
    batches0, chunks0 = _master_counters()
    report, error = None, None
    try:
        probe.install(patches)
        if tracer is not None:
            tracer.install(patches)
        cpu0 = time.process_time()
        start = now_ns()
        try:
            report = run_plane(spec, session=session, start_method="fork")
        except Exception as exc:  # the run fails; run.py counts it
            traceback.print_exc(file=sys.stderr)
            error = f"{type(exc).__name__}: {exc}"
        end = now_ns()
        cpu = time.process_time() - cpu0
    finally:
        patches.restore()
        if tracer is not None:
            tracer.uninstall()
    result = {"error": error, "leaked": shm_leftovers(session)}
    if report is None:
        return result
    batches1, chunks1 = _master_counters()
    first = probe.first_ingress_ns
    phase_s = (probe.master_return_ns - first) / 1e9
    result.update(_outputs(report))
    result.update({
        "exitcodes": [w.exitcode for w in report.workers],
        "conservation_ok": report.conservation_ok,
        "received": report.received,
        "chunks": sum(w.chunks for w in report.workers),
        "shm_fallbacks": report.shm_fallbacks,
        "master_batches": batches1 - batches0,
        "master_chunks": chunks1 - chunks0,
        "wall_s": (end - start) / 1e9,
        "setup_s": (first - start) / 1e9,
        "kpps": report.received / phase_s / 1e3,
        "peak_rss_mb": (vm_hwm_kb() + sum(probe.worker_hwm_kb)) / 1024,
    })
    if tracer is not None and error is None and not any(result["exitcodes"]):
        workers = [
            json.loads((tmp_dir / f"worker-{w}.json").read_text())
            for w in range(spec.workers)
        ]
        master = {
            "process": "master",
            "wall_s": (end - start) / 1e9,
            "cpu_s": cpu,
            "spans": tracer.spans,
            "submits": [],
            "returns": [],
        }
        plane = {
            **result,
            "master_cpu_s": tracer.master_cpu_s,
            "master_wall_s": tracer.master_wall_s,
        }
        result["layers"] = layer_metrics(workers, master, plane)
        result["processes"] = [breakdown(r) for r in (master, *workers)]
    return result


def main(argv: list) -> int:
    mode, spec_json, session, tmp = argv
    from repro.shard.plane import PlaneSpec

    spec = PlaneSpec(**json.loads(spec_json))
    tmp_dir = Path(tmp)
    tmp_dir.mkdir(parents=True, exist_ok=True)
    try:
        if mode == "reference":
            result = reference(spec)
        else:
            result = measure(spec, session, mode == "traced", tmp_dir)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
