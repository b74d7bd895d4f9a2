"""Wall-clock benchmark of the forked shard plane.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ipv4-miss-5k --seed 1 \\
        --seconds 30 --trace 0

One invocation computes the expected output once (``run_plane_inprocess``
on the same spec and seed), then repeats real forked-plane runs, each in
a fresh process (``host.py``), for ``--seconds`` seconds and at least
``MIN_RUNS`` runs.  Every run is checked (see :func:`run_failures`); the
end-to-end metrics are medians over the runs that pass.

``--trace 1`` alternates untraced and traced runs instead and reports the
per-layer metrics (medians over traced runs) plus ``trace.overhead``, the
share of the untraced packet rate the tracing costs.

Stdout carries a host block, a metric table (and, traced, the per-layer
table of every plane process), and as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every run passed, 1 when any failed, 2 on bad usage or when the
program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from layers import LAYERS
from workloads import WORKLOADS, spec_fields

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SHM_DIR = Path("/dev/shm")

#: Untraced runs measured per invocation at the least (medians of these).
MIN_RUNS = 4
#: Hard ceiling on one invocation; no run starts that could cross it.
BUDGET_S = 165.0

#: End-to-end metrics and their units, in ``BENCHMARK.json`` order.
E2E_UNITS = {"kpps": "kpps", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics and their units, in ``BENCHMARK.json`` order.
LAYER_UNITS = {
    "gen.busy_s": "s",
    "gen.frames_per_owned": "ratio",
    "rss.busy_s": "s",
    "rss.us_per_frame": "us",
    "rss.frames_per_owned": "ratio",
    "setup.table_builds": "count",
    "setup.table_build_s": "s",
    "pool.busy_s": "s",
    "pool.fallback_share": "share",
    "app.pre_shade_us_per_pkt": "us",
    "app.post_shade_us_per_pkt": "us",
    "framework.self_s": "s",
    "queues.submit_block_s": "s",
    "queues.flush_wait_s": "s",
    "queues.chunk_rtt_p50_ms": "ms",
    "queues.chunk_rtt_p99_ms": "ms",
    "master.idle_share": "share",
    "master.chunks_per_batch": "ratio",
    "master.scatter_s": "s",
    "gpu.kernel_us_per_pkt": "us",
    "proc.busy_share": "share",
    "proc.coverage": "share",
    "proc.unattributed_s": "s",
    "trace.overhead": "share",
}


class BenchError(RuntimeError):
    """The program could not be run at all (no result is printed)."""


def host_block(seed: int, reference: dict) -> dict:
    """What a result depends on besides the code: compare on one host only."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": reference["python"],
        "numpy": reference["numpy"],
        "machine": platform.machine(),
        "start_method": "fork",
        "seed": seed,
    }


def run_host(mode: str, spec: dict, session: str, timeout: float) -> Optional[dict]:
    """Run ``host.py`` once; its JSON result, or None if it died.

    The host runs in its own session so that on a timeout the whole
    process group (host and forked workers) is killed and reaped.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    tmp = ROOT / ".perfbench-tmp" / session
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "host.py"), mode, json.dumps(spec),
         session, str(tmp)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        print(f"{mode} run timed out after {timeout:.0f}s", file=sys.stderr)
    finally:
        _reap_group(proc.pid)
    if proc.returncode != 0 or not out.strip():
        sys.stderr.write(err[-4000:])
        return None
    return json.loads(out.strip().splitlines()[-1])


def _reap_group(pgid: int) -> None:
    """Kill whatever is left of a host's process group, and wait for it.

    Leftovers (such as the host's resource tracker) are no children of
    this process, so they cannot be reaped here; waiting ends once none
    of them is still running, zombies awaiting their new parent aside.
    """
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5.0
    while _group_running(pgid) and time.monotonic() < deadline:
        time.sleep(0.01)


def _group_running(pgid: int) -> bool:
    """Whether any process of group ``pgid`` is still running."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited while listed
        state, pgrp = fields[0], int(fields[2])
        if pgrp == pgid and state not in "ZX":
            return True
    return False


def run_failures(result: Optional[dict], expected: dict) -> List[str]:
    """Why one run failed its output check; empty when it passed.

    A run fails when its host died, the master timed out or raised, a
    worker exited nonzero, the merged ingress identity broke, the
    verdict totals or per-port egress differ from the in-process
    reference, or a segment of the run's session is left in /dev/shm.
    """
    if result is None:
        return ["run host died or timed out"]
    reasons = []
    if result.get("error"):
        reasons.append(f"plane raised: {result['error']}")
    if result.get("leaked"):
        reasons.append(f"leaked shm segments: {result['leaked']}")
    if "totals" not in result:
        return reasons or ["no report"]
    codes = result["exitcodes"]
    if any(code != 0 for code in codes):
        reasons.append(f"worker exit codes {codes}")
    if not result["conservation_ok"]:
        reasons.append("conservation identity violated")
    if result["totals"] != expected["totals"]:
        reasons.append(
            f"verdicts {result['totals']} != reference {expected['totals']}"
        )
    if result["egress"] != expected["egress"]:
        reasons.append(
            f"egress {result['egress']} != reference {expected['egress']}"
        )
    return reasons


def _leftover_segments(session: str) -> List[Path]:
    return sorted(SHM_DIR.glob(f"{session}*"))


def bench(workload: str, seed: int, seconds: float, trace: bool,
          **overrides) -> dict:
    """Run one invocation; the result object plus tables to print.

    ``overrides`` replace ``PlaneSpec`` fields (the tests shrink the
    stream with them).
    """
    started = time.monotonic()
    spec = spec_fields(workload, seed, **overrides)
    tag = f"pbench-{os.getpid():x}{os.urandom(2).hex()}"
    expected = run_host("reference", spec, f"{tag}-ref", BUDGET_S)
    if expected is None:
        raise BenchError("the in-process reference run failed")
    untraced: List[dict] = []
    traced: List[dict] = []
    attempted = failed = 0
    longest = 0.0
    modes = ("untraced", "traced") if trace else ("untraced",)
    need = 1 if trace else MIN_RUNS
    measure_start = time.monotonic()
    while len(untraced) < need or time.monotonic() - measure_start < seconds:
        remaining = BUDGET_S - (time.monotonic() - started)
        if attempted and remaining < len(modes) * longest * 1.5:
            break
        for mode in modes:
            session = f"{tag}-{attempted}"
            t0 = time.monotonic()
            result = run_host(mode, spec, session, remaining)
            longest = max(longest, time.monotonic() - t0)
            attempted += 1
            leftovers = _leftover_segments(session)
            for path in leftovers:
                path.unlink(missing_ok=True)
            reasons = run_failures(result, expected)
            if leftovers:
                reasons.append(f"segments left after exit: {leftovers}")
            if reasons:
                failed += 1
                print(f"run {session} ({mode}) FAILED: {'; '.join(reasons)}",
                      file=sys.stderr)
            else:
                (traced if mode == "traced" else untraced).append(result)
        if failed and not untraced:
            break
    try:
        (ROOT / ".perfbench-tmp").rmdir()
    except OSError:
        pass  # absent, or another invocation is still using it
    return {
        "host": host_block(seed, expected),
        "expected": expected,
        "attempted": attempted,
        "failed": failed,
        "untraced": untraced,
        "traced": traced,
    }


def summarize(outcome: dict, trace: bool) -> Dict[str, float]:
    """Medians over the passing runs: e2e metrics, or per-layer ones."""
    untraced, traced = outcome["untraced"], outcome["traced"]
    if not trace:
        return {
            name: statistics.median(run[name] for run in untraced)
            for name in E2E_UNITS
        }
    metrics = {
        name: statistics.median(run["layers"][name] for run in traced)
        for name in LAYER_UNITS if name != "trace.overhead"
    }
    metrics["trace.overhead"] = 1.0 - (
        statistics.median(run["kpps"] for run in traced)
        / statistics.median(run["kpps"] for run in untraced)
    )
    return metrics


def print_tables(outcome: dict, metrics: Dict[str, float], trace: bool) -> None:
    """The human-readable report: host block, metrics, layer tables."""
    print("host: " + json.dumps(outcome["host"]))
    totals = outcome["expected"]["totals"]
    mix = {k: round(v / totals["received"], 4) for k, v in totals.items()
           if k != "received"}
    print(f"verdict mix of {totals['received']} packets: {json.dumps(mix)}")
    runs = outcome["traced"] if trace else outcome["untraced"]
    units = LAYER_UNITS if trace else E2E_UNITS
    print(f"{'metric':28s} {'unit':6s} {'median':>12s} {'min':>12s} "
          f"{'max':>12s}  n={len(runs)}")
    for name, value in metrics.items():
        if trace:
            values = [run["layers"].get(name, value) for run in runs]
        else:
            values = [run[name] for run in runs]
        print(f"{name:28s} {units[name]:6s} {value:12.4f} "
              f"{min(values):12.4f} {max(values):12.4f}")
    share = outcome["failed"] / outcome["attempted"]
    print(f"{'failed_share':28s} {'share':6s} {share:12.4f}  "
          f"({outcome['failed']} of {outcome['attempted']} runs)")
    if not trace or not runs:
        return
    processes = runs[-1]["processes"]
    print("per-process self time (s), last traced run:")
    print(f"{'layer':14s}" + "".join(f"{p['process']:>11s}" for p in processes))
    for layer in LAYERS:
        print(f"{layer:14s}"
              + "".join(f"{p['self_s'][layer]:11.4f}" for p in processes))
    for label, key in (("unattributed", "unattributed_s"), ("wall", "wall_s"),
                       ("cpu", "cpu_s"), ("coverage", "coverage"),
                       ("busy_share", "busy_share")):
        print(f"{label:14s}" + "".join(f"{p[key]:11.4f}" for p in processes))


def main(argv: Optional[List[str]] = None, **overrides) -> int:
    """The command line; ``overrides`` shrink the spec for the tests."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        outcome = bench(args.workload, args.seed, args.seconds, trace,
                        **overrides)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    runs = outcome["traced"] if trace else outcome["untraced"]
    metrics = summarize(outcome, trace) if runs and outcome["untraced"] else {}
    print_tables(outcome, metrics, trace)
    units = LAYER_UNITS if trace else E2E_UNITS
    correct = outcome["failed"] == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
