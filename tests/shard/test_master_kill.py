"""A worker SIGKILLed mid-run must end the plane with a named error.

A killed worker can leave half a message in the shared submit pipe;
a reader waiting for the rest never returns, and no timeout can fire
inside that read.  Each case runs the plane in a fresh interpreter
under a hard ``timeout=``, so a regression fails here instead of
hanging the suite, and checks that the run raised the named
``RuntimeError`` within a bound, left no worker alive and no shared
memory segment behind.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or not os.path.isdir("/dev/shm"),
    reason="needs fork and POSIX shared memory under /dev/shm",
)

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Seconds the run may take from start to the named error.
BOUND_S = 30.0

SCRIPT = r"""
import glob, json, os, signal, struct, sys, threading, time
import repro.shard.plane as plane_mod
from repro.shard.plane import PlaneSpec, ShardedDataPlane

mode, delay, session = sys.argv[1], float(sys.argv[2]), sys.argv[3]

if mode == "torn":
    # Worker 0 dies inside a write: it holds the queue's write lock and
    # has written a header announcing more bytes than follow.
    real_main = plane_mod._plane_worker_main

    def torn_main(session, worker_id, spec, submit_queue, *rest):
        if worker_id == 0:
            submit_queue._wlock.acquire()
            os.write(submit_queue._writer.fileno(),
                     struct.pack("!i", 100_000) + b"\x80\x04" * 8)
            os.kill(os.getpid(), signal.SIGKILL)
        real_main(session, worker_id, spec, submit_queue, *rest)

    plane_mod._plane_worker_main = torn_main

spec = PlaneSpec(app="ipv4", workers=2, packets=2048, bursts=400)
start = time.monotonic()
error = None
with ShardedDataPlane(spec, session=session) as plane:
    plane.MASTER_TIMEOUT = 2.0
    plane.start()
    pids = [proc.pid for proc in plane.procs]
    if mode == "timed":
        threading.Timer(delay, os.kill, (pids[0], signal.SIGKILL)).start()
    try:
        plane.serve_master()
        plane.collect()
    except RuntimeError as exc:
        error = str(exc)
print(json.dumps({
    "error": error,
    "elapsed": time.monotonic() - start,
    "pids": pids,
    "alive": [proc.pid for proc in plane.procs if proc.is_alive()],
    "shm": glob.glob(f"/dev/shm/{session}*"),
}))
"""


def _running(pid: int) -> bool:
    """True if ``pid`` is a live, non-zombie process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _run(mode: str, delay: float = 0.0) -> dict:
    session = f"repro-killtest-{os.getpid():x}-{mode}"
    # Its own session, so a hang is killed together with its workers.
    proc = subprocess.Popen(
        [sys.executable, "-c", SCRIPT, mode, str(delay), session],
        env={**os.environ, "PYTHONPATH": SRC},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        for path in Path("/dev/shm").glob(f"{session}*"):
            path.unlink()
        pytest.fail(f"plane run ({mode}) hung past the 120 s timeout")
    assert proc.returncode == 0, err
    return json.loads(out.strip().splitlines()[-1])


def _assert_named_failure(result: dict) -> None:
    assert result["error"] is not None, result
    assert "dead worker(s): repro-shard-0 (exitcode -9)" in result["error"]
    assert result["elapsed"] < BOUND_S
    assert result["alive"] == []
    assert not any(_running(pid) for pid in result["pids"])
    assert result["shm"] == []


class TestWorkerKilled:
    def test_kill_mid_run_raises_named_error(self):
        _assert_named_failure(_run("timed", delay=0.4))

    def test_torn_submit_write_raises_named_error(self):
        """The torn message is never completed, so the pump thread stays
        blocked in its read; the master must still name the worker."""
        _assert_named_failure(_run("torn"))
