"""Fast tests of the benchmark itself, at a tiny packet count.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402

#: A stream small enough that one forked run takes well under a second.
TINY = {"packets": 64, "bursts": 2}


def _declared(section: str) -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _result_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "trace, section", [(0, "end_to_end"), (1, "per_layer")]
)
def test_emitted_metrics_are_the_declared_ones(capsys, trace, section):
    argv = ["--workload", "ipv4-miss-5k", "--seed", "3", "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv, **TINY) == 0
    result = _result_line(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _declared(section)


def test_declared_workloads_exist():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {w["name"] for w in spec["workloads"]}
    assert declared <= set(run.WORKLOADS)


def test_wrong_expected_output_fails_the_check():
    spec = run.spec_fields("openflow-miss", 2, **TINY)
    expected = run.run_host("reference", spec, "pbench-test-ref", 60)
    result = run.run_host("untraced", spec, "pbench-test-run", 60)
    assert run.run_failures(result, expected) == []

    wrong = json.loads(json.dumps(expected))
    wrong["totals"]["forwarded"] += 1
    assert any("verdicts" in r for r in run.run_failures(result, wrong))

    wrong = json.loads(json.dumps(expected))
    port = next(iter(wrong["egress"]))
    wrong["egress"][port] += 1
    assert any("egress" in r for r in run.run_failures(result, wrong))

    broken = dict(result, exitcodes=[0, 1], conservation_ok=False,
                  leaked=["pbench-test-run-w0"], error="RuntimeError: master")
    assert len(run.run_failures(broken, expected)) == 4
    assert run.run_failures(None, expected)


def _originals() -> dict:
    found = {}
    for module, qualname in layers.all_targets():
        owner, attr = layers._resolve(module, qualname)
        found[(module, qualname)] = vars(owner)[attr]
    return found


def test_trace_wrappers_are_removed_before_an_untraced_run(tmp_path):
    import multiprocessing

    import host

    layers.preload()
    before = _originals()
    patches = layers.Patches()
    probe = layers.PhaseProbe(multiprocessing.get_context("fork"), 2)
    tracer = layers.LayerTracer(tmp_path)
    try:
        probe.install(patches)
        tracer.install(patches)
        assert len(layers.installed_wrappers()) == len(before)
        # A run host refuses to measure over a leftover wrapper.
        with pytest.raises(RuntimeError, match="wrappers left"):
            host.measure(None, "pbench-test", False, tmp_path)
    finally:
        patches.restore()
        tracer.uninstall()
    assert layers.installed_wrappers() == []
    after = _originals()
    assert all(after[key] is before[key] for key in before)


def test_self_time_subtracts_child_spans():
    spans = [
        ["framework.process_chunks", 0, 100, -1, 0],
        ["app.pre_shade", 10, 30, 0, 8],
        ["queues.submit", 40, 90, 0, 0],
        ["pool.ensure_packed", 50, 60, 2, 0],
    ]
    assert layers.self_times(spans) == {
        "framework.process_chunks": 30e-9,
        "app.pre_shade": 20e-9,
        "queues.submit": 40e-9,
        "pool.ensure_packed": 10e-9,
    }
    row = layers.breakdown(
        {"process": "worker-0", "wall_s": 200e-9, "cpu_s": 100e-9,
         "spans": spans}
    )
    assert row["unattributed_s"] == pytest.approx(100e-9)
    assert row["coverage"] == pytest.approx(0.5)
