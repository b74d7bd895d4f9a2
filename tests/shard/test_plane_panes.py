"""Per-process panes of a real two-worker plane run.

``python -m repro run`` snapshots each worker's metric slab before the
plane unlinks it and adds the master's own registry as a pane.  The
merged view must (a) equal the per-process sums exactly, (b) close the
verdict conservation identity over the whole injected stream, and (c)
come with per-worker flight-recorder dumps whose k-way merge replays
and reconciles cleanly.
"""

import json
import multiprocessing

import pytest

from repro.obs import names
from repro.obs.flightrec import load_dump, merge_dumps
from repro.obs.registry import Counter, Gauge, Histogram, reset_registry
from repro.obs.top import ingress_identity
from repro.shard.cli import run_with_panes
from repro.shard.plane import PlaneSpec, ShardedDataPlane

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="plane integration tests use the fork start method",
)


@pytest.fixture(scope="module")
def plane_run(tmp_path_factory):
    """One 2-worker ipv4 run with dumps, shared by the assertions below."""
    dump_dir = tmp_path_factory.mktemp("dumps")
    spec = PlaneSpec(
        app="ipv4", workers=2, packets=512, bursts=2, seed=3,
        num_routes=1024, dump_dir=str(dump_dir),
    )
    report, panes, aggregate = run_with_panes(spec)
    reset_registry()
    return {
        "report": report,
        "panes": panes,
        "aggregate": aggregate,
        "dumps": sorted(dump_dir.glob("flightrec-w*.jsonl")),
    }


def _counter_totals(registry):
    out = {}
    for metric in registry.collect():
        if isinstance(metric, (Histogram, Gauge)):
            continue
        if isinstance(metric, Counter):
            out[(metric.name, tuple(metric.labels))] = metric.value
    return out


class TestPlanePanes:
    def test_both_workers_exit_cleanly(self, plane_run):
        assert [w.exitcode for w in plane_run["report"].workers] == [0, 0]
        assert list(plane_run["panes"]) == ["0", "1", "master"]

    def test_aggregate_equals_per_process_sums_exactly(self, plane_run):
        summed = {}
        for registry in plane_run["panes"].values():
            for key, value in _counter_totals(registry).items():
                summed[key] = summed.get(key, 0.0) + value
        assert _counter_totals(plane_run["aggregate"]) == summed

    def test_merged_ingress_identity_holds(self, plane_run):
        aggregate = plane_run["aggregate"]
        # Every injected frame lands on exactly one shard and is
        # received there: nothing created, nothing lost in the merge.
        assert aggregate.total(names.ROUTER_RECEIVED_PACKETS) == 2 * 512
        assert ingress_identity(aggregate)["ok"] is True

    def test_merged_verdicts_conserve(self, plane_run):
        aggregate = plane_run["aggregate"]
        assert aggregate.total(names.ROUTER_RECEIVED_PACKETS) == (
            aggregate.total(names.ROUTER_FORWARDED_PACKETS)
            + aggregate.total(names.ROUTER_DROPPED_PACKETS)
            + aggregate.total(names.ROUTER_SLOW_PATH_PACKETS)
        )

    def test_shards_saw_distinct_traffic(self, plane_run):
        # RSS splits one stream; byte-identical shards would hide real
        # merge bugs.
        dumps = [p.read_text() for p in plane_run["dumps"]]
        assert len(dumps) == 2 and dumps[0] != dumps[1]
        panes = plane_run["panes"]
        assert all(
            panes[w].total(names.ROUTER_RECEIVED_PACKETS) > 0 for w in "01"
        )


class TestPlaneDumpMerge:
    def test_merge_replays_and_reconciles(self, plane_run, tmp_path):
        merged = tmp_path / "merged.jsonl"
        merged.write_text(merge_dumps(plane_run["dumps"]))
        report = load_dump(merged)
        assert report.meta["type"] == "flightrec_merged_meta"
        assert [int(w["writer"]) for w in report.writers] == [0, 1]
        assert report.reconciled, report.reconcile()

    def test_merged_events_are_causally_ordered(self, plane_run, tmp_path):
        merged = tmp_path / "merged.jsonl"
        merged.write_text(merge_dumps(plane_run["dumps"]))
        stamps = [
            json.loads(line)["t_ns"]
            for line in merged.read_text().splitlines()
            if json.loads(line).get("type") == "event"
        ]
        assert stamps and stamps == sorted(stamps)

    def test_per_writer_sums_match_the_aggregate(self, plane_run, tmp_path):
        merged = tmp_path / "merged.jsonl"
        merged.write_text(merge_dumps(plane_run["dumps"]))
        report = load_dump(merged)
        totals = [
            report.verdict_totals(writer=int(w["writer"]))
            for w in report.writers
        ]
        whole = report.verdict_totals()
        for key in whole:
            assert sum(t[key] for t in totals) == whole[key]


class TestPlaneValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ShardedDataPlane(PlaneSpec(workers=0))
