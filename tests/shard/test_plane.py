"""The sharded data plane: differential equality and conservation.

The multi-process plane must be *invisible* in the observable output:
for every app and seed, running the same workload across N real worker
processes (descriptors over queues, master-side GPU batching) produces
exactly the verdict totals and per-port egress distribution of the
sequential in-process decomposition — packet for packet, not
approximately.  Chaos scenarios shard the same way: per-shard runs sum
to the unsharded stream and every shard closes its own conservation
identities.
"""

import itertools
import os
import pickle
from types import SimpleNamespace

import pytest

from repro.core.chunk import Chunk
from repro.faults.scenarios import run_scenario
from repro.io_engine.rss import ShardMap
from repro.obs import Stages, get_registry, names
from repro.obs.shm import read_slab
from repro.shard.plane import (
    PlaneSpec,
    ShardedDataPlane,
    _build_app,
    run_plane,
    run_plane_inprocess,
    scatter_chunk,
    shard_bursts,
)


def small_spec(app="ipv4", seed=1, workers=2):
    return PlaneSpec(
        app=app, workers=workers, packets=192, bursts=2, seed=seed,
        num_routes=1024,
    )


class TestShardMap:
    def test_partition_preserves_arrival_order(self):
        from repro.gen.workloads import ipv4_workload

        burst = ipv4_workload(num_routes=64, seed=3).generator.ipv4_burst(128)
        shard_map = ShardMap(2)
        parts = shard_map.partition(burst)
        index_of = {id(f): i for i, f in enumerate(burst)}
        for shard in parts:
            positions = [index_of[id(f)] for f in shard]
            assert positions == sorted(positions)

    def test_partition_is_a_partition(self):
        from repro.gen.workloads import ipv4_workload

        burst = ipv4_workload(num_routes=64, seed=3).generator.ipv4_burst(128)
        parts = ShardMap(4).partition(burst)
        assert sum(map(len, parts)) == len(burst)
        assert len(parts) == 4

    def test_partition_is_deterministic(self):
        from repro.gen.workloads import ipv4_workload

        def run():
            gen = ipv4_workload(num_routes=64, seed=5).generator
            return [
                [bytes(f) for f in shard]
                for shard in ShardMap(3).partition(gen.ipv4_burst(96))
            ]

        assert run() == run()

    def test_unhashable_frames_round_robin(self):
        shard_map = ShardMap(2)
        junk = [bytearray(12) for _ in range(6)]  # too short to parse
        parts = shard_map.partition(junk)
        assert [len(p) for p in parts] == [3, 3]
        assert shard_map.fallbacks == 6

    def test_shard_bursts_union_is_the_full_stream(self):
        spec = small_spec(seed=2)
        per_shard = [
            shard_bursts(spec, wid, _build_app(spec)[1])
            for wid in range(spec.workers)
        ]
        assert all(len(b) == spec.bursts for b in per_shard)
        for burst_idx in range(spec.bursts):
            total = sum(
                len(per_shard[wid][burst_idx])
                for wid in range(spec.workers)
            )
            assert total == spec.packets


class TestDifferential:
    """Multi-process == in-process, exactly, for every app and seed."""

    @pytest.mark.parametrize("app", ["ipv4", "ipv6", "openflow"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_two_workers_match_sequential_reference(self, app, seed):
        spec = small_spec(app=app, seed=seed, workers=2)
        multi = run_plane(spec)
        single = run_plane_inprocess(spec)
        assert all(w.exitcode == 0 for w in multi.workers)
        assert multi.conservation_ok
        assert multi.verdict_totals() == single.verdict_totals()
        assert multi.egress_totals() == single.egress_totals()

    def test_per_worker_totals_match_too(self):
        spec = small_spec(app="ipv4", seed=1)
        multi = run_plane(spec)
        single = run_plane_inprocess(spec)
        for m, s in zip(multi.workers, single.workers):
            assert (m.received, m.forwarded, m.dropped, m.slow_path) == (
                s.received, s.forwarded, s.dropped, s.slow_path
            )
            assert m.egress == s.egress

    def test_no_byte_copies_crossed_the_boundary(self):
        """Every chunk of a healthy run travels as a descriptor: the
        pool-fallback count (chunks pickled as owned bytes) is zero."""
        report = run_plane(small_spec(app="ipv4", seed=1))
        assert report.shm_fallbacks == 0

    def test_single_worker_plane_still_goes_through_queues(self):
        spec = small_spec(app="ipv4", seed=1, workers=1)
        multi = run_plane(spec)
        single = run_plane_inprocess(spec)
        assert multi.conservation_ok
        assert multi.verdict_totals() == single.verdict_totals()

    def test_master_actually_batched(self):
        report = run_plane(small_spec(app="ipv4", seed=1))
        assert report.master_chunks > 0
        assert 0 < report.master_batches <= report.master_chunks

    def test_master_counts_are_per_run(self):
        """The registry counters accumulate over the process; each
        report counts its own run only.  Chunk counts repeat exactly;
        batch counts depend on how many chunks the master finds queued
        at each gather, so they are checked against the counter."""
        first = run_plane(small_spec())
        batches = get_registry().counter(names.SHARD_MASTER_BATCHES)
        before = batches.value
        second = run_plane(small_spec())
        assert second.master_chunks == first.master_chunks
        assert second.master_batches == batches.value - before
        assert 0 < second.master_batches <= second.master_chunks

    def test_worker_wall_samples_land_in_the_worker_slab(self):
        """Each worker installs its slab registry and flight recorder
        before its tracer, so every pre/post-shade ``measure`` lands in
        its own slab: one wall sample per stage per chunk it finished."""
        with ShardedDataPlane(small_spec(workers=2)) as plane:
            report = plane.run()
            registries = [read_slab(slab) for slab in plane.slabs]
        assert [w.worker_id for w in report.workers] == [0, 1]
        for worker, registry in zip(report.workers, registries):
            assert worker.chunks > 0
            for stage in (Stages.PRE_SHADE, Stages.POST_SHADE):
                histogram = registry.get(
                    names.PROF_STAGE_WALL_NS, stage=stage
                )
                assert histogram is not None
                assert histogram.count == worker.chunks

    def test_fallback_chunks_still_match_reference(self):
        """A one-slot pool starves the RX edge, so most chunks cross
        the boundary as heap byte copies — the totals must still match
        the sequential reference exactly (the master must never mutate
        a heap chunk after putting it on the scatter queue), and the
        report's fallback tally must agree with the pool metric."""
        spec = PlaneSpec(
            app="ipv4", workers=2, packets=192, bursts=2, seed=1,
            num_routes=1024, pool_slots=1,
        )
        with ShardedDataPlane(spec) as plane:
            report = plane.run()
            merged = plane.aggregate()
        single = run_plane_inprocess(spec)
        assert report.conservation_ok
        assert report.verdict_totals() == single.verdict_totals()
        assert report.egress_totals() == single.egress_totals()
        assert report.shm_fallbacks > 0
        assert report.shm_fallbacks == int(
            merged.counter(names.SHARD_POOL_FALLBACKS).value
        )


class _FeederQueue:
    """Stands in for mp.Queue's delayed feeder-thread pickle: put()
    only parks the object; the test pickles it *afterwards*, exactly
    when the real feeder thread would."""

    def __init__(self):
        self.items = []

    def put(self, item):
        self.items.append(item)


class TestScatter:
    """The master must never mutate a chunk after put() when its
    pickle form reads the mutated fields (mp.Queue serializes in a
    background feeder thread, after put() returns)."""

    def test_heap_chunk_survives_post_put_pickle(self):
        queue = _FeederQueue()
        chunk = Chunk([bytearray(b"\xaa" * 64) for _ in range(3)])
        scatter_chunk(queue, chunk)
        clone = pickle.loads(pickle.dumps(queue.items[0]))
        assert [bytes(f) for f in clone.frames] == [b"\xaa" * 64] * 3

    def test_loose_frames_chunk_survives_post_put_pickle(self):
        queue = _FeederQueue()
        chunk = Chunk([bytearray(b"\xbb" * 64)])
        chunk.replace_frame(0, bytearray(b"\xcc" * 80))
        scatter_chunk(queue, chunk)
        clone = pickle.loads(pickle.dumps(queue.items[0]))
        assert bytes(clone.frames[0]) == b"\xcc" * 80
        # A detached chunk ships as owned bytes, repacked on the wire
        # only: the receiver gets a packed chunk, the sender is untouched.
        assert clone.is_packed
        assert not chunk.is_packed

    def test_shm_chunk_views_are_dropped_after_scatter(self):
        from repro.shard.pool import ShmChunkPool

        pool = ShmChunkPool.create(
            f"rt-scatter-{os.getpid()}-{next(_SCATTER_SEQ)}",
            slots=2, slot_bytes=4096, allocator=True,
        )
        try:
            queue = _FeederQueue()
            chunk = pool.build_chunk([bytearray(b"\xdd" * 64)])
            scatter_chunk(queue, chunk)
            # The master's aliasing views are gone (the worker can
            # recycle the slot) but the wire form is the descriptor,
            # so the clone still maps the payload.
            assert chunk.frames == []
            clone = pickle.loads(pickle.dumps(queue.items[0]))
            assert bytes(clone.frames[0]) == b"\xdd" * 64
            clone = None
        finally:
            pool.close()
            pool.unlink()


_SCATTER_SEQ = itertools.count()


class TestMasterFailure:
    def test_silent_queue_names_dead_workers(self):
        """A worker dying mid-run must surface as a descriptive error
        from the master loop, not a raw queue.Empty."""
        spec = small_spec(app="ipv4", seed=1, workers=1)
        with ShardedDataPlane(spec) as plane:
            plane.MASTER_TIMEOUT = 0.2
            plane.procs.append(SimpleNamespace(
                name="repro-shard-0", exitcode=9,
                is_alive=lambda: False,
                join=lambda timeout=None: None,
                terminate=lambda: None,
            ))
            with pytest.raises(
                RuntimeError, match=r"repro-shard-0 \(exitcode 9\)"
            ):
                plane.serve_master()


class TestChaosSharded:
    """Fault scenarios under the same RSS decomposition."""

    def test_shard_injections_sum_to_the_full_run(self):
        full = run_scenario("chaos", seed=1, packets=512)
        shards = [
            run_scenario("chaos", seed=1, packets=512, shard=(k, 2))
            for k in range(2)
        ]
        assert sum(s.injected for s in shards) == full.injected

    def test_every_shard_conserves(self):
        for k in range(2):
            report = run_scenario("chaos", seed=2, packets=512, shard=(k, 2))
            assert report.conservation_ok

    def test_shard_validation(self):
        with pytest.raises(ValueError):
            run_scenario("chaos", seed=1, packets=256, shard=(2, 2))
        with pytest.raises(ValueError):
            run_scenario("chaos", seed=1, packets=256, shard=(-1, 2))
