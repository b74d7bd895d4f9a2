"""The OpenFlow application on the framework."""

import pickle

import pytest

from repro.apps.openflow import OpenFlowApp
from repro.core.chunk import Chunk, Disposition
from repro.core.config import RouterConfig
from repro.core.framework import PacketShader
from repro.gen.workloads import openflow_workload
from repro.hw.gpu import GPUDevice
from repro.net.packet import build_tcp_ipv4, build_udp_ipv4
from repro.openflow.actions import output
from repro.openflow.flowkey import extract_flow_key
from repro.openflow.flowtable import WildcardEntry
from repro.openflow.switch import OpenFlowSwitch


def chunk_of(frames, in_port=0):
    return Chunk(frames=[bytearray(f) for f in frames], in_port=in_port)


class TestDataPath:
    def test_exact_match_forwards(self):
        switch = OpenFlowSwitch()
        frame = build_udp_ipv4(1, 2, 3, 4)
        switch.add_exact_flow(extract_flow_key(bytes(frame), 0), output(6))
        app = OpenFlowApp(switch)
        chunk = chunk_of([frame])
        app.cpu_process(chunk)
        assert chunk.verdicts[0].disposition is Disposition.FORWARD
        assert chunk.verdicts[0].out_port == 6

    def test_wildcard_match(self):
        switch = OpenFlowSwitch()
        switch.add_wildcard_flow(WildcardEntry(
            priority=1, fields={"nw_proto": 17}, actions=output(2),
        ))
        app = OpenFlowApp(switch)
        chunk = chunk_of([build_udp_ipv4(1, 2, 3, 4)])
        app.cpu_process(chunk)
        assert chunk.verdicts[0].out_port == 2

    def test_miss_goes_to_controller_as_slow_path(self):
        app = OpenFlowApp(OpenFlowSwitch())
        chunk = chunk_of([build_udp_ipv4(1, 2, 3, 4)])
        app.cpu_process(chunk)
        assert chunk.verdicts[0].disposition is Disposition.SLOW_PATH
        assert len(app.switch.controller_queue) == 1

    def test_drop_rule(self):
        switch = OpenFlowSwitch()
        switch.add_wildcard_flow(WildcardEntry(priority=1, fields={}, actions=[]))
        app = OpenFlowApp(switch)
        chunk = chunk_of([build_udp_ipv4(1, 2, 3, 4)])
        app.cpu_process(chunk)
        assert chunk.verdicts[0].disposition is Disposition.DROP

    def test_gpu_and_cpu_paths_agree(self):
        workload = openflow_workload(num_exact=200, num_wildcard=8, seed=61)
        app = OpenFlowApp(workload.switch)
        frames = [build_udp_ipv4(i, i + 1, 100 + i, 200 + i) for i in range(32)]
        cpu_chunk = chunk_of(frames)
        app.cpu_process(cpu_chunk)
        gpu_chunk = chunk_of(frames)
        work = app.pre_shade(gpu_chunk)
        app.post_shade(gpu_chunk, work.spec.fn(*work.args))
        assert [v.disposition for v in cpu_chunk.verdicts] == [
            v.disposition for v in gpu_chunk.verdicts
        ]

    def test_truncated_frame_dropped(self):
        app = OpenFlowApp(OpenFlowSwitch())
        chunk = chunk_of([bytearray(8)])
        app.cpu_process(chunk)
        assert chunk.verdicts[0].disposition is Disposition.DROP


def _ihl_six():
    frame = build_udp_ipv4(1, 2, 3, 4)
    frame[14] = 0x46  # IPv4 header with options
    return frame


def _version_six():
    frame = build_udp_ipv4(1, 2, 3, 4)
    frame[14] = 0x65  # ethertype 0x0800, version 6
    return frame


def _short_vlan(length):
    frame = build_udp_ipv4(1, 2, 3, 4)[:length]
    frame[12:14] = b"\x81\x00"  # an 802.1Q tag cut short
    return frame


def _tcp_offset_four():
    frame = build_tcp_ipv4(1, 2, 3, 4)
    frame[14 + 20 + 12] = 0x40  # data offset below the 5-word minimum
    return frame


MALFORMED = {
    "ihl-6": _ihl_six,
    "version-6": _version_six,
    "vlan-14": lambda: _short_vlan(14),
    "vlan-17": lambda: _short_vlan(17),
    "tcp-offset-4": _tcp_offset_four,
}


class TestMalformedFrames:
    """Frames the key parse rejects are dropped, never raised."""

    @pytest.mark.parametrize("use_gpu", [True, False], ids=["gpu", "cpu"])
    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_dropped_and_conserved(self, kind, use_gpu):
        frames = [build_udp_ipv4(5, 6, 7, 8), MALFORMED[kind](),
                  build_udp_ipv4(9, 10, 11, 12)]
        router = PacketShader(
            OpenFlowApp(OpenFlowSwitch()), RouterConfig(use_gpu=use_gpu)
        )
        router.process_frames(frames)
        stats = router.stats
        assert stats.received == 3
        assert stats.received == (
            stats.forwarded + stats.dropped + stats.slow_path
        )
        assert (stats.dropped, stats.slow_path) == (1, 2)

    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_verdict_is_drop(self, kind):
        app = OpenFlowApp(OpenFlowSwitch())
        chunk = chunk_of([MALFORMED[kind](), build_udp_ipv4(1, 2, 3, 4)])
        app.cpu_process(chunk)
        assert chunk.verdicts[0].disposition is Disposition.DROP
        assert chunk.verdicts[1].disposition is Disposition.SLOW_PATH
        assert len(app.switch.controller_queue) == 1


class TestAcrossThePlane:
    def test_wildcard_hits_count_on_the_worker_table(self):
        """The kernel output names rules by index, so a worker counts
        wildcard hits on its own entries even when the kernel ran on a
        master's copy of the tables in another process."""
        worker = OpenFlowApp(openflow_workload(2048, 32, seed=1).switch)
        master = OpenFlowApp(openflow_workload(2048, 32, seed=1).switch)
        frames = openflow_workload(2048, 32, seed=1).generator.ipv4_burst(
            2048, 64
        )
        chunk = chunk_of(frames)
        work = pickle.loads(pickle.dumps(worker.pre_shade(chunk)))
        master.bind_kernel(work)
        output = pickle.loads(
            pickle.dumps(work.launch_on(GPUDevice()).output)
        )
        worker.post_shade(chunk, output)
        hits = worker.switch.counters.wildcard_hits
        assert hits > 0
        assert sum(
            entry.stats.packets for entry in worker.switch.wildcard.entries()
        ) == hits
        assert not any(
            entry.stats.packets for entry in master.switch.wildcard.entries()
        )


class TestCostHooks:
    def test_wildcard_entries_inflate_cpu_cost_not_worker(self):
        small = OpenFlowApp(openflow_workload(num_exact=10, num_wildcard=0).switch)
        large = OpenFlowApp(openflow_workload(num_exact=10, num_wildcard=256).switch)
        assert large.cpu_cycles_per_packet(64) > small.cpu_cycles_per_packet(64) + 3000
        assert large.worker_cycles_per_packet(64) == small.worker_cycles_per_packet(64)

    def test_wildcard_entries_inflate_gpu_kernel(self):
        small = OpenFlowApp(openflow_workload(num_exact=10, num_wildcard=0).switch)
        large = OpenFlowApp(openflow_workload(num_exact=10, num_wildcard=256).switch)
        assert (
            large.kernel_cost(64)[0].compute_cycles
            > small.kernel_cost(64)[0].compute_cycles
        )
