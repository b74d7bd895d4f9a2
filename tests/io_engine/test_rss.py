"""Toeplitz RSS: Microsoft test vectors, flow affinity, NUMA steering,
and the batched steering path checked against the bit-serial reference."""

import random

import pytest

from repro.io_engine.rss import MICROSOFT_RSS_KEY, RSSHasher, steer
from repro.net.arp import arp_request_frame
from repro.net.ethernet import VLANTag, add_vlan_tag
from repro.net.ipv4 import PROTO_ICMP, PROTO_TCP
from repro.net.packet import (
    FiveTuple,
    PacketParseError,
    build_tcp_ipv4,
    build_udp_ipv4,
    build_udp_ipv6,
    parse_packet,
)


def v4_flow(src, dst, sport, dport):
    return FiveTuple(src_ip=src, dst_ip=dst, src_port=sport,
                     dst_port=dport, protocol=17, is_ipv6=False)


class TestToeplitzVectors:
    """The canonical 'Verifying the RSS Hash Calculation' vectors."""

    def setup_method(self):
        self.hasher = RSSHasher(queue_map=[0], key=MICROSOFT_RSS_KEY)

    def _hash_v4(self, src_str, dst_str, sport, dport):
        from repro.net.addrs import ip4_from_str

        flow = v4_flow(ip4_from_str(src_str), ip4_from_str(dst_str), sport, dport)
        return self.hasher.hash_flow(flow)

    def test_vector_1(self):
        # dst 161.142.100.80:1766 <- src 66.9.149.187:2794
        assert self._hash_v4(
            "66.9.149.187", "161.142.100.80", 2794, 1766
        ) == 0x51CCC178

    def test_vector_2(self):
        assert self._hash_v4(
            "199.92.111.2", "65.69.140.83", 14230, 4739
        ) == 0xC626B0EA

    def test_vector_3(self):
        assert self._hash_v4(
            "24.19.198.95", "12.22.207.184", 12898, 38024
        ) == 0x5C2B394A

    def test_vector_ipv6_1(self):
        from repro.net.addrs import ip6_from_str

        flow = FiveTuple(
            src_ip=ip6_from_str("3ffe:2501:200:1fff::7"),
            dst_ip=ip6_from_str("3ffe:2501:200:3::1"),
            src_port=2794,
            dst_port=1766,
            protocol=17,
            is_ipv6=True,
        )
        assert self.hasher.hash_flow(flow) == 0x40207D3D


class TestFlowAffinity:
    def test_same_flow_same_queue(self):
        hasher = RSSHasher(queue_map=list(range(4)))
        flow = v4_flow(1, 2, 3, 4)
        assert hasher.queue_for(flow) == hasher.queue_for(flow)

    def test_different_flows_spread(self):
        """Random flows should land roughly evenly across 4 queues."""
        import random

        rng = random.Random(3)
        hasher = RSSHasher(queue_map=list(range(4)))
        counts = [0, 0, 0, 0]
        for _ in range(2000):
            flow = v4_flow(
                rng.getrandbits(32), rng.getrandbits(32),
                rng.randint(1, 65535), rng.randint(1, 65535),
            )
            counts[hasher.queue_for(flow)] += 1
        for count in counts:
            assert 350 < count < 650  # within ~30% of perfect 500

    def test_numa_steering_restricts_queue_set(self):
        """The Section 4.5 fix: only local-node queues in the map."""
        local_queues = [0, 1, 2]  # node-0 cores only
        hasher = RSSHasher(queue_map=local_queues)
        import random

        rng = random.Random(5)
        for _ in range(500):
            flow = v4_flow(rng.getrandbits(32), rng.getrandbits(32), 1, 2)
            assert hasher.queue_for(flow) in local_queues


class TestValidation:
    def test_empty_queue_map_rejected(self):
        with pytest.raises(ValueError):
            RSSHasher(queue_map=[])

    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            RSSHasher(queue_map=[0], key=bytes(8))

    def test_input_longer_than_key_window_rejected(self):
        hasher = RSSHasher(queue_map=[0])
        with pytest.raises(ValueError):
            hasher.toeplitz(bytes(40))

    def test_tuple_bytes_layout(self):
        flow = v4_flow(0x01020304, 0x05060708, 0x0A0B, 0x0C0D)
        assert RSSHasher.tuple_bytes(flow) == bytes.fromhex(
            "01020304050607080a0b0c0d"
        )


def reference_queues(frames, num_queues, rr):
    """What steer must return: RSSHasher over parse_packet, frame by frame."""
    hasher = RSSHasher(queue_map=range(num_queues))
    queues = []
    for frame in frames:
        try:
            flow = parse_packet(bytes(frame)).five_tuple()
        except PacketParseError:
            flow = None
        if flow is None:
            queues.append(rr % num_queues)
            rr += 1
        else:
            queues.append(hasher.queue_for(flow))
    return queues, rr


def mutation_corpus(seed):
    """Frames at and past every edge of the hashable rule."""
    rng = random.Random(seed)
    udp4 = build_udp_ipv4(0x0A000001, 0xC0A80102, 1234, 80, frame_len=78)
    tcp4 = build_tcp_ipv4(0x0A000003, 0xC0A80104, 4321, 443, frame_len=78)
    udp6 = build_udp_ipv6(1 << 100, 7 << 64, 5353, 53, frame_len=78)
    tcp6 = bytearray(udp6)
    tcp6[20] = PROTO_TCP
    tcp6[54 + 12] = 0x50  # data offset 5
    bases = (udp4, tcp4, udp6, tcp6)
    corpus = [base[:length] for base in bases for length in range(79)]
    ihl6 = bytearray(udp4)
    ihl6[14] = 0x46
    short_offset = bytearray(tcp4)
    short_offset[34 + 12] = 0x40
    icmp = bytearray(udp4)
    icmp[23] = PROTO_ICMP
    corpus += [
        bytearray(arp_request_frame(0x001B21000001, 0x0A000001, 0x0A000002)),
        bytearray(add_vlan_tag(bytes(udp4), VLANTag(vid=7))),
        ihl6, short_offset, icmp,
    ]
    for _ in range(300):
        frame = bytearray(rng.choice(bases))
        frame[rng.randrange(12, 70)] = rng.randrange(256)
        corpus.append(frame[:rng.randrange(len(frame) - 24, len(frame) + 1)])
    corpus += [bytearray(rng.randbytes(rng.randrange(100))) for _ in range(200)]
    return corpus


def generator_stream(app):
    from repro.gen.workloads import ipv4_workload, ipv6_workload

    if app == "ipv4":
        return ipv4_workload(num_routes=64, seed=3).generator.ipv4_burst(512)
    return ipv6_workload(num_routes=64, seed=3).generator.ipv6_burst(512)


class TestSteerOracle:
    """steer == RSSHasher.queue_for + parse_packet, with rr carried."""

    @pytest.mark.parametrize("num_queues", [1, 2, 3, 4])
    @pytest.mark.parametrize("stream", ["ipv4", "ipv6", "mutations"])
    def test_matches_reference_across_bursts(self, stream, num_queues):
        frames = (
            mutation_corpus(seed=7) if stream == "mutations"
            else generator_stream(stream)
        )
        queues, rr = [], 5
        for start in range(0, len(frames), 61):
            burst, rr = steer(frames[start:start + 61], num_queues, rr)
            queues += burst.tolist()
        assert (queues, rr) == reference_queues(frames, num_queues, 5)

    @pytest.mark.parametrize("num_queues", [1, 3])
    def test_uniform_truncated_bursts(self, num_queues):
        """Same-length bursts take FrameBatch's matrix path."""
        rr = 0
        for frame in mutation_corpus(seed=7)[:4 * 79]:
            burst = [frame] * 3
            queues, next_rr = steer(burst, num_queues, rr)
            assert (queues.tolist(), next_rr) == reference_queues(
                burst, num_queues, rr
            )
            rr = next_rr

    def test_empty_burst_keeps_the_counter(self):
        queues, rr = steer([], 4, 9)
        assert len(queues) == 0 and rr == 9
