"""The traffic generator."""

import random

import pytest

from repro.gen.packetgen import PacketGenerator
from repro.net.packet import parse_packet
from repro.obs import get_registry, names


class TestDeterminism:
    def test_same_seed_same_traffic(self):
        a = PacketGenerator(seed=5).ipv4_burst(20)
        b = PacketGenerator(seed=5).ipv4_burst(20)
        assert [bytes(f) for f in a] == [bytes(f) for f in b]

    def test_different_seed_differs(self):
        a = PacketGenerator(seed=5).ipv4_burst(5)
        b = PacketGenerator(seed=6).ipv4_burst(5)
        assert [bytes(f) for f in a] != [bytes(f) for f in b]


class TestWorkloadShape:
    def test_random_destinations(self):
        """Section 6.1: random dst IPs and ports so every packet looks
        up a different entry."""
        generator = PacketGenerator(seed=1)
        frames = generator.ipv4_burst(200)
        dsts = {parse_packet(f).l3.dst for f in frames}
        ports = {parse_packet(f).l4.dst_port for f in frames}
        assert len(dsts) > 195
        assert len(ports) > 150

    def test_frame_sizes_exact(self):
        generator = PacketGenerator()
        for size in (64, 128, 1514):
            assert all(len(f) == size for f in generator.ipv4_burst(5, size))

    def test_ipv6_burst(self):
        generator = PacketGenerator(seed=2)
        frames = generator.ipv6_burst(10)
        assert all(parse_packet(f).is_ipv6 for f in frames)

    def test_generated_counter(self):
        generator = PacketGenerator()
        generator.ipv4_burst(3)
        generator.ipv6_burst(2)
        assert generator.generated == 5

    def test_address_workloads(self):
        generator = PacketGenerator(seed=3)
        v4 = generator.random_ipv4_addresses(100)
        v6 = generator.random_ipv6_addresses(100)
        assert all(0 <= a < (1 << 32) for a in v4)
        assert all(0 <= a < (1 << 128) for a in v6)
        assert len(set(v6)) == 100

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            PacketGenerator().ipv4_burst(-1)
        with pytest.raises(ValueError):
            PacketGenerator().ipv6_burst(-1)

    def test_frame_below_headers_rejected(self):
        with pytest.raises(ValueError):
            PacketGenerator().ipv4_burst(3, frame_len=41)

    def test_frames_counter_bumped_per_burst(self):
        generator = PacketGenerator()
        counter = get_registry().counter(names.GEN_FRAMES, family="ipv4")
        before = counter.value
        generator.ipv4_burst(300)
        generator.ipv4_burst(0)
        assert counter.value - before == 300


def _untemper(word: int) -> int:
    """The MT19937 state word that tempers to ``word``."""
    y = word ^ (word >> 18)
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(5):
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x
    for _ in range(3):
        x = y ^ (x >> 11)
    return x & 0xFFFFFFFF


def scripted_state(words):
    """A ``Random`` state whose next 32-bit outputs are ``words``."""
    version, internal, gauss = random.Random(0).getstate()
    start = 624 - len(words)
    mt = list(internal[:start]) + [_untemper(w) for w in words]
    return version, tuple(mt) + (start,), gauss


def twin_generators(state):
    """A generator for the burst under test and one for the oracle."""
    burst, oracle = PacketGenerator(), PacketGenerator()
    burst.rng.setstate(state)
    oracle.rng.setstate(state)
    return burst, oracle


#: Address words and port words that pass both ``randint`` draws.
ADDR = 0x0A0B0C0D
OK = 0x12345678
#: Top half 64,512: redrawn as a src port, accepted as a dst port.
SPORT_REJECT = 0xFC000001
#: Top half 65,535: redrawn as either port.
BOTH_REJECT = 0xFFFF1234


class TestBurstOracle:
    """Bursts equal a loop of scalar frame builds, byte for byte, and
    leave the RNG exactly where that loop leaves it."""

    IPV4_LENS = (42, 64, 128, 1514)
    IPV6_LENS = (62, 78, 1514)

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_bursts_interleaved_with_scalar_frames(self, seed):
        burst, oracle = PacketGenerator(seed), PacketGenerator(seed)
        for step, count in enumerate((0, 1, 7, 2048, 5)):
            v4_len = self.IPV4_LENS[(seed + step) % len(self.IPV4_LENS)]
            v6_len = self.IPV6_LENS[(seed + step) % len(self.IPV6_LENS)]
            assert burst.ipv4_burst(count, v4_len) == [
                oracle.random_ipv4_frame(v4_len) for _ in range(count)
            ]
            assert burst.rng.getstate() == oracle.rng.getstate()
            assert burst.random_ipv6_frame() == oracle.random_ipv6_frame()
            assert burst.ipv6_burst(count, v6_len) == [
                oracle.random_ipv6_frame(v6_len) for _ in range(count)
            ]
            assert burst.rng.getstate() == oracle.rng.getstate()
            assert burst.random_ipv4_frame() == oracle.random_ipv4_frame()
        assert burst.generated == oracle.generated

    def test_ipv6_short_frames_clamp_like_the_scalar_path(self):
        burst, oracle = PacketGenerator(4), PacketGenerator(4)
        assert burst.ipv6_burst(3, 40) == [
            oracle.random_ipv6_frame(40) for _ in range(3)
        ]

    # Port words of consecutive frames: each inner list is one frame's
    # src-port draws then its dst-port draws, redraws included.
    @pytest.mark.parametrize("ports", [
        pytest.param([[SPORT_REJECT, OK, OK]], id="sport-redraw"),
        pytest.param([[OK, BOTH_REJECT, OK]], id="dport-redraw"),
        pytest.param([[OK, SPORT_REJECT]], id="sport-reject-is-a-dport"),
        pytest.param(
            [[SPORT_REJECT, BOTH_REJECT, OK, BOTH_REJECT, BOTH_REJECT, OK]],
            id="runs-of-both",
        ),
        pytest.param([[OK, OK], [OK, BOTH_REJECT, OK]], id="last-frame-dport"),
        pytest.param([[OK, OK], [SPORT_REJECT, OK, OK]], id="last-frame-sport"),
        pytest.param(
            [[SPORT_REJECT] * 5 + [OK, OK], [OK, OK], [OK, BOTH_REJECT, OK]],
            id="redraws-past-the-first-draw",
        ),
    ])
    @pytest.mark.parametrize("family,addr_words", [("ipv4", 2), ("ipv6", 8)])
    def test_scripted_port_redraws(self, ports, family, addr_words):
        words = [w for frame in ports for w in [ADDR] * addr_words + frame]
        burst, oracle = twin_generators(scripted_state(words))
        count = len(ports)
        if family == "ipv4":
            expected = [oracle.random_ipv4_frame() for _ in range(count)]
            assert burst.ipv4_burst(count) == expected
        else:
            expected = [oracle.random_ipv6_frame() for _ in range(count)]
            assert burst.ipv6_burst(count) == expected
        assert burst.rng.getstate() == oracle.rng.getstate()
        # The script was consumed exactly: every redraw really happened.
        drained = random.Random()
        drained.setstate(scripted_state(words))
        assert [drained.getrandbits(32) for _ in words] == words
        assert drained.getstate() == oracle.rng.getstate()


class TestTimestamps:
    def test_timestamp_roundtrip(self):
        generator = PacketGenerator()
        frame = generator.random_ipv4_frame(128, timestamp_ns=123456789)
        assert PacketGenerator.read_timestamp(bytes(frame)) == 123456789

    def test_too_short_returns_none(self):
        assert PacketGenerator.read_timestamp(bytes(10)) is None


class TestPcapReplay:
    def test_sink_replays_through_generator(self, tmp_path):
        from repro.net.pcap import write_pcap

        generator = PacketGenerator(seed=9)
        frames = [bytes(f) for f in generator.ipv4_burst(12)]
        path = str(tmp_path / "trace.pcap")
        write_pcap(path, frames)
        replayed = PacketGenerator.replay_pcap(path)
        assert [bytes(f) for f in replayed] == frames
        assert all(isinstance(f, bytearray) for f in replayed)
