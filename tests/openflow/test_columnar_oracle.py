"""Differential tests: the columnar OpenFlow data path vs the scalar switch.

:class:`~repro.apps.openflow.OpenFlowApp` packs keys, hashes them and
scans the compiled wildcard table as column operations.  Its oracle is
:meth:`~repro.openflow.switch.OpenFlowSwitch.process_frame`, run frame
by frame on an identically built switch.  The app's policy on top of the
oracle is:

* a frame whose key extraction raises ``ValueError`` is dropped;
* a table miss is slow-path (the oracle queues it for the controller);
* a hit whose first output is CONTROLLER is slow-path and queued;
* a hit with no outputs is dropped, otherwise it forwards to the first.

Each test compares verdicts, ports, rewritten frame bytes, the three
``SwitchCounters``, per-entry stats of both tables and the controller
queue, contents and order.  Inputs are a seeded mutation corpus; the
tables change between chunks (wildcard adds, exact adds, removals and
FIFO evictions), so a stale compiled table or bucket count shows.
"""

import pickle
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.openflow import OpenFlowApp
from repro.core.chunk import Chunk, Disposition
from repro.net.ethernet import VLANTag, add_vlan_tag
from repro.net.frames import FrameBatch
from repro.net.packet import build_tcp_ipv4, build_udp_ipv4
from repro.openflow.actions import (
    PORT_CONTROLLER,
    Action,
    ActionType,
    output,
)
from repro.openflow.flowkey import (
    KEY_LAYOUT,
    FlowKey,
    extract_flow_key,
    pack_flow_keys,
    unpack_flow_keys,
)
from repro.openflow.flowtable import WildcardEntry, fnv1a_hash, fnv1a_hash_rows
from repro.openflow.switch import OpenFlowSwitch

IPS = [0x0A000001 | (i << 8) | (i << 16) for i in range(10)] + [0xC0A80101]
PORTS = [53, 80, 443, 5000]
IN_PORTS = (0, 1, 2)

KINDS = (
    "udp", "tcp", "icmp", "vlan", "qinq", "truncated", "short-l4",
    "ihl", "version", "non-ip", "tcp-offset", "random",
)


def _l4_frame(rng):
    src, dst = rng.choice(IPS), rng.choice(IPS)
    sport, dport = rng.choice(PORTS), rng.choice(PORTS)
    if rng.random() < 0.5:
        return build_tcp_ipv4(src, dst, sport, dport,
                              frame_len=rng.randint(54, 80))
    return build_udp_ipv4(src, dst, sport, dport,
                          frame_len=rng.randint(42, 80))


def mutant(kind, rng):
    """One frame of a mutation kind (deterministic in ``rng``)."""
    if kind == "random":
        return bytearray(rng.getrandbits(8) for _ in range(rng.randint(0, 80)))
    frame = _l4_frame(rng)
    if kind == "udp":
        return build_udp_ipv4(rng.choice(IPS), rng.choice(IPS),
                              rng.choice(PORTS), rng.choice(PORTS))
    if kind == "icmp":
        frame[14 + 9] = 1
    elif kind in ("vlan", "qinq"):
        tag = VLANTag(rng.randrange(8), pcp=rng.randrange(8), dei=rng.randrange(2))
        frame = bytearray(add_vlan_tag(bytes(frame), tag))
        if kind == "qinq":
            frame = bytearray(add_vlan_tag(bytes(frame), VLANTag(1)))
    elif kind == "truncated":
        if rng.random() < 0.3:
            frame = bytearray(add_vlan_tag(bytes(frame), VLANTag(3)))
        frame = frame[:rng.randint(0, len(frame))]
    elif kind == "short-l4":
        frame = frame[:34 + rng.randint(0, 19)]
    elif kind == "ihl":
        frame[14] = 0x40 | rng.choice([0, 1, 4, 6, 15])
    elif kind == "version":
        frame[14] = (rng.choice([0, 5, 6, 15]) << 4) | 5
    elif kind == "non-ip":
        frame[12:14] = rng.choice([0x86DD, 0x0806, 0x88CC]).to_bytes(2, "big")
    elif kind == "tcp-offset":
        frame = build_tcp_ipv4(1, 2, 3, 4)
        frame[14 + 20 + 12] = rng.randrange(0x50)
    return frame


def chunk_plan(seed, chunks=12):
    """``[(in_port, frames)]``: non-uniform chunks with uniform ones mixed in."""
    rng = random.Random(seed)
    plan = []
    for number in range(chunks):
        if number % 4 == 3:  # a uniform batch: the grid fast path
            frames = [mutant("udp", rng) for _ in range(rng.randint(1, 40))]
        else:
            frames = [mutant(rng.choice(KINDS), rng)
                      for _ in range(rng.randint(1, 40))]
        plan.append((rng.choice(IN_PORTS), frames))
    return plan


def _key_of(frame, in_port):
    try:
        return extract_flow_key(bytes(frame), in_port)
    except ValueError:
        return None


def _action_list(rng):
    return rng.choice([
        output(rng.randrange(4)),
        [],
        output(PORT_CONTROLLER),
        [Action(ActionType.SET_NW_DST, rng.choice(IPS)),
         Action(ActionType.SET_TP_SRC, 7), Action(ActionType.OUTPUT, 3)],
        [Action(ActionType.SET_DL_SRC, 0xAABBCCDDEEFF),
         Action(ActionType.OUTPUT, 1), Action(ActionType.OUTPUT, 2)],
    ])


def _wildcard_rules(rng, keys):
    """Rules drawn from real keys, so they hit: CIDR masks, the mask-0
    quirk (a present IP field compares all 32 bits), a CONTROLLER
    output, a drop, equal priorities and a value no key can carry."""
    return [
        WildcardEntry(9, {"nw_dst": rng.choice(keys).nw_dst,
                          "dl_type": 0x0800},
                      _action_list(rng), nw_dst_mask=rng.choice((16, 24, 30))),
        WildcardEntry(8, {"nw_proto": 6, "tp_dst": 443}, output(PORT_CONTROLLER)),
        WildcardEntry(8, {"dl_vlan": rng.randrange(8)}, output(2)),
        WildcardEntry(7, {"nw_src": rng.choice(keys).nw_src},
                      _action_list(rng)),
        WildcardEntry(6, {"tp_dst": rng.choice(keys).tp_dst, "in_port": 1},
                      []),
        WildcardEntry(5, {"tp_src": 1 << 16}, output(0)),
        WildcardEntry(4, {"nw_src": rng.choice(keys).nw_src,
                          "dl_src": rng.choice(keys).dl_src},
                      _action_list(rng), nw_src_mask=16),
        WildcardEntry(3, {"dl_type": 0x86DD}, output(1)),
    ]


def build_switch(seed, plan):
    """A small bounded switch seeded from the plan's first chunks."""
    rng = random.Random(seed * 7919)
    keys = [
        key for in_port, frames in plan[:3] for frame in frames
        if (key := _key_of(frame, in_port)) is not None
    ] or [extract_flow_key(bytes(build_udp_ipv4(1, 2, 3, 4)), 0)]
    switch = OpenFlowSwitch(num_buckets=16, max_exact_entries=24)
    for key in rng.sample(keys, min(10, len(keys))):
        switch.add_exact_flow(key, _action_list(rng))
    for entry in _wildcard_rules(rng, keys):
        switch.add_wildcard_flow(entry)
    return switch


def mutate_tables(switch, rng):
    """Between chunks: learn punted flows (evicting past the bound),
    remove one exact flow, and add a wildcard rule."""
    queue = switch.controller_queue
    for key, _ in queue[len(queue) - rng.randint(0, 8):]:
        switch.add_exact_flow(key, _action_list(rng))
    live = [key for bucket in switch.exact._buckets for key, _, _ in bucket]
    if live and rng.random() < 0.5:
        switch.exact.remove(rng.choice(live))
    if switch.controller_queue and rng.random() < 0.5:
        key = rng.choice(switch.controller_queue)[0]
        switch.add_wildcard_flow(WildcardEntry(
            rng.randint(0, 10),
            {"nw_dst": key.nw_dst, "nw_proto": key.nw_proto},
            _action_list(rng),
        ))


def run_oracle(switch, in_port, frames):
    """Frame by frame through ``process_frame``; returns verdicts."""
    verdicts = []
    for frame in frames:
        key = _key_of(frame, in_port)
        if key is None:
            verdicts.append((Disposition.DROP, None))
            continue
        queued = len(switch.controller_queue)
        outputs, _ = switch.process_frame(frame, in_port)
        if len(switch.controller_queue) > queued:
            verdicts.append((Disposition.SLOW_PATH, None))
        elif not outputs:
            verdicts.append((Disposition.DROP, None))
        elif outputs[0] == PORT_CONTROLLER:
            switch.controller_queue.append((key, bytes(frame)))
            verdicts.append((Disposition.SLOW_PATH, None))
        else:
            verdicts.append((Disposition.FORWARD, outputs[0]))
    return verdicts


def run_columnar(app, in_port, frames, use_gpu):
    """One chunk through the app; the GPU mode pickles the work item
    and the kernel output across a process-style boundary."""
    chunk = Chunk(frames=frames, in_port=in_port)
    if use_gpu:
        work = app.pre_shade(chunk)
        if work is not None:
            work = pickle.loads(pickle.dumps(work))
            app.bind_kernel(work)
            app.post_shade(chunk, pickle.loads(pickle.dumps(work.spec.fn(*work.args))))
    else:
        app.cpu_process(chunk)
    verdicts = [(v.disposition, v.out_port) for v in chunk.verdicts]
    return verdicts, [bytes(frame) for frame in chunk.frames]


def table_state(switch):
    exact = sorted(
        (key.pack(), stats.packets, stats.bytes)
        for bucket in switch.exact._buckets for key, _, stats in bucket
    )
    wildcard = [(e.priority, e.stats.packets, e.stats.bytes)
                for e in switch.wildcard.entries()]
    counters = (switch.counters.exact_hits, switch.counters.wildcard_hits,
                switch.counters.misses)
    return counters, exact, wildcard, list(switch.controller_queue)


def assert_same_run(seed, use_gpu, plan, oracle, columnar):
    app = OpenFlowApp(columnar)
    rng_oracle, rng_columnar = random.Random(seed), random.Random(seed)
    for number, (in_port, frames) in enumerate(plan):
        oracle_frames = [bytearray(frame) for frame in frames]
        expected = run_oracle(oracle, in_port, oracle_frames)
        verdicts, out_frames = run_columnar(
            app, in_port, [bytearray(frame) for frame in frames], use_gpu
        )
        assert verdicts == expected, f"chunk {number}"
        assert out_frames == [bytes(frame) for frame in oracle_frames]
        assert table_state(columnar) == table_state(oracle), f"chunk {number}"
        mutate_tables(oracle, rng_oracle)
        mutate_tables(columnar, rng_columnar)


class TestMutationCorpus:
    @pytest.mark.parametrize("use_gpu", [True, False], ids=["gpu", "cpu"])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_matches_scalar_switch(self, seed, use_gpu):
        plan = chunk_plan(seed)
        assert_same_run(seed, use_gpu, plan,
                        build_switch(seed, plan), build_switch(seed, plan))

    def test_corpus_reaches_every_disposition(self):
        """The corpus is adversarial enough to matter: every verdict
        kind, evictions, and controller-bound wildcard hits occur."""
        seen = set()
        switch = None
        for seed in (1, 2, 3):
            plan = chunk_plan(seed)
            switch = build_switch(seed, plan)
            rng = random.Random(seed)
            for in_port, frames in plan:
                for verdict, _ in run_oracle(switch, in_port, frames):
                    seen.add(verdict)
                mutate_tables(switch, rng)
        assert seen == {Disposition.FORWARD, Disposition.DROP,
                        Disposition.SLOW_PATH}
        assert switch.exact.evictions > 0
        assert switch.counters.exact_hits and switch.counters.wildcard_hits


class TestKeyPacking:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_pack_matches_extract_flow_key(self, seed):
        for in_port, frames in chunk_plan(seed):
            keys, ok = pack_flow_keys(FrameBatch.from_frames(frames), in_port)
            for row, frame in enumerate(frames):
                key = _key_of(frame, in_port)
                assert ok[row] == (key is not None)
                if key is not None:
                    assert bytes(keys[row]) == key.pack()
            assert unpack_flow_keys(keys[ok]) == [
                _key_of(frame, in_port) for frame, good in zip(frames, ok) if good
            ]

    def test_hash_rows_match_scalar_hash(self):
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 256, size=(50, 31), dtype=np.uint8)
        assert fnv1a_hash_rows(keys).tolist() == [
            fnv1a_hash(bytes(row)) for row in keys
        ]


#: Packed keys the wildcard property runs against.
CORPUS_KEYS = [
    key for in_port, frames in chunk_plan(21, chunks=8) for frame in frames
    if (key := _key_of(frame, in_port)) is not None
]


@st.composite
def wildcard_entries(draw):
    source = draw(st.sampled_from(CORPUS_KEYS))
    names = draw(st.lists(st.sampled_from(FlowKey.FIELD_NAMES),
                          unique=True, max_size=4))
    fields = {}
    for name in names:
        bits = 8 * KEY_LAYOUT[name][1]
        fields[name] = draw(st.one_of(
            st.just(getattr(source, name)),
            st.integers(0, (1 << bits) - 1),
            st.integers(1 << bits, (1 << bits) + 2),
            st.integers(-2, -1),
        ))
    return WildcardEntry(
        priority=draw(st.integers(0, 4)),
        fields=fields,
        actions=draw(st.sampled_from(
            [output(1), [], output(PORT_CONTROLLER)]
        )),
        nw_src_mask=draw(st.integers(0, 32)),
        nw_dst_mask=draw(st.integers(0, 32)),
    )


class TestWildcardProperty:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(wildcard_entries(), max_size=12))
    def test_first_match_is_lookup(self, entries):
        switch = OpenFlowSwitch()
        for entry in entries:
            switch.add_wildcard_flow(entry)
        keys = np.array([list(key.pack()) for key in CORPUS_KEYS],
                        dtype=np.uint8)
        table = switch.wildcard.entries()
        expected = []
        for key in CORPUS_KEYS:
            entry, _ = switch.wildcard.lookup(key)
            expected.append(-1 if entry is None else
                            next(i for i, e in enumerate(table) if e is entry))
        assert switch.wildcard.first_match(keys).tolist() == expected

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(wildcard_entries(), max_size=8), st.booleans())
    def test_app_matches_switch_under_random_rules(self, entries, use_gpu):
        plan = chunk_plan(31, chunks=4)
        switches = []
        for _ in range(2):
            switch = OpenFlowSwitch(num_buckets=16)
            for key in CORPUS_KEYS[:6]:
                switch.add_exact_flow(key, output(3))
            for entry in entries:
                switch.add_wildcard_flow(pickle.loads(pickle.dumps(entry)))
            switches.append(switch)
        assert_same_run(31, use_gpu, plan, *switches)
