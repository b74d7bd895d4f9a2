"""The OpenFlow switch application (paper Section 6.2.3).

Division of labour, exactly as the paper describes: "we offload hash
value calculation and the wildcard matching to GPU, while leaving others
in CPU for load distribution".  The data path is columnar end to end:

* **pre-shade** packs every frame's ten-field key into one ``(n, 31)``
  uint8 matrix (:func:`~repro.openflow.flowkey.pack_flow_keys`) and
  drops the frames the key parse rejects — shorter than an Ethernet
  header, a truncated 802.1Q tag, an IPv4 header that is not version 4
  with IHL 5, or a TCP data offset below 5.  The GPU work item carries
  only the key matrix.
* **the kernel** returns ``(hash uint32[n], wildcard index int32[n])``:
  the FNV-1a hash of each key and the index of the first matching rule
  in the wildcard table (-1 for none), from the rules compiled into a
  mask/value match table.  Indices, not rule objects, cross the plane
  boundary, so each worker counts hits on its own table.
* **post-shade** probes the exact-match table with the precomputed hash
  only for keys whose bucket is non-empty, picks exact over wildcard,
  applies actions to the hits, and queues misses (and hits whose action
  outputs to the controller) for the controller in packet order.  Only
  controller-bound packets and probed keys get a
  :class:`~repro.openflow.flowkey.FlowKey`.

``cpu_process`` runs the same three steps in the worker.  The scalar
oracle is :meth:`repro.openflow.switch.OpenFlowSwitch.process_frame`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.calib.constants import APPS, GPU_KERNELS
from repro.core.application import GPUWorkItem, RouterApplication
from repro.core.chunk import Chunk
from repro.hw.gpu import KernelSpec
from repro.openflow.actions import PORT_CONTROLLER, apply_actions
from repro.openflow.flowkey import KEY_BYTES, pack_flow_keys, unpack_flow_keys
from repro.openflow.flowtable import fnv1a_hash_rows
from repro.openflow.switch import OpenFlowSwitch


class OpenFlowApp(RouterApplication):
    """An OpenFlow 0.8.9 switch on the PacketShader framework."""

    name = "openflow"

    def __init__(self, switch: OpenFlowSwitch) -> None:
        self.switch = switch

    # ------------------------------------------------------------------
    # Functional path.
    # ------------------------------------------------------------------

    def _pack_keys(self, chunk: Chunk) -> np.ndarray:
        """Packed keys of the chunk; frames the parse rejects drop."""
        keys, ok = pack_flow_keys(chunk.batch(), chunk.in_port)
        chunk.set_drop(~ok)
        return keys

    def _classify(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The GPU kernel body: key hashes and first wildcard matches.

        Both halves are data-parallel over packets, which is why the
        paper offloads exactly these.
        """
        return fnv1a_hash_rows(keys), self.switch.wildcard.first_match(keys)

    def _resolve(self, chunk: Chunk, keys, hashes, wildcard_index) -> None:
        """Post-shading: exact probe, precedence, actions, punts."""
        pending = np.flatnonzero(chunk.pending_mask())
        if not pending.size:
            return
        switch = self.switch
        frames = chunk.frames
        exact_actions = {}
        is_exact = np.zeros(len(pending), dtype=bool)
        probe = np.flatnonzero(switch.exact.occupied(hashes[pending]))
        probed = pending[probe]
        for position, index, key, key_hash in zip(
            probe.tolist(),
            probed.tolist(),
            unpack_flow_keys(keys[probed]),
            hashes[probed].tolist(),
        ):
            actions, _ = switch.exact.lookup(
                key, key_hash, frame_len=len(frames[index])
            )
            if actions is not None:
                exact_actions[index] = actions
                is_exact[position] = True
        is_wildcard = ~is_exact & (wildcard_index[pending] >= 0)
        hits = pending[is_exact | is_wildcard]
        punted = pending[~is_exact & ~is_wildcard].tolist()
        switch.counters.exact_hits += len(exact_actions)
        switch.counters.wildcard_hits += int(is_wildcard.sum())
        switch.counters.misses += len(punted)

        entries = switch.wildcard.entries()
        forward, ports, dropped = [], [], []
        for index, rule in zip(hits.tolist(), wildcard_index[hits].tolist()):
            frame = frames[index]
            actions = exact_actions.get(index)
            if actions is None:
                entries[rule].stats.count(len(frame))
                actions = entries[rule].actions
            _, outputs = apply_actions(frame, actions)
            if outputs and outputs[0] != PORT_CONTROLLER:
                forward.append(index)
                ports.append(outputs[0])
            elif outputs:
                punted.append(index)
            else:
                dropped.append(index)
        chunk.set_forward(forward, ports)
        chunk.set_drop(dropped)
        chunk.set_slow_path(punted)
        punted.sort()
        switch.controller_queue.extend(
            zip(
                unpack_flow_keys(keys[punted]),
                (bytes(frames[index]) for index in punted),
            )
        )

    def pre_shade(self, chunk: Chunk) -> Optional[GPUWorkItem]:
        keys = self._pack_keys(chunk)
        chunk.app_state = keys  # stashed for post-shading
        if not chunk.pending_mask().any():
            return None
        spec, _ = self.kernel_cost(64)
        spec = KernelSpec(
            name=spec.name,
            compute_cycles=spec.compute_cycles,
            mem_accesses=spec.mem_accesses,
            fn=self._classify,
        )
        return GPUWorkItem(
            spec=spec,
            threads=len(chunk),
            bytes_in=KEY_BYTES * len(chunk),  # packed ten-field keys
            bytes_out=8 * len(chunk),  # hash + wildcard result index
            args=(keys,),
        )

    def kernel_fn(self, name: str):
        if name == "openflow_hash_wildcard":
            return self._classify
        return None

    def post_shade(self, chunk: Chunk, gpu_output) -> None:
        if gpu_output is None:
            return
        self._resolve(chunk, chunk.app_state, *gpu_output)

    def cpu_process(self, chunk: Chunk) -> None:
        keys = self._pack_keys(chunk)
        if chunk.pending_mask().any():
            self._resolve(chunk, keys, *self._classify(keys))

    # ------------------------------------------------------------------
    # Cost hooks.
    # ------------------------------------------------------------------

    def cpu_cycles_per_packet(self, frame_len: int) -> float:
        return (
            APPS.of_extract_cycles
            + APPS.of_hash_cycles
            + APPS.of_exact_probe_cpu_cycles
            + len(self.switch.wildcard) * APPS.of_wildcard_entry_cycles
            + APPS.of_action_cycles
        )

    def worker_cycles_per_packet(self, frame_len: int) -> float:
        return (
            APPS.of_extract_cycles
            + APPS.of_exact_probe_gpu_mode_cycles
            + APPS.of_action_cycles
        )

    def kernel_cost(self, frame_len: int) -> Tuple[KernelSpec, float]:
        spec = KernelSpec(
            name="openflow_hash_wildcard",
            compute_cycles=(
                GPU_KERNELS.of_compute_cycles
                + len(self.switch.wildcard)
                * GPU_KERNELS.of_wildcard_entry_cycles
            ),
            mem_accesses=GPU_KERNELS.of_mem_accesses,
        )
        return spec, 1.0

    def gpu_bytes_per_packet(self, frame_len: int) -> Tuple[float, float]:
        return float(KEY_BYTES), 8.0
