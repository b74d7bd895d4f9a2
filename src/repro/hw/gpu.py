"""GPU device model: a GTX480-like SIMT processor (paper Section 2).

The device does two things at once:

* **executes real kernels** — a kernel here is a Python callable operating
  on numpy arrays (the lookup kernels, the AES/SHA1 kernels).  Results are
  bit-exact and tested against CPU references;
* **charges modelled time** using an SM/warp analytic model: per-SM time is
  the max of an *issue-bound* term (warps x compute cycles, since a warp
  instruction retires per issue slot) and a *latency-bound* term (dependent
  memory accesses exposed when too few warps are resident to hide them),
  and the whole device is additionally bounded by global memory bandwidth.
  This reproduces the paper's central observation (Section 2.3/Figure 2):
  throughput proportional to parallelism, poor at small batches, an order
  of magnitude over CPU at large ones.

Launch-time accounting follows Section 2.2: a fixed ~3.8 us launch latency
plus ~73 ps per thread, PCIe transfer times from the Table 1 fit, and a
per-batch host synchronisation overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from repro.calib.constants import GPU, GPUModel
from repro.faults.errors import GPULaunchError, GPUTimeoutError
from repro.faults.plan import FaultInjector, Sites
from repro.hw.pcie import PCIeLink
from repro.obs import LATENCY_NS_BUCKETS, get_registry, names


@dataclass(frozen=True)
class KernelSpec:
    """Cost description of one GPU kernel.

    ``compute_cycles`` is per thread.  ``mem_accesses`` counts *dependent*
    scattered table accesses per thread (each moves one 128 B transaction
    and serializes within the thread).  ``stream_bytes`` counts
    sequentially-streamed bytes per thread (coalesced, bandwidth-friendly),
    e.g. the packet payload an AES thread reads and writes.
    """

    name: str
    compute_cycles: float = 0.0
    mem_accesses: float = 0.0
    stream_bytes: float = 0.0
    #: Fraction of peak bandwidth streaming access achieves (coalesced).
    stream_efficiency: float = 0.80
    #: Warp-divergence issue multiplier (Section 5.5): the mean number
    #: of distinct code paths per warp.  1.0 = divergence-free (all the
    #: paper's kernels); compute it from per-packet path labels with
    #: :func:`repro.hw.divergence.divergent_execution_factor`.
    divergence_factor: float = 1.0
    #: The function run for real: fn(device, *args) -> result arrays.
    fn: Optional[Callable] = None

    def __post_init__(self) -> None:
        if self.compute_cycles < 0 or self.mem_accesses < 0 or self.stream_bytes < 0:
            raise ValueError("kernel costs must be non-negative")
        if self.divergence_factor < 1.0:
            raise ValueError("divergence factor cannot be below 1.0")


@dataclass
class LaunchResult:
    """Timing breakdown (ns) and output of one kernel launch."""

    kernel: str
    n_threads: int
    h2d_ns: float
    launch_ns: float
    exec_ns: float
    d2h_ns: float
    sync_ns: float
    output: object = None

    @property
    def total_ns(self) -> float:
        return self.h2d_ns + self.launch_ns + self.exec_ns + self.d2h_ns + self.sync_ns


class GPUDevice:
    """One GTX480-like device with its PCIe link and memory allocator."""

    def __init__(
        self,
        device_id: int = 0,
        node: int = 0,
        model: GPUModel = GPU,
        pcie: Optional[PCIeLink] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        self.device_id = device_id
        self.node = node
        self.model = model
        self.fault_injector = fault_injector
        self.pcie = (
            pcie if pcie is not None else PCIeLink(fault_injector=fault_injector)
        )
        self._allocated = 0
        self._allocations = {}
        self._next_handle = 1
        self.busy_ns = 0.0
        self.launches = 0
        self.launch_errors = 0
        registry = get_registry()
        device = str(device_id)
        self._m_launches = registry.counter(
            names.GPU_LAUNCHES, help="kernel launches", device=device
        )
        self._m_launch_errors = registry.counter(
            names.GPU_LAUNCH_ERRORS, help="launches failed by fault injection",
            device=device,
        )
        self._m_busy_ns = registry.counter(
            names.GPU_BUSY_NS, help="modelled device-busy nanoseconds",
            device=device,
        )
        self._h_launch_ns = registry.histogram(
            names.GPU_LAUNCH_TOTAL_NS, buckets=LATENCY_NS_BUCKETS,
            help="modelled sync+launch+h2d+exec+d2h time per launch",
            device=device,
        )

    # ------------------------------------------------------------------
    # Device memory allocator (holds forwarding tables, packet buffers).
    # ------------------------------------------------------------------

    def alloc(self, nbytes: int) -> int:
        """Allocate device memory; returns an opaque handle.

        Raises ``MemoryError`` beyond the 1.5 GB of a GTX480 — forwarding
        tables and batch buffers must genuinely fit (a real constraint the
        paper's DIR-24-8 table, at 64 MB, easily satisfies).
        """
        if nbytes <= 0:
            raise ValueError(f"allocation must be positive, got {nbytes}")
        if self._allocated + nbytes > self.model.device_memory:
            raise MemoryError(
                f"device {self.device_id}: out of device memory "
                f"({self._allocated + nbytes} > {self.model.device_memory})"
            )
        handle = self._next_handle
        self._next_handle += 1
        self._allocations[handle] = nbytes
        self._allocated += nbytes
        return handle

    def free(self, handle: int) -> None:
        """Release a previous allocation."""
        nbytes = self._allocations.pop(handle, None)
        if nbytes is None:
            raise KeyError(f"unknown device allocation handle {handle}")
        self._allocated -= nbytes

    @property
    def allocated_bytes(self) -> int:
        return self._allocated

    # ------------------------------------------------------------------
    # Timing model.
    # ------------------------------------------------------------------

    def launch_latency_ns(self, n_threads: int) -> float:
        """Kernel launch latency (Section 2.2: 3.8 us + ~73 ps/thread)."""
        if n_threads < 0:
            raise ValueError("thread count must be non-negative")
        return (
            self.model.launch_latency_ns
            + n_threads * self.model.launch_latency_per_thread_ns
        )

    def execution_time_ns(self, spec: KernelSpec, n_threads: int) -> float:
        """Modelled kernel execution time for ``n_threads``.

        Per SM: ``max(issue-bound, latency-bound)`` where the latency term
        divides the exposed memory stalls by the number of resident warps
        (the Section 2.1 latency-hiding mechanism — with one warp the full
        latency is exposed; with 32 it is almost entirely hidden).  The
        device total is additionally floored by global memory bandwidth.
        """
        if n_threads <= 0:
            return 0.0
        m = self.model
        threads_per_sm = math.ceil(n_threads / m.num_sms)
        warps_per_sm = math.ceil(threads_per_sm / m.warp_size)
        resident = min(warps_per_sm, m.max_warps_per_sm)
        issue_cycles = warps_per_sm * spec.compute_cycles * spec.divergence_factor
        stall_cycles = warps_per_sm * spec.mem_accesses * m.mem_latency_cycles
        latency_cycles = stall_cycles / resident
        sm_time_ns = max(issue_cycles, latency_cycles) * m.cycle_ns
        bw_time_ns = 0.0
        if spec.mem_accesses:
            scattered_bytes = n_threads * spec.mem_accesses * m.transaction_bytes
            bw_time_ns += scattered_bytes * 1e9 / (
                m.mem_bandwidth * m.scattered_bw_efficiency
            )
        if spec.stream_bytes:
            stream_bytes = n_threads * spec.stream_bytes
            bw_time_ns += stream_bytes * 1e9 / (
                m.mem_bandwidth * spec.stream_efficiency
            )
        return max(sm_time_ns, bw_time_ns)

    def launch(
        self,
        spec: KernelSpec,
        n_threads: int,
        bytes_in: int,
        bytes_out: int,
        args: tuple = (),
        include_sync: bool = True,
    ) -> LaunchResult:
        """Run one kernel launch: h2d copy, execute, d2h copy.

        ``bytes_in``/``bytes_out`` are the host<->device transfer sizes for
        this batch (e.g. 4 B per packet of IPv4 destination addresses in,
        4 B of next hops out — the Section 5.3 workflow).  If ``spec.fn``
        is set it is invoked as ``fn(*args)`` and its return value becomes
        ``result.output`` — that is the *real* computation.
        """
        if n_threads < 0 or bytes_in < 0 or bytes_out < 0:
            raise ValueError("launch sizes must be non-negative")
        if self.fault_injector is not None:
            if self.fault_injector.should_fire(Sites.GPU_TIMEOUT):
                # A straggler holds the device until the watchdog budget
                # expires: the wasted time is real (charged busy) even
                # though the launch produces nothing.
                timeout_ns = self.model.launch_latency_ns * 100.0
                self.busy_ns += timeout_ns
                self.launch_errors += 1
                self._m_launch_errors.inc()
                raise GPUTimeoutError(
                    f"device {self.device_id}: kernel {spec.name} exceeded "
                    f"the {timeout_ns:.0f} ns watchdog budget"
                )
            if self.fault_injector.should_fire(Sites.GPU_LAUNCH):
                self.launch_errors += 1
                self._m_launch_errors.inc()
                raise GPULaunchError(
                    f"device {self.device_id}: launch of {spec.name} rejected"
                )
        h2d_ns = self.pcie.transfer_h2d(bytes_in) if bytes_in else 0.0
        launch_ns = self.launch_latency_ns(n_threads)
        exec_ns = self.execution_time_ns(spec, n_threads)
        d2h_ns = self.pcie.transfer_d2h(bytes_out) if bytes_out else 0.0
        sync_ns = self.model.sync_overhead_ns if include_sync else 0.0
        output = spec.fn(*args) if spec.fn is not None else None
        result = LaunchResult(
            kernel=spec.name,
            n_threads=n_threads,
            h2d_ns=h2d_ns,
            launch_ns=launch_ns,
            exec_ns=exec_ns,
            d2h_ns=d2h_ns,
            sync_ns=sync_ns,
            output=output,
        )
        self.busy_ns += result.total_ns
        self.launches += 1
        self._m_launches.inc()
        self._m_busy_ns.inc(result.total_ns)
        self._h_launch_ns.observe(result.total_ns)
        return result

    def streamed_time_ns(
        self,
        spec: KernelSpec,
        n_threads_per_batch: int,
        bytes_in: int,
        bytes_out: int,
        n_batches: int,
    ) -> float:
        """Total time for ``n_batches`` with concurrent copy and execution.

        Models the Section 5.4 "concurrent copy and execution" stream
        optimization: consecutive batches pipeline their h2d / exec / d2h
        stages, so steady-state cost per batch is the *max* stage, not the
        sum.  One batch still pays the full sum plus the per-call CUDA
        stream overhead the paper observed ("non-trivial overhead for each
        CUDA library function call") — modelled as half the sync overhead
        per extra batch.
        """
        if n_batches <= 0:
            return 0.0
        h2d = self.pcie.h2d_time_ns(bytes_in)
        execute = self.execution_time_ns(spec, n_threads_per_batch)
        d2h = self.pcie.d2h_time_ns(bytes_out)
        launch = self.launch_latency_ns(n_threads_per_batch)
        first = h2d + execute + d2h + launch + self.model.sync_overhead_ns
        steady = max(h2d, execute, d2h) + 0.5 * self.model.sync_overhead_ns
        return first + (n_batches - 1) * steady

    def reset_counters(self) -> None:
        """Zero the busy-time and launch counters."""
        self.busy_ns = 0.0
        self.launches = 0
        self.pcie.reset_counters()
