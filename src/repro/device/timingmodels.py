"""Cost models for the simulated device.

Measured wall time of the NumPy kernels is what the benchmarks report as
"GPU time" (it is the genuine cost of executing the data-parallel formulation
on this machine).  Alongside, a *modeled* time is accumulated from these cost
models so reports can also show what a K20-class device behind a PCIe-2.0
link would spend; the two are kept in separate buckets (see
:class:`repro.util.timer.TimeBreakdown`) and never mixed.

Defaults approximate the paper's platform: a Tesla K20 (208 GB/s device
memory bandwidth, 3.52 Tflop/s single precision) on PCIe 2.0 x16
(~6 GB/s effective, ~10 us launch/transfer latency).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TransferModel:
    """Latency + bandwidth model for host<->device copies."""

    latency_s: float = 10e-6
    bandwidth_bytes_per_s: float = 6.0e9

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError("latency must be >= 0")
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be > 0")

    def seconds_for(self, nbytes: int) -> float:
        """Modeled seconds to move ``nbytes`` across the link."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return self.latency_s + nbytes / self.bandwidth_bytes_per_s


@dataclass(frozen=True)
class KernelCostModel:
    """Throughput model for device kernels, in elements per second.

    ``transform`` covers the elementwise hash map; ``sort`` the segmented
    sort (Thrust radix-sort class throughput); ``select`` the segmented
    top-s selection; ``reduce`` fingerprint folding and similar O(n) passes.

    **Launch-latency charging rule:** ``launch_latency_s`` models the
    *per-launch* host dispatch cost, so every kernel launch charges it once
    — :meth:`seconds_for` = latency + rate term.  A fused step that stands
    for ``k`` physical launches (e.g. a hash launch plus a pack launch)
    must charge ``k * seconds_for(...)``, i.e. ``k`` latencies, and record
    ``k`` launches.
    """

    launch_latency_s: float = 5e-6
    transform_eps: float = 40e9
    sort_eps: float = 1.0e9
    select_eps: float = 8e9
    reduce_eps: float = 20e9

    def _rates(self) -> dict[str, float]:
        rates = self.__dict__.get("_rates_cache")
        if rates is None:
            rates = {
                "transform": self.transform_eps,
                "sort": self.sort_eps,
                "select": self.select_eps,
                "reduce": self.reduce_eps,
            }
            object.__setattr__(self, "_rates_cache", rates)
        return rates

    def seconds_for(self, kernel: str, n_elements: int) -> float:
        """Modeled seconds for one launch: latency + rate term."""
        rates = self._rates()
        if kernel not in rates:
            raise ValueError(f"unknown kernel class {kernel!r}")
        if n_elements < 0:
            raise ValueError("n_elements must be >= 0")
        return self.launch_latency_s + n_elements / rates[kernel]


@dataclass(frozen=True)
class DeviceSpec:
    """Full device description: memory capacity plus the cost models.

    The default 5 GiB matches the K20's per-board memory, but benchmarks use
    much smaller capacities to force multi-batch execution at laptop scale
    (the paper's 2M graph vs. 5 GB forces the same batching).
    """

    memory_capacity_bytes: int = 5 * 2**30
    transfer: TransferModel = field(default_factory=TransferModel)
    kernels: KernelCostModel = field(default_factory=KernelCostModel)
    name: str = "sim-k20"

    def __post_init__(self) -> None:
        if self.memory_capacity_bytes <= 0:
            raise ValueError("memory capacity must be > 0")
