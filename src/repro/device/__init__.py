"""Simulated GPU device substrate.

The paper runs its hot loops (min-wise hashing and segmented sorting of
batched adjacency lists) on a Tesla K20 through CUDA Thrust.  No GPU exists
in this environment, so this package provides the closest synthetic
equivalent that exercises the same code paths:

* a capacity-limited **device memory** that host code cannot read directly —
  data must move through explicit host<->device transfers, which are both
  wall-clock measured and costed by a PCIe transfer model (Table I's
  ``Data c->g`` / ``Data g->c`` columns);
* **data-parallel kernels** (elementwise transform, segmented sort, segmented
  top-s selection) implemented as whole-array vectorized NumPy over flat CSR
  buffers — bulk SIMD-style execution standing in for SIMT warps, contrasted
  against the faithful pure-Python serial reference the paper compares to;
* a **batch planner** that splits the input adjacency lists into batches that
  fit device memory, including the split-list bookkeeping of Section III-C;
* synchronous (Thrust-style) and asynchronous (double-buffered, the paper's
  stated future work) execution streams.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AlignmentBin": ".batching",
    "AlignmentBinPlan": ".batching",
    "Batch": ".batching",
    "BatchPlan": ".batching",
    "DeviceAligner": ".alignment",
    "DeviceBuffer": ".memory",
    "DeviceGroup": ".group",
    "DeviceMemory": ".memory",
    "DeviceMemoryError": ".memory",
    "DeviceSpec": ".timingmodels",
    "GroupTopology": ".group",
    "HostLink": ".group",
    "KernelCostModel": ".timingmodels",
    "SimulatedDevice": ".device",
    "TransferModel": ".timingmodels",
    "least_loaded_assignment": ".group",
    "plan_alignment_bins": ".batching",
    "plan_batches": ".batching",
})
