"""Experiment pipeline: named workloads and the end-to-end driver.

The benchmarks regenerate the paper's tables from named workloads whose
sizes scale with the ``REPRO_SCALE`` environment variable (``small`` by
default; ``paper`` for the closest laptop-feasible analogue of the paper's
dataset sizes).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "EndToEndReport": ".end_to_end",
    "WORKLOADS": ".workloads",
    "Workload": ".workloads",
    "get_scale": ".workloads",
    "make_quality_workload": ".workloads",
    "make_runtime_workload": ".workloads",
    "run_end_to_end": ".end_to_end",
    "workload_params": ".workloads",
})
