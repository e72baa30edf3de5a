"""Ablation — asynchronous (overlapped) transfers, modeled.

The paper's future work: "the data transfer overhead ... can be eliminated
through asynchronous data transfer" / "better performance could be achieved
through asynchronous operations provided in CUDA C/C++."

The pipeline is synchronous, like the paper's.  We measure its Table-I
buckets and report the bound overlap could reach: with perfect overlap the
transfer time hides under compute, so
``modeled_async_total = cpu + max(gpu, c2g + g2c)``.
"""

from __future__ import annotations

from repro.core.pipeline import GpClust
from repro.device.timingmodels import DeviceSpec
from repro.pipeline.workloads import make_runtime_workload, workload_params
from repro.util.tables import format_seconds, format_table, table_payload
from repro.util.timer import BUCKET_C2G, BUCKET_CPU, BUCKET_G2C, BUCKET_GPU


def test_ablation_async_transfers(benchmark, scale, report_writer):
    pg = make_runtime_workload("2m", scale)
    params = workload_params(scale)
    # Small device memory => many batches => transfers matter.
    spec = DeviceSpec(memory_capacity_bytes=16 * 2**20)

    result = benchmark.pedantic(
        lambda: GpClust(params, device_spec=spec).run(pg.graph),
        rounds=1, iterations=1)

    bt = result.timings
    transfers = bt.get(BUCKET_C2G) + bt.get(BUCKET_G2C)
    modeled_async = bt.get(BUCKET_CPU) + max(bt.get(BUCKET_GPU), transfers)
    headers = ["mode", "CPU", "GPU", "transfers", "total (bucket sum)",
               "perfect-overlap bound"]
    table_rows = [["sync",
                   format_seconds(bt.get(BUCKET_CPU)),
                   format_seconds(bt.get(BUCKET_GPU)),
                   format_seconds(transfers),
                   format_seconds(bt.total),
                   format_seconds(modeled_async)]]
    title = (f"Ablation — synchronous transfers and their overlap bound "
             f"(scale={scale})")
    report_writer("ablation_async",
                  format_table(headers, table_rows, title=title),
                  data=[table_payload(title, headers, table_rows)])

    assert modeled_async <= bt.total
