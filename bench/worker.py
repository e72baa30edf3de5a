"""One fresh benchmark worker: set up, one cold call, then warm calls.

    python bench/worker.py --workload NAME --input PATH --digest HEX
                           [--warm K] [--trace-out PATH]

Set-up is timed from the first line of this file: it covers the program's
imports and loading the input through the program's loaders.  Each call's
labels are checked against the reference digest after its wall is taken.
With ``--trace-out`` every call runs under its own ``repro.obs`` context,
yields the per-layer metrics of ``layers.py``, and the whole session is
written there as a Chrome trace.  Prints one JSON line.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from repro.obs import (NULL_OBS, observe, peak_rss_bytes,  # noqa: E402
                       use_obs, write_chrome_trace)

from layers import layer_metrics, reconciles  # noqa: E402
from workloads import WORKLOADS, Workload, label_digest  # noqa: E402


def _call(workload: Workload, data, expected: str, traced: bool,
          records: list) -> dict:
    ctx = observe() if traced else NULL_OBS
    # The previous call's garbage is collected off the clock, so no call
    # pays for another's.
    gc.collect()
    try:
        with use_obs(ctx):
            t0 = time.perf_counter()
            labels = workload.run(data)
            wall = time.perf_counter() - t0
    except Exception:  # a failed call is counted, and the session goes on
        traceback.print_exc()
        return {"wall_s": None, "ok": False}
    ok = label_digest(labels) == expected
    if not ok:
        print(f"{workload.name}: labels differ from the reference",
              file=sys.stderr)
    out = {"wall_s": wall, "ok": ok}
    if traced:
        records.extend(ctx.tracer.records)
        out["layers"] = layer_metrics(ctx.tracer.records,
                                      ctx.metrics.snapshot(), wall)
        out["reconciled"] = reconciles(out["layers"], wall)
    return out


def session(workload: Workload, path: Path, expected: str, warm: int,
            trace_out: Path | None = None, started: float = STARTED) -> dict:
    """Set up, run ``1 + warm`` calls, and report walls and checks."""
    traced = trace_out is not None
    ctx = observe() if traced else NULL_OBS
    with use_obs(ctx), ctx.tracer.span("bench.load") as load:
        data = workload.load(path)
    setup_s = time.perf_counter() - started
    records = list(ctx.tracer.records)
    calls = [_call(workload, data, expected, traced, records)
             for _ in range(1 + warm)]
    out = {"setup_s": setup_s, "peak_rss_mb": peak_rss_bytes() / 2**20,
           "calls": calls}
    if traced:
        out["io.load_s"] = load.duration
        write_chrome_trace(trace_out, records, min(r.start for r in records),
                           metadata={"workload": workload.name})
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--input", type=Path, required=True)
    parser.add_argument("--digest", required=True)
    parser.add_argument("--warm", type=int, default=5)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)
    result = session(WORKLOADS[args.workload], args.input, args.digest,
                     args.warm, args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
