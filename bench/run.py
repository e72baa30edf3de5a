"""The benchmark: measured cold and warm wall time, with a per-layer trace.

    python bench/run.py                     # all workloads, 5 sessions each
    python bench/run.py --workload NAME --seed N --seconds T --trace 0|1

For each workload it first writes the seed's inputs and computes their
reference outputs, off the clock (``reference.py prepare``).  It then
runs fresh worker processes (``worker.py``) one at a time, a closed loop with
one client: each sets up, makes one cold call and ``WARM_CALLS`` warm calls.
With several workloads the sessions go round-robin, so slow drift of the
host spreads over all of them alike.

Without ``--seconds`` each workload gets ``SESSIONS`` timed sessions, then a
timed and a traced session back to back, and every metric is printed.  With
``--seconds`` the sessions repeat until that many seconds per workload have
passed: ``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates timed and traced sessions and reports the per-layer
metrics.  The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits 1 when any call failed its
check or a traced call did not reconcile, 2 when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

from compare import summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

SESSIONS = 5      # R: timed sessions per workload without --seconds
WARM_CALLS = 5    # K: warm calls after each session's cold call
TIMEOUT_S = 170   # one subprocess; a run must end within 180 s


class ProgramError(RuntimeError):
    """The program or its reference could not be run at all."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # One BLAS/OpenMP thread: with the main thread and the alignment copy
    # thread the load stays within two cores.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(args: list[str]) -> dict:
    """Run a bench script in a fresh interpreter; returns its JSON line."""
    try:
        proc = subprocess.run([sys.executable, *args], env=_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ProgramError(f"{args[0]} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ProgramError(f"{' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def prepare(workload: str, seed: int, directory: Path) -> dict:
    return _child([str(BENCH / "reference.py"), "prepare",
                   "--workload", workload, "--seed", str(seed),
                   "--dir", str(directory)])


def worker_session(workload: str, reference: dict,
                   trace_out: Path | None) -> dict:
    """One worker on one input; ``reference`` is its entry in the output
    of :func:`prepare`."""
    args = [str(BENCH / "worker.py"), "--workload", workload,
            "--input", reference["input"], "--digest", reference["digest"],
            "--warm", str(WARM_CALLS)]
    if trace_out is not None:
        args += ["--trace-out", str(trace_out)]
    try:
        return _child(args)
    except ProgramError as exc:
        # The whole session counts as failed calls; the run goes on.
        print(f"bench: {exc}", file=sys.stderr)
        return {"calls": [{"wall_s": None, "ok": False}] * (1 + WARM_CALLS)}


def run_sessions(workloads: list[str], traced: str,
                 session: Callable[[str, bool, int], dict],
                 seconds: float | None) -> dict[str, dict[str, list]]:
    """Run sessions round-robin over ``workloads``.

    ``session(workload, traced, i)`` runs a session on the workload's
    ``i``-th input (modulo the number of inputs).  ``traced`` is
    ``"never"``, ``"alternate"`` (a traced session after every timed one)
    or ``"last"`` (after the rounds, one more timed session and one traced
    session per workload).  Every traced session directly follows a timed
    session on the same input, its twin: the two see the same host
    conditions, which makes their ratio the tracing overhead.

    Without ``seconds`` there are :data:`SESSIONS` rounds; with it, rounds
    repeat while the next one is expected to end less than half a round
    past ``seconds`` per workload, so a run measures that long on average.
    """
    out = {w: {"timed": [], "traced": []} for w in workloads}

    def timed_and_traced(w: str) -> None:
        i = len(out[w]["timed"])
        out[w]["timed"].append(session(w, False, i))
        out[w]["traced"].append(session(w, True, i))

    start = time.monotonic()
    rounds = 0
    while True:
        for w in workloads:
            if traced == "alternate":
                timed_and_traced(w)
            else:
                out[w]["timed"].append(
                    session(w, False, len(out[w]["timed"])))
        rounds += 1
        elapsed = time.monotonic() - start
        if seconds is None:
            if rounds >= SESSIONS:
                break
        elif elapsed * (1 + 0.5 / rounds) >= seconds * len(workloads):
            break
    if traced == "last":
        for w in workloads:
            timed_and_traced(w)
    return out


def _ok_walls(sessions: list[dict], warm: bool) -> list[float]:
    calls = [c for s in sessions
             for c in (s["calls"][1:] if warm else s["calls"][:1])]
    return [c["wall_s"] for c in calls if c["ok"]]


def _metric(unit: str, samples: list[float]) -> dict:
    return {"unit": unit, **summarize(samples), "samples": samples}


def end_to_end(sessions: list[dict], prepared: dict, spec: dict) -> dict:
    ran = [s for s in sessions if "setup_s" in s]
    samples = {
        "wall_warm_s": _ok_walls(sessions, warm=True),
        "wall_cold_s": _ok_walls(sessions, warm=False),
        "setup_s": [s["setup_s"] for s in ran],
        "peak_rss_mb": [s["peak_rss_mb"] for s in ran],
        "ppv": [i["ppv"] for i in prepared["inputs"]],
        "se": [i["se"] for i in prepared["inputs"]],
    }
    return {m["name"]: _metric(m["unit"], samples[m["name"]])
            for m in spec["end_to_end"] if samples.get(m["name"])}


def per_layer(traced: list[dict], timed: list[dict], spec: dict) -> dict:
    """Per-layer metrics of a workload's traced sessions; ``timed`` are its
    timed sessions, the last ``len(traced)`` of them the twins."""
    ran = [s for s in traced if "io.load_s" in s]
    samples: dict[str, list[float]] = {
        "io.load_s": [s["io.load_s"] for s in ran]}
    for when, calls in (("cold", lambda s: s["calls"][:1]),
                        ("warm", lambda s: s["calls"][1:])):
        layered = [c["layers"] for s in ran for c in calls(s) if c["ok"]]
        for name in (layered[0] if layered else ()):
            samples[f"{name}.{when}"] = [c[name] for c in layered]
    samples["obs.overhead_pct"] = [
        100.0 * (statistics.median(with_obs) / statistics.median(without) - 1)
        for without, with_obs in (
            (_ok_walls([twin], warm=True), _ok_walls([s], warm=True))
            for twin, s in zip(timed[-len(traced):], traced))
        if without and with_obs]
    return {m["name"]: _metric(m["unit"], samples[m["name"]])
            for m in spec["per_layer"] if samples.get(m["name"])}


def tally(sessions: list[dict]) -> tuple[int, int]:
    """(attempted, failed) calls: a failed call raised or mismatched."""
    calls = [c for s in sessions for c in s["calls"]]
    return len(calls), sum(not c["ok"] for c in calls)


def unreconciled(sessions: list[dict]) -> int:
    return sum(not c.get("reconciled", True)
               for s in sessions for c in s["calls"] if c["ok"])


def report(workload: str, result: dict) -> str:
    lines = [f"{workload}: {result['attempted']} calls, "
             f"{result['failed']} failed, "
             f"{result['unreconciled']} traced calls not reconciled"]
    width = max((len(n) for n in result["metrics"]), default=0)
    lines.append(f"  {'metric':<{width}}  {'unit':<8}{'median':>12}"
                 f"{'q1':>12}{'q3':>12}{'n':>5}")
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<{width}}  {m['unit']:<8}{m['median']:>12.6g}"
                     f"{m['q1']:>12.6g}{m['q3']:>12.6g}{m['n']:>5}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, round-robin)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="run sessions until this many seconds per "
                             f"workload have passed (default: {SESSIONS} "
                             "sessions)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer "
                             "metrics only (default: both)")
    parser.add_argument("--out", type=Path,
                        help="also write the full results (samples, "
                             "quartiles) as JSON for compare.py")
    args = parser.parse_args(argv)
    workloads = [args.workload] if args.workload else names
    # A terminated run still stops its worker and removes its inputs.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    (WORK / "traces").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        prepared = {}
        for w in workloads:
            (work / w).mkdir()
            prepared[w] = prepare(w, args.seed, work / w)

        def session(w: str, traced: bool, i: int) -> dict:
            # Sessions alternate over the seed's inputs.
            inputs = prepared[w]["inputs"]
            trace_out = (WORK / "traces" / f"{w}-seed{args.seed}.json"
                         if traced else None)
            return worker_session(w, inputs[i % len(inputs)], trace_out)

        traced = {None: "last", 0: "never", 1: "alternate"}[args.trace]
        sessions = run_sessions(workloads, traced, session, args.seconds)
    except ProgramError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work)

    results = {}
    for w in workloads:
        timed, traced_s = sessions[w]["timed"], sessions[w]["traced"]
        attempted, failed = tally(timed + traced_s)
        metrics = {}
        if args.trace != 1:
            metrics.update(end_to_end(timed, prepared[w], spec))
        if args.trace != 0:
            metrics.update(per_layer(traced_s, timed, spec))
        results[w] = {"attempted": attempted, "failed": failed,
                      "unreconciled": unreconciled(traced_s),
                      "committed_match": prepared[w]["committed_match"],
                      "metrics": metrics}
        print(report(w, results[w]))
        if not prepared[w]["committed_match"]:
            print("  reference differs from bench/references.json; if the "
                  "output changed on purpose, run bench/reference.py write",
                  file=sys.stderr)

    if args.out:
        args.out.write_text(json.dumps(
            {"seed": args.seed, "workloads": results}, indent=1) + "\n")
    correct = all(r["failed"] == 0 and r["unreconciled"] == 0
                  and r["committed_match"] for r in results.values())

    def key(w: str, name: str) -> str:
        return name if len(workloads) == 1 else f"{w}.{name}"

    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {key(w, name): {"value": m["median"], "unit": m["unit"]}
                    for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
