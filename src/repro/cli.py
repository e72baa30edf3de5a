"""Command-line interface: ``python -m repro <command>``.

Subcommands
-----------
``generate``
    Write a planted-family benchmark graph (``.npz`` CSR + ``.labels.npz``
    ground truth) or a synthetic protein FASTA.
``cluster``
    Cluster a graph file with gpClust (or the serial baseline) and write the
    per-vertex labels; prints the cluster summary and component timings.
``stats``
    Print Table-II-style statistics of a graph file.
``compare``
    Score a clustering (or compute one) against a benchmark labels file:
    PPV/NPV/SP/SE, density, partition statistics.
``pipeline``
    End to end from a FASTA file: homology graph construction
    (k-mer or suffix-array pair filter + batched Smith-Waterman), gpClust
    clustering, and a per-cluster report.
``obs``
    Observability utilities over traces written by ``--trace``:
    ``obs summary`` (where the time went), ``obs critical-path`` (the
    span chain bounding the run, with slack), ``obs attribute``
    (bottleneck attribution: utilization, modeled-vs-wall roofline gaps,
    ranked loss causes), ``obs diff runA runB`` (what shifted between
    two traced runs), and ``obs ledger`` (cross-run metric trajectories
    with EWMA drift detection from ``benchmarks/results/ledger/``).

Examples
--------
::

    python -m repro generate --families 20 --seed 7 --out bench
    python -m repro cluster bench.npz --out labels.npz --c1 100 --c2 50
    python -m repro stats bench.npz
    python -m repro compare bench.npz --benchmark bench.labels.npz
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.core.params import ShinglingParams
from repro.core.pipeline import cluster_graph
from repro.graph.io import save_npz, timed_load
from repro.util.tables import format_percent, format_seconds, format_table


#: ``--profile`` document schema: version 2 unifies the cluster/pipeline
#: shapes into one doc ({schema_version, metrics, spans?, device?,
#: homology?}) while keeping every version-1 key as an alias.
PROFILE_SCHEMA_VERSION = 2


def _params_from_args(args: argparse.Namespace,
                      parser: argparse.ArgumentParser) -> ShinglingParams:
    """The run's parameters; a rejected value is a usage error (exit 2)."""
    try:
        return ShinglingParams(s1=args.s1, c1=args.c1, s2=args.s2,
                               c2=args.c2, seed=args.seed, kernel=args.kernel,
                               streams=args.streams, devices=args.devices)
    except ValueError as exc:
        parser.error(str(exc))


def _homology_config_from_args(args: argparse.Namespace,
                               parser: argparse.ArgumentParser):
    """The pipeline's homology config; a rejected value is a usage error."""
    from repro.sequence.homology import HomologyConfig

    try:
        return HomologyConfig(pair_filter=args.pair_filter,
                              min_normalized_score=args.min_score,
                              n_jobs=args.jobs,
                              align_backend=args.align_backend,
                              devices=args.devices)
    except ValueError as exc:
        parser.error(str(exc))


def _make_device(params: ShinglingParams):
    """The run's explicit device: a group when more than one was asked."""
    from repro.device.device import SimulatedDevice
    from repro.device.group import DeviceGroup

    if params.devices > 1:
        return DeviceGroup(params.devices)
    return SimulatedDevice()


def _obs_requested(args: argparse.Namespace) -> bool:
    return (args.trace is not None or args.metrics_out is not None
            or args.profile is not None)


def _make_obs(args: argparse.Namespace):
    """The command's observability context (None when nothing was asked)."""
    if not _obs_requested(args):
        return None
    from repro.obs import observe

    return observe(trace=args.trace is not None, metrics=True)


def _profile_doc(ctx, device=None, homology=None) -> dict:
    """The unified ``--profile`` JSON document (schema version 2).

    Version-1 consumers keep working: the device profile's ``kernels`` /
    ``transfers`` / ``scratch_pool`` keys are aliased at the top level
    (the old ``cluster --profile`` shape) and the ``homology`` / ``device``
    keys match the old ``pipeline --profile`` shape.
    """
    doc: dict = {"schema_version": PROFILE_SCHEMA_VERSION,
                 "metrics": ctx.metrics.snapshot()}
    if ctx.tracer.enabled:
        doc["spans"] = ctx.tracer.summary()
    if device is not None:
        profile = device.profile()
        doc["device"] = profile
        doc["device_name"] = profile["device"]
        # v1 aliases at the top level (the old ``cluster --profile`` shape).
        for key in ("kernels", "transfers", "scratch_pool",
                    "measured_buckets_s"):
            doc[key] = profile[key]
    if homology is not None and homology.timings is not None:
        doc["homology"] = homology.timings.as_dict()
    return doc


def _emit_obs(args: argparse.Namespace, ctx, device=None,
              homology=None) -> None:
    """Write whatever ``--profile`` / ``--trace`` / ``--metrics-out`` asked."""
    import json

    if device is not None:
        device.sync_metrics()  # flush transfer/scratch gauges
    if args.profile is not None:
        report = json.dumps(_profile_doc(ctx, device=device,
                                         homology=homology),
                            indent=2, sort_keys=True)
        if args.profile == "-":
            print(report)
        else:
            Path(args.profile).write_text(report + "\n")
            print(f"profile written to {args.profile}")
    if args.trace is not None:
        from repro.obs import write_chrome_trace

        tracer = ctx.tracer
        write_chrome_trace(
            args.trace, tracer.records, tracer.t0,
            metadata={"command": args.command,
                      "metrics": ctx.metrics.snapshot(),
                      "spans": tracer.summary()})
        print(f"trace written to {args.trace} "
              "(load it at https://ui.perfetto.dev)")
    if args.metrics_out is not None:
        snapshot = {"schema_version": 1, **ctx.metrics.snapshot()}
        Path(args.metrics_out).write_text(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        print(f"metrics written to {args.metrics_out}")


def _add_param_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--s1", type=int, default=2, help="pass-1 shingle size")
    parser.add_argument("--c1", type=int, default=200, help="pass-1 trials")
    parser.add_argument("--s2", type=int, default=2, help="pass-2 shingle size")
    parser.add_argument("--c2", type=int, default=100, help="pass-2 trials")
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument("--kernel", choices=["select", "sort", "fused"],
                        default="fused",
                        help="device top-s kernel (fused = single-launch "
                             "hash+pack with on-device dedup reduction)")
    parser.add_argument("--streams", type=int, default=1,
                        help="trial chunks in flight at once on one device "
                             "(1 = the paper's synchronous pipeline; output "
                             "is identical for every count)")
    parser.add_argument("--devices", type=int, default=1,
                        help="simulated device count; more than one shards "
                             "trial chunks over a device group (not with "
                             "--streams > 1; output is identical for every "
                             "count)")


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.sequence.fasta import write_fasta
    from repro.sequence.generator import (SequenceFamilyConfig,
                                          generate_protein_families)
    from repro.synthdata.planted import (PlantedFamilyConfig,
                                         planted_family_graph)

    out = Path(args.out)
    if args.fasta:
        protein_set = generate_protein_families(
            SequenceFamilyConfig(n_families=args.families), seed=args.seed)
        path = out.with_suffix(".fasta")
        write_fasta(protein_set.as_fasta_records(), path)
        np.savez_compressed(out.with_suffix(".labels.npz"),
                            labels=protein_set.family_labels)
        print(f"wrote {protein_set.n_sequences} sequences to {path}")
        return 0
    planted = planted_family_graph(
        PlantedFamilyConfig(n_families=args.families), seed=args.seed)
    save_npz(planted.graph, out.with_suffix(".npz"))
    save_npz(planted.gos_graph, out.with_suffix(".gos.npz"))
    np.savez_compressed(out.with_suffix(".labels.npz"),
                        labels=planted.family_labels)
    print(f"wrote graph ({planted.graph.n_vertices} vertices, "
          f"{planted.graph.n_edges} edges) to {out.with_suffix('.npz')}")
    print(f"ground truth: {out.with_suffix('.labels.npz')}; GOS-pipeline "
          f"view: {out.with_suffix('.gos.npz')}")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    params = args.params
    if args.profile is not None and args.backend != "device":
        print("--profile requires --backend device; ignoring",
              file=sys.stderr)
        args.profile = None
    ctx = _make_obs(args)
    if ctx is None:
        result = cluster_graph(args.graph, params, backend=args.backend)
    else:
        from repro.obs import use_obs

        device = None
        with use_obs(ctx):
            if args.backend == "device":
                from repro.core.pipeline import GpClust

                graph, io_seconds = timed_load(args.graph)
                device = _make_device(params)
                result = GpClust(params).run(graph, io_seconds=io_seconds,
                                             device=device)
            else:
                result = cluster_graph(args.graph, params,
                                       backend=args.backend)
        _emit_obs(args, ctx, device=device)
    if args.out:
        np.savez_compressed(args.out, labels=result.labels)
        print(f"labels written to {args.out}")
    summary = result.summary()
    print(format_table(["key", "value"],
                       [[k, str(v)] for k, v in summary.items()],
                       title="clustering summary"))
    t = result.timings
    print(format_table(
        ["component", "seconds"],
        [[k, format_seconds(v)] for k, v in t.as_row().items()],
        title="component breakdown"))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.graph.stats import compute_graph_stats

    graph, io_seconds = timed_load(args.graph)
    stats = compute_graph_stats(graph)
    print(stats.render())
    print(f"(loaded in {format_seconds(io_seconds)}s; "
          f"{stats.n_singletons} singleton vertices excluded)")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.eval.confusion import quality_scores
    from repro.eval.density import density_summary
    from repro.eval.partition import Partition, partition_stats

    with np.load(args.benchmark) as data:
        benchmark = Partition(data["labels"])
    if args.labels:
        with np.load(args.labels) as data:
            test = Partition(data["labels"])
    else:
        params = args.params
        result = cluster_graph(args.graph, params, backend=args.backend)
        test = Partition(result.labels)

    qs = quality_scores(test, benchmark, min_size=args.min_size)
    graph, _ = timed_load(args.graph)
    dens = density_summary(graph, test, min_size=args.min_size)
    st = partition_stats(test, "clustering", min_size=args.min_size)
    print(format_table(
        ["metric", "value"],
        [["PPV", format_percent(qs.ppv)],
         ["NPV", format_percent(qs.npv)],
         ["Specificity", format_percent(qs.specificity)],
         ["Sensitivity", format_percent(qs.sensitivity)],
         ["Density", f"{dens[0]:.2f} ± {dens[1]:.2f}"],
         [f"#clusters(>={args.min_size})", str(st.n_groups)],
         ["#sequences clustered", str(st.n_sequences)]],
        title=f"quality vs. {args.benchmark}"))
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    from repro.sequence.alphabet import encode
    from repro.sequence.fasta import read_fasta
    from repro.sequence.homology import build_homology_graph

    records = read_fasta(args.fasta)
    sequences = [encode(seq) for _, seq in records]
    names = [header.split()[0] for header, _ in records]
    print(f"read {len(records)} sequences from {args.fasta}")

    if args.profile is not None and args.backend != "device":
        print("--profile requires --backend device; ignoring",
              file=sys.stderr)
        args.profile = None
    ctx = _make_obs(args)
    params = args.params
    homology_config = args.homology_config
    if ctx is None:
        homology = build_homology_graph(sequences, homology_config)
        print(f"homology: {homology.n_candidate_pairs} candidate pairs -> "
              f"{homology.n_edges} edges")
        result = cluster_graph(homology.graph, params, backend=args.backend)
    else:
        from repro.obs import use_obs

        device = None
        with use_obs(ctx):
            if args.backend == "device":
                # One device (or group) for the whole run: the alignment
                # offload (when --align-backend auto resolves to it) and the
                # clustering pass share its scratch pool, so --profile
                # shows the sw_* kernels next to the shingling ones.
                device = _make_device(params)
            homology = build_homology_graph(sequences, homology_config,
                                            device=device)
            print(f"homology: {homology.n_candidate_pairs} candidate pairs "
                  f"-> {homology.n_edges} edges")
            if args.backend == "device":
                from repro.core.pipeline import GpClust

                result = GpClust(params).run(homology.graph, device=device)
            else:
                result = cluster_graph(homology.graph, params,
                                       backend=args.backend)
        _emit_obs(args, ctx, device=device, homology=homology)
    clusters = result.clusters(min_size=args.min_size)
    rows = []
    for i, members in enumerate(sorted(clusters, key=len, reverse=True)):
        shown = ", ".join(names[v] for v in members[:6])
        more = ", ..." if members.size > 6 else ""
        rows.append([str(i), str(members.size), shown + more])
    print(format_table(["cluster", "size", "members"], rows,
                       title=f"clusters of size >= {args.min_size}",
                       align=["r", "r", "l"]))
    if args.out:
        np.savez_compressed(args.out, labels=result.labels)
        print(f"labels written to {args.out}")
    return 0


def cmd_obs_summary(args: argparse.Namespace) -> int:
    from repro.obs import load_trace, render_summary

    doc = load_trace(args.trace_file)
    print(render_summary(doc, top_n=args.top))
    return 0


def _print_obs_report(args: argparse.Namespace, payload: dict,
                      rendered: str) -> int:
    """Emit an analysis result as text (default) or JSON (``--json``)."""
    import json

    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(rendered)
    return 0


def cmd_obs_critical_path(args: argparse.Namespace) -> int:
    from repro.obs import critical_path, load_trace, render_critical_path

    cp = critical_path(load_trace(args.trace_file))
    return _print_obs_report(args, cp, render_critical_path(cp, top_n=args.top))


def cmd_obs_attribute(args: argparse.Namespace) -> int:
    import json

    from repro.obs import attribute, load_trace, render_attribution

    metrics = None
    if args.metrics is not None:
        metrics = json.loads(Path(args.metrics).read_text())
    report = attribute(load_trace(args.trace_file), metrics=metrics)
    return _print_obs_report(args, report, render_attribution(report))


def cmd_obs_diff(args: argparse.Namespace) -> int:
    from repro.obs import diff_traces, load_trace, render_diff

    diff = diff_traces(load_trace(args.trace_a), load_trace(args.trace_b))
    return _print_obs_report(args, diff, render_diff(diff, top_n=args.top))


def cmd_obs_ledger(args: argparse.Namespace) -> int:
    from repro.obs import ledger_report, load_ledger, render_ledger_report

    entries = load_ledger(args.dir, bench=args.bench)
    if not entries:
        print(f"no ledger entries under {args.dir}"
              + (f" for bench {args.bench!r}" if args.bench else ""))
        return 0
    report = ledger_report(entries, tolerance=args.tolerance)
    rendered = render_ledger_report(report, tolerance=args.tolerance,
                                    drift_only=args.drift_only)
    _print_obs_report(args, {"entries": len(entries), "report": report},
                      rendered)
    drifted = sum(1 for r in report if r["verdict"] == "DRIFT")
    if args.fail_on_drift and drifted:
        print(f"LEDGER DRIFT: {drifted} series outside the EWMA band",
              file=sys.stderr)
        return 1
    return 0


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a Chrome Trace Event JSON of the run "
                             "(Perfetto-loadable; pool workers and "
                             "simulated streams appear as separate tracks)")
    parser.add_argument("--metrics-out", dest="metrics_out", metavar="PATH",
                        default=None,
                        help="write the metrics snapshot (counters/gauges/"
                             "histograms: kernel launches, transfer bytes, "
                             "scratch reuse, dedup ratios, peak RSS) as JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="gpClust reproduction: Shingling-based protein family "
                    "identification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate benchmark data")
    p_gen.add_argument("--families", type=int, default=20)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output path stem")
    p_gen.add_argument("--fasta", action="store_true",
                       help="generate protein sequences instead of a graph")
    p_gen.set_defaults(func=cmd_generate)

    p_cluster = sub.add_parser("cluster", help="cluster a graph file")
    p_cluster.add_argument("graph", help="graph file (.npz or edge list)")
    p_cluster.add_argument("--out", help="write labels to this .npz")
    p_cluster.add_argument("--backend", choices=["device", "serial"],
                           default="device")
    p_cluster.add_argument("--profile", nargs="?", const="-", default=None,
                           metavar="PATH",
                           help="emit a per-kernel-launch timing/bytes "
                                "breakdown as JSON (to stdout, or to PATH "
                                "when given): cost-model launch counts, "
                                "transfer bytes, scratch-pool reuse counters")
    _add_obs_args(p_cluster)
    _add_param_args(p_cluster)
    p_cluster.set_defaults(func=cmd_cluster)

    p_stats = sub.add_parser("stats", help="graph statistics (Table II)")
    p_stats.add_argument("graph")
    p_stats.set_defaults(func=cmd_stats)

    p_cmp = sub.add_parser("compare", help="score against a benchmark")
    p_cmp.add_argument("graph")
    p_cmp.add_argument("--benchmark", required=True,
                       help=".npz with a 'labels' array (ground truth)")
    p_cmp.add_argument("--labels", help="precomputed clustering labels .npz")
    p_cmp.add_argument("--backend", choices=["device", "serial"],
                       default="device")
    p_cmp.add_argument("--min-size", type=int, default=20)
    _add_param_args(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_pipe = sub.add_parser("pipeline",
                            help="FASTA -> homology graph -> clusters")
    p_pipe.add_argument("fasta", help="input FASTA file of protein sequences")
    p_pipe.add_argument("--pair-filter", choices=["kmer", "suffix"],
                        default="kmer")
    p_pipe.add_argument("--min-score", type=float, default=0.40,
                        help="normalized Smith-Waterman edge threshold")
    p_pipe.add_argument("--min-size", type=int, default=3,
                        help="smallest cluster to report")
    p_pipe.add_argument("--backend", choices=["device", "serial"],
                        default="device")
    p_pipe.add_argument("--jobs", type=int, default=1,
                        help="alignment worker processes for homology-graph "
                             "construction (0 = all cores; results are "
                             "identical for any value; cannot be combined "
                             "with --devices > 1)")
    p_pipe.add_argument("--align-backend", dest="align_backend",
                        choices=["auto", "host"], default="auto",
                        help="Smith-Waterman scoring backend: auto scores "
                             "on a process pool when --jobs gives more than "
                             "one worker and every worker gets enough pairs, "
                             "else on the simulated device; host scores "
                             "in-process (the serial reference); scores and "
                             "edges are identical for both")
    p_pipe.add_argument("--profile", nargs="?", const="-", default=None,
                        metavar="PATH",
                        help="emit a JSON timing breakdown covering both "
                             "stages: homology per-stage wall clock (seed "
                             "filter / self-scores / alignment / graph "
                             "build) and the device kernel profile")
    p_pipe.add_argument("--out", help="write labels to this .npz")
    _add_obs_args(p_pipe)
    _add_param_args(p_pipe)
    p_pipe.set_defaults(func=cmd_pipeline)

    p_obs = sub.add_parser("obs", help="observability utilities")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_obs_summary = obs_sub.add_parser(
        "summary", help="where a traced run spent its time")
    p_obs_summary.add_argument("trace_file", metavar="trace.json",
                               help="trace written by --trace")
    p_obs_summary.add_argument("--top", type=int, default=15,
                               help="number of span rows to show")
    p_obs_summary.set_defaults(func=cmd_obs_summary)

    p_obs_cp = obs_sub.add_parser(
        "critical-path",
        help="the chain of spans that bounds a traced run's wall time")
    p_obs_cp.add_argument("trace_file", metavar="trace.json",
                          help="trace written by --trace")
    p_obs_cp.add_argument("--top", type=int, default=25,
                          help="number of (merged) path rows to show")
    p_obs_cp.add_argument("--json", action="store_true",
                          help="emit the machine-readable path instead of "
                               "the rendered table")
    p_obs_cp.set_defaults(func=cmd_obs_critical_path)

    p_obs_attr = obs_sub.add_parser(
        "attribute",
        help="bottleneck attribution: utilization, roofline gaps, and a "
             "ranked list of where the run lost time")
    p_obs_attr.add_argument("trace_file", metavar="trace.json",
                            help="trace written by --trace (metrics are "
                                 "read from its embedded snapshot)")
    p_obs_attr.add_argument("--metrics", metavar="PATH", default=None,
                            help="metrics snapshot JSON overriding the "
                                 "one embedded in the trace")
    p_obs_attr.add_argument("--json", action="store_true",
                            help="emit the machine-readable report")
    p_obs_attr.set_defaults(func=cmd_obs_attribute)

    p_obs_diff = obs_sub.add_parser(
        "diff", help="per-span and per-process deltas between two traces")
    p_obs_diff.add_argument("trace_a", metavar="runA.json",
                            help="baseline trace")
    p_obs_diff.add_argument("trace_b", metavar="runB.json",
                            help="comparison trace")
    p_obs_diff.add_argument("--top", type=int, default=15,
                            help="number of span-delta rows to show")
    p_obs_diff.add_argument("--json", action="store_true",
                            help="emit the machine-readable diff")
    p_obs_diff.set_defaults(func=cmd_obs_diff)

    p_obs_ledger = obs_sub.add_parser(
        "ledger",
        help="cross-run metric trajectories from the performance ledger")
    p_obs_ledger.add_argument("--dir", default="benchmarks/results/ledger",
                              help="ledger directory of .jsonl files")
    p_obs_ledger.add_argument("--bench", default=None,
                              help="restrict to one benchmark's entries")
    p_obs_ledger.add_argument("--tolerance", type=float, default=0.15,
                              help="EWMA drift band (fractional)")
    p_obs_ledger.add_argument("--drift-only", action="store_true",
                              help="show only series flagged as drifted")
    p_obs_ledger.add_argument("--fail-on-drift", action="store_true",
                              help="exit non-zero when any series drifted")
    p_obs_ledger.add_argument("--json", action="store_true",
                              help="emit the machine-readable report")
    p_obs_ledger.set_defaults(func=cmd_obs_ledger)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "s1"):  # a command that clusters
        args.params = _params_from_args(args, parser)
    if args.func is cmd_pipeline:
        args.homology_config = _homology_config_from_args(args, parser)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
