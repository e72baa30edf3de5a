"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

import compare
import layers
import reference
import run
import worker
from workloads import GRAPH, SEQUENCES, Workload, label_digest

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())


def _tiny_graph():
    from repro.synthdata.planted import (PlantedFamilyConfig,
                                         planted_family_graph)

    planted = planted_family_graph(
        PlantedFamilyConfig(n_families=4, family_size_median=60), seed=5)
    return planted.graph, planted.family_labels


def _tiny_proteins():
    from repro.sequence.generator import (SequenceFamilyConfig,
                                          generate_protein_families)

    proteins = generate_protein_families(
        SequenceFamilyConfig(n_families=4, family_size_median=6), seed=5)
    return proteins.sequences, proteins.family_labels


TINY = [Workload("tiny-graph", GRAPH, _tiny_graph, {"c1": 12, "c2": 6}),
        Workload("tiny-seqs", SEQUENCES, _tiny_proteins, {"c1": 12, "c2": 6})]


@pytest.fixture(params=TINY, ids=lambda w: w.name)
def tiny(request, tmp_path):
    """A tiny workload with its seed-1 input and reference digest."""
    workload = request.param
    [(path, _)] = workload.make_inputs(1, 1, tmp_path)
    data = workload.load(path)
    return workload, path, label_digest(
        reference.reference_labels(workload, data))


# ------------------------------------------------------------------ #
# Statistics and verdicts
# ------------------------------------------------------------------ #

def test_summarize_gives_median_quartiles_and_count():
    assert compare.summarize([5.0, 1.0, 4.0, 2.0, 3.0]) == {
        "median": 3.0, "q1": 1.5, "q3": 4.5, "n": 5}
    assert compare.summarize([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0,
                                        "n": 1}
    with pytest.raises(ValueError):
        compare.summarize([])


def _side(median, q1, q3, samples=None):
    side = {"median": median, "q1": q1, "q3": q3, "n": 10}
    if samples is not None:
        side["samples"] = samples
    return side


BASE = _side(1.0, 0.99, 1.01)


@pytest.mark.parametrize("new, bound, better, expected", [
    (_side(1.20, 1.19, 1.21), 0.10, "lower", compare.REGRESSED),
    (_side(1.05, 1.04, 1.06), 0.10, "lower", compare.NO_WORSE),
    (_side(1.005, 1.0, 1.01), 0.10, "lower", compare.NO_WORSE),
    (_side(0.90, 0.89, 0.91), 0.10, "lower", compare.BETTER),
    (_side(0.85, 0.84, 0.86), 0.10, "higher", compare.REGRESSED),
    (_side(1.00, 0.80, 1.20), 0.10, "lower", compare.UNRESOLVED),
    (_side(1.00, 0.98, 1.02), 0.01, "lower", compare.UNRESOLVED),
])
def test_verdict(new, bound, better, expected):
    assert compare.verdict(BASE, new, bound, better) == expected


def test_wide_spread_is_resolved_when_every_new_sample_wins():
    base = _side(1.0, 0.8, 1.2, samples=[0.8, 1.0, 1.2])
    new = _side(0.5, 0.4, 0.6, samples=[0.4, 0.5, 0.6])
    assert compare.verdict(base, new, 0.1, "lower") == compare.BETTER
    new["samples"].append(0.9)
    assert compare.verdict(base, new, 0.1, "lower") == compare.UNRESOLVED


# ------------------------------------------------------------------ #
# Output schema
# ------------------------------------------------------------------ #

def _fake_session(traced: bool) -> dict:
    call = {"wall_s": 1.0, "ok": True}
    if traced:
        call.update(layers={m: 1.0 for m in layers.CALL_METRICS},
                    reconciled=True)
    session = {"setup_s": 0.3, "peak_rss_mb": 100.0,
               "calls": [dict(call) for _ in range(1 + run.WARM_CALLS)]}
    if traced:
        session["io.load_s"] = 0.01
    return session


def test_per_layer_names_match_what_the_worker_measures():
    measured = {"io.load_s", "obs.overhead_pct"} | {
        f"{m}.{when}" for m in layers.CALL_METRICS for when in ("cold", "warm")}
    assert {m["name"] for m in SPEC["per_layer"]} == measured


def test_every_metric_is_reported_for_every_workload_with_unit_and_n():
    prepared = {"inputs": [{"ppv": 0.98, "se": 0.16}] * 2}
    for workload in SPEC["workloads"]:
        timed = [_fake_session(False) for _ in range(2)]
        traced = [_fake_session(True)]
        reported = {**run.end_to_end(timed, prepared, SPEC),
                    **run.per_layer(traced, timed, SPEC)}
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            entry = reported[metric["name"]]
            assert entry["unit"] == metric["unit"], workload["name"]
            assert entry["n"] >= 1
            assert {"median", "q1", "q3"} <= entry.keys()


# ------------------------------------------------------------------ #
# Sessions
# ------------------------------------------------------------------ #

def test_digest_mismatch_counts_as_a_failure(tiny):
    workload, path, digest = tiny
    good = worker.session(workload, path, digest, warm=1,
                          started=time.perf_counter())
    bad = worker.session(workload, path, "0" * 64, warm=1,
                         started=time.perf_counter())
    assert run.tally([good]) == (2, 0)
    assert run.tally([bad]) == (2, 2)
    assert run.end_to_end([bad], {"inputs": [{"ppv": 1.0, "se": 1.0}]},
                          SPEC).get("wall_cold_s") is None


def test_sessions_run_round_robin():
    order = []

    def session(w, traced, i):
        order.append((w, traced, i))
        return _fake_session(traced)

    run.run_sessions(["a", "b", "c"], "last", session, seconds=None)
    n = run.SESSIONS
    assert order == [(w, False, i) for i in range(n) for w in "abc"] + [
        s for w in "abc" for s in ((w, False, n), (w, True, n))]
    order.clear()
    run.run_sessions(["a", "b"], "alternate", session, seconds=0)
    assert order == [("a", False, 0), ("a", True, 0),
                     ("b", False, 0), ("b", True, 0)]


def test_traced_calls_reconcile(tiny, tmp_path):
    workload, path, digest = tiny
    trace = tmp_path / "trace.json"
    result = worker.session(workload, path, digest, warm=2, trace_out=trace,
                            started=time.perf_counter())
    for call in result["calls"]:
        assert call["ok"] and call["reconciled"], call["layers"]
        assert call["layers"]["clustering.s"] > 0
        assert (call["layers"]["homology.s"] > 0) == (workload.kind
                                                      == SEQUENCES)
    from repro.obs import load_trace

    names = {e["name"] for e in load_trace(trace)["traceEvents"]}
    assert {"bench.load", "bench.clustering", "gpclust.run"} <= names


def test_outermost_counts_nested_spans_once():
    from repro.obs import SpanRecord

    records = [SpanRecord("x", 0.0, 1.0, "main", "main"),
               SpanRecord("x", 0.2, 0.5, "main", "main"),
               SpanRecord("x", 2.0, 3.0, "main", "main"),
               SpanRecord("x", 2.0, 3.0, "main", "main"),
               SpanRecord("x", 0.5, 0.7, "main", "copy")]
    assert layers.span_seconds(records, {"x"}) == pytest.approx(2.2)


# ------------------------------------------------------------------ #
# Inputs and references
# ------------------------------------------------------------------ #

def test_seed_relabels_the_same_input(tmp_path):
    workload = TINY[0]
    made = {}
    for seed, sub in ((1, "a"), (1, "b"), (2, "c")):
        (tmp_path / sub).mkdir()
        made[sub] = [(workload.load(path), truth) for path, truth
                     in workload.make_inputs(seed, 2, tmp_path / sub)]
    (g1, t1), (g1b, t1b), (g2, t2) = made["a"][0], made["b"][0], made["c"][0]
    assert not np.array_equal(g1.indices, made["a"][1][0].indices)
    assert np.array_equal(g1.indices, g1b.indices)
    assert np.array_equal(t1, t1b)
    assert not np.array_equal(g1.indices, g2.indices)
    assert g1.n_edges == g2.n_edges
    assert np.array_equal(np.sort(g1.degrees()), np.sort(g2.degrees()))
    assert np.array_equal(np.bincount(t1), np.bincount(t2))


def test_reference_path_matches_the_serial_oracle(tiny):
    workload, path, digest = tiny
    assert label_digest(reference.serial_labels(
        workload, workload.load(path))) == digest
