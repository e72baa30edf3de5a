"""Tests for the trace analytics engine: critical path, attribution, diff.

The critical-path property test exercises randomly-generated span
forests: for any trace, the extracted path length must dominate every
single track's busy time (the path can always follow the busiest track)
while never exceeding wall time (the path is a set of disjoint
timeline stretches).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    SpanRecord,
    attribute,
    critical_path,
    diff_traces,
    render_attribution,
    render_critical_path,
    render_diff,
    to_chrome_trace,
    trace_spans,
    track_busy_seconds,
)
from repro.obs.analysis import leaf_spans


def make_doc(spans):
    """Trace document from ``(name, proc, track, start_s, dur_s)`` tuples."""
    records = [SpanRecord(name, start, start + dur, proc, track)
               for name, proc, track, start, dur in spans]
    return to_chrome_trace(records, 0.0)


# A random "span forest": per track, a sequence of (gap, dur) pairs laid
# out left to right, so spans on one track never overlap (they nest or
# abut in real traces; disjoint is the leaf view the path walks).
track_strategy = st.lists(
    st.tuples(st.floats(0.0, 3.0), st.floats(0.01, 5.0)),
    min_size=1, max_size=6)
forest_strategy = st.lists(track_strategy, min_size=1, max_size=4)


def forest_to_doc(forest):
    spans = []
    for t_idx, segments in enumerate(forest):
        cursor = 0.0
        for s_idx, (gap, dur) in enumerate(segments):
            cursor += gap
            spans.append((f"work_{t_idx}_{s_idx}", f"proc{t_idx}",
                          f"track{t_idx}", cursor, dur))
            cursor += dur
    return make_doc(spans)


class TestCriticalPathProperties:
    @given(forest=forest_strategy)
    @settings(max_examples=100, deadline=None)
    def test_path_bounded_by_track_busy_and_wall(self, forest):
        doc = forest_to_doc(forest)
        cp = critical_path(doc)
        busy = track_busy_seconds(trace_spans(doc))
        max_busy = max(busy.values())
        wall = cp["wall_s"]
        tol = 1e-5  # critical_path rounds its outputs to 6 decimals
        assert cp["path_s"] >= max_busy - tol
        assert cp["path_s"] <= wall + tol
        # The walk partitions the wall into on-path work and idle gaps.
        assert abs(cp["path_s"] + cp["idle_s"] - wall) < tol

    @given(forest=forest_strategy)
    @settings(max_examples=100, deadline=None)
    def test_entries_are_disjoint_and_ordered(self, forest):
        cp = critical_path(forest_to_doc(forest))
        entries = cp["entries"]
        for a, b in zip(entries, entries[1:]):
            # Timeline order; the stretch each entry bounds ends where
            # the next one starts walking (entries never overlap).
            assert a["start_s"] <= b["start_s"] + 1e-9
        assert cp["bounding_proc"] is not None
        assert 0.0 < cp["bounding_share"] <= 1.0 + 1e-9


class TestCriticalPathUnits:
    def test_single_span_is_the_whole_path(self):
        cp = critical_path(make_doc([("run", "main", "main", 0.0, 2.0)]))
        assert cp["path_s"] == 2.0
        assert cp["idle_s"] == 0.0
        assert cp["bounding_proc"] == "main"
        assert cp["n_entries"] == 1

    def test_idle_gap_charged_as_slack(self):
        cp = critical_path(make_doc([
            ("a", "main", "main", 0.0, 1.0),
            ("b", "main", "main", 3.0, 1.0),
        ]))
        assert cp["wall_s"] == 4.0
        assert cp["path_s"] == 2.0
        assert cp["idle_s"] == 2.0
        # Slack lands on the entry that follows the gap.
        assert cp["entries"][1]["slack_s"] == 2.0

    def test_path_hops_to_the_bounding_track(self):
        # device0 works 0..4 while main only brackets the ends; the path
        # must route through device0 and credit it as bounding.
        cp = critical_path(make_doc([
            ("host_setup", "main", "main", 0.0, 1.0),
            ("kernel", "device0", "stream", 0.5, 3.5),
            ("host_teardown", "main", "main", 4.0, 1.0),
        ]))
        assert cp["bounding_proc"] == "device0"
        assert cp["idle_s"] == 0.0
        assert cp["path_s"] == 5.0
        names = [e["name"] for e in cp["entries"]]
        assert names == ["host_setup", "kernel", "host_teardown"]

    def test_nested_spans_walk_leaves_only(self):
        # Scaffolding (outer) must not appear on the path when inner
        # spans tile it.
        cp = critical_path(make_doc([
            ("outer", "main", "main", 0.0, 4.0),
            ("inner_a", "main", "main", 0.0, 2.0),
            ("inner_b", "main", "main", 2.0, 2.0),
        ]))
        assert [e["name"] for e in cp["entries"]] == ["inner_a", "inner_b"]
        assert cp["path_s"] == 4.0

    def test_empty_trace(self):
        cp = critical_path(make_doc([]))
        assert cp["path_s"] == 0.0
        assert cp["bounding_proc"] is None
        assert cp["entries"] == []

    def test_render_merges_repeated_entries(self):
        doc = make_doc([(f"chunk", "device0", "stream", float(i), 1.0)
                        for i in range(10)])
        text = render_critical_path(critical_path(doc))
        assert "chunk" in text
        assert "| 10 |" in text.replace("  ", " ").replace("  ", " ") or \
            "10" in text  # collapsed count column
        assert "bounded by device0/stream" in text


class TestLeafSpans:
    def test_leaves_exclude_parents(self):
        doc = make_doc([
            ("outer", "main", "main", 0.0, 4.0),
            ("inner", "main", "main", 1.0, 2.0),
        ])
        leaves = leaf_spans(trace_spans(doc))
        assert [s["name"] for s in leaves] == ["inner"]

    def test_same_interval_on_other_track_kept(self):
        doc = make_doc([
            ("a", "main", "main", 0.0, 2.0),
            ("b", "device0", "stream", 0.0, 2.0),
        ])
        leaves = leaf_spans(trace_spans(doc))
        assert len(leaves) == 2


def nested_forest(draw, start, end, depth):
    """Random properly nested ``(name, start, end, level)`` spans inside
    ``[start, end]``: a few disjoint level-0 spans, each holding a random
    forest of its own, ``depth`` levels deep."""
    spans = []
    if depth == 0:
        return spans
    cuts = sorted(draw(st.lists(st.floats(start, end), min_size=0,
                                max_size=6)))
    for lo, hi in zip(cuts[::2], cuts[1::2]):
        spans.append((draw(st.sampled_from(["a", "b", "c"])), lo, hi, 0))
        spans.extend((name, c_lo, c_hi, level + 1) for name, c_lo, c_hi, level
                     in nested_forest(draw, lo, hi, depth - 1))
    return spans


class TestAttributionProperties:
    @given(data=st.data(), n_tracks=st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_rows_sum_to_each_tracks_top_level_wall(self, data, n_tracks):
        tuples, top_level = [], {}
        for t in range(n_tracks):
            spans = nested_forest(data.draw, 0.0, 10.0, depth=4)
            top_level[f"track{t}"] = sum(hi - lo for _, lo, hi, level in spans
                                         if level == 0)
            tuples += [(name, "main", f"track{t}", lo, hi - lo)
                       for name, lo, hi, _ in spans]
        report = attribute(make_doc(tuples))
        # Rows round to 6 decimals and the export to microseconds.
        tol = 1e-5 * (1 + len(tuples))
        assert all(r["self_s"] >= 0.0 for r in report["rows"])
        for t in report["tracks"]:
            rows = sum(r["self_s"] for r in report["rows"]
                       if r["track"] == t["track"])
            assert rows == pytest.approx(top_level[t["track"]], abs=tol)
            assert t["wall_s"] == pytest.approx(top_level[t["track"]],
                                                abs=tol)
        assert [r["rank"] for r in report["rows"]] == \
            list(range(1, len(report["rows"]) + 1))


class TestAttribution:
    def _doc(self):
        doc = make_doc([
            ("gpclust.run", "main", "main", 0.0, 10.0),
            ("gpclust.pass1", "main", "main", 1.0, 3.0),
            ("device.shingle_chunk", "main", "main", 1.0, 2.0),
            ("gpclust.pass2", "main", "main", 5.0, 4.0),
            ("device.shingle_chunk", "device0", "stream", 0.0, 6.0),
        ])
        return doc

    def test_self_time_ranking(self):
        report = attribute(self._doc())
        rows = {(r["name"], r["track"]): r for r in report["rows"]}
        # A leaf keeps its name; the time a parent's children leave
        # uncovered goes to "<name> (unspanned)".
        assert rows[("device.shingle_chunk", "stream")]["self_s"] == 6.0
        assert rows[("gpclust.pass2", "main")]["self_s"] == 4.0
        assert rows[("gpclust.run (unspanned)", "main")]["self_s"] == 3.0
        assert rows[("device.shingle_chunk", "main")]["self_s"] == 2.0
        assert rows[("gpclust.pass1 (unspanned)", "main")]["self_s"] == 1.0
        assert rows[("gpclust.pass1 (unspanned)", "main")]["span_s"] == 3.0
        assert report["rows"][0]["name"] == "device.shingle_chunk"
        assert report["rows"][0]["share"] == 0.6
        tracks = {t["track"]: t for t in report["tracks"]}
        assert tracks["main"]["wall_s"] == tracks["main"]["self_s"] == 10.0
        assert tracks["stream"]["wall_s"] == 6.0
        assert report["wall_s"] == 10.0

    def test_no_modeled_cause_rows(self):
        names = {r["name"] for r in attribute(self._doc())["rows"]}
        assert not any(n.startswith(("roofline_gap", "dispatch_overhead",
                                     "critical_path_idle")) for n in names)

    def test_child_past_its_parent_is_clipped(self):
        # Microsecond rounding can push a child a hair past its parent's
        # end; the overhang must not add to the track's total.
        report = attribute(make_doc([
            ("outer", "main", "main", 0.0, 1.0),
            ("inner", "main", "main", 0.5, 0.6),
        ]))
        rows = {r["name"]: r["self_s"] for r in report["rows"]}
        assert rows == {"outer (unspanned)": 0.5, "inner": 0.5}
        assert report["tracks"][0]["self_s"] == 1.0

    def test_empty_trace(self):
        report = attribute(make_doc([]))
        assert report["rows"] == [] and report["tracks"] == []
        assert report["wall_s"] == 0.0

    def test_reconciliation_against_embedded_summary(self):
        doc = self._doc()
        doc["otherData"]["spans"] = {"wall_s": 10.0}
        report = attribute(doc)
        rec = report["reconciliation"]
        assert rec["summary_wall_s"] == 10.0
        assert rec["wall_drift_frac"] <= 0.05
        assert rec["busy_s"] == 16.0

    def test_render_attribution(self):
        text = render_attribution(attribute(self._doc()))
        assert "where the measured wall went" in text
        assert "gpclust.run (unspanned)" in text
        assert "main/main: rows 10000.00 ms = top-level spans 10000.00 ms" \
            in text

    def test_committed_trace_rows_per_track(self):
        import json
        from pathlib import Path
        path = Path(__file__).parent / "data" / "mini_trace_a.json"
        report = attribute(json.loads(path.read_text()))
        rows = {(r["name"], r["proc"], r["track"]): r["self_s"]
                for r in report["rows"]}
        assert rows == pytest.approx({
            ("gpclust.run (unspanned)", "main", "main"): 0.7,
            ("device.shingle_chunk_reduce", "device0", "stream"): 0.4,
            ("aggregate.merge_partials", "main", "main"): 0.3,
            ("device.upload", "device0", "io"): 0.1,
        })


class TestAttributionPipeline:
    def test_streams_main_track_sums_to_run(self):
        from repro.core.params import ShinglingParams
        from repro.core.pipeline import GpClust
        from repro.obs import observe, use_obs
        from repro.synthdata.planted import (PlantedFamilyConfig,
                                             planted_family_graph)

        graph = planted_family_graph(PlantedFamilyConfig(n_families=6),
                                     seed=3).graph
        ctx = observe()
        with use_obs(ctx):
            GpClust(ShinglingParams(c1=40, c2=20, seed=0,
                                    streams=2)).run(graph)
        report = attribute(to_chrome_trace(ctx.tracer.records,
                                           ctx.tracer.t0))
        root = next(r for r in ctx.tracer.records if r.name == "gpclust.run")
        main = [t for t in report["tracks"]
                if (t["proc"], t["track"]) == (root.proc, root.track)]
        assert main and main[0]["self_s"] == pytest.approx(root.duration,
                                                           rel=0.01)
        assert any(t["track"].startswith("stream")
                   for t in report["tracks"])


class TestDiff:
    def test_diff_totals_and_new_gone(self):
        a = make_doc([("work", "main", "main", 0.0, 1.0),
                      ("old_only", "main", "main", 1.0, 0.5)])
        b = make_doc([("work", "main", "main", 0.0, 3.0),
                      ("new_only", "device0", "stream", 0.0, 0.25)])
        diff = diff_traces(a, b)
        rows = {r["name"]: r for r in diff["spans"]}
        assert rows["work"]["delta_s"] == 2.0
        assert rows["work"]["delta_frac"] == 2.0
        assert rows["old_only"]["b_s"] == 0.0
        assert rows["new_only"]["a_s"] == 0.0
        assert rows["new_only"]["delta_frac"] is None
        # Ranked by |delta|.
        assert diff["spans"][0]["name"] == "work"
        assert diff["wall"]["a_s"] == 1.5
        assert diff["wall"]["b_s"] == 3.0

    def test_render_diff_marks_new_and_gone(self):
        a = make_doc([("gone_span", "main", "main", 0.0, 1.0)])
        b = make_doc([("new_span", "main", "main", 0.0, 1.0)])
        text = render_diff(diff_traces(a, b))
        assert "new" in text and "gone" in text
        assert "per-process busy deltas" in text
