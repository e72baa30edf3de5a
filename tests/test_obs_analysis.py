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


class TestAttribution:
    def _doc(self):
        doc = make_doc([
            ("gpclust.run", "main", "main", 0.0, 10.0),
            ("device.shingle_chunk_reduce", "device0", "stream", 0.0, 6.0),
            ("device.upload", "device0", "io", 6.0, 1.0),
            ("homology.alignment", "main", "homology", 7.0, 2.0),
        ])
        doc["otherData"]["metrics"] = {
            "counters": {
                "device.kernel.shingle_reduce.modeled_s": 2.0,
            },
            "gauges": {
                "device.align.padding_waste": 0.4,
            },
            "histograms": {},
        }
        return doc

    def test_roofline_and_cause_ranking(self):
        report = attribute(self._doc())
        roof = report["roofline"]
        assert roof["shingle"]["wall_s"] == 6.0
        assert roof["shingle"]["modeled_s"] == 2.0
        assert roof["shingle"]["gap_s"] == 4.0
        assert set(roof) == {"shingle"}
        causes = report["causes"]
        assert causes[0]["cause"] == "roofline_gap:shingle"
        assert causes[0]["class"] == "shingle"
        assert [c["rank"] for c in causes] == list(range(1, len(causes) + 1))
        slugs = {c["cause"] for c in causes}
        # The dispatch slug splits each gap into "not explained by link
        # traffic"; with zero transfer overlap it equals the full gap and
        # ranks right behind it, ahead of the small padding and transfer
        # causes.
        assert "dispatch_overhead:shingle" in slugs
        by_slug = {c["cause"]: c for c in causes}
        assert (by_slug["dispatch_overhead:shingle"]["seconds"]
                <= by_slug["roofline_gap:shingle"]["seconds"])
        # Padding waste scales the homology.alignment span's 2 s wall.
        assert by_slug["alignment_padding"]["seconds"] == pytest.approx(0.8)
        assert report["n_causes_considered"] == 5
        # Shares are fractions of wall.
        assert all(0.0 <= c["share"] <= 1.0 for c in causes)

    def test_caps_at_five_causes(self):
        report = attribute(self._doc())
        assert len(report["causes"]) <= 5
        assert report["n_causes_considered"] >= len(report["causes"])

    def test_reconciliation_against_embedded_summary(self):
        doc = self._doc()
        doc["otherData"]["spans"] = {"wall_s": 10.0}
        report = attribute(doc)
        rec = report["reconciliation"]
        assert rec["summary_wall_s"] == 10.0
        assert rec["wall_drift_frac"] <= 0.05
        assert rec["busy_s"] > 0.0

    def test_metrics_override(self):
        report = attribute(self._doc(), metrics={"counters": {},
                                                 "gauges": {},
                                                 "histograms": {}})
        # No modeled seconds: the whole class wall time is the gap.
        assert report["roofline"]["shingle"]["gap_s"] == 6.0
        assert report["roofline"]["shingle"]["ratio"] is None

    def test_render_attribution(self):
        text = render_attribution(attribute(self._doc()))
        assert "per-process utilization" in text
        assert "roofline" in text
        assert "top places this run lost time" in text
        assert "roofline_gap:shingle" in text


class TestAttributionCommittedTrace:
    """Pin the dispatch slug against the committed mini trace.

    mini_trace_a.json holds device.upload on io at [0, 0.1]s,
    device.shingle_chunk_reduce on stream at [0.1, 0.5]s, plus host-side
    gpclust.run/aggregate.merge_partials spans.  With the metrics zeroed
    the shingle gap is the full 0.4s device wall, and — with zero overlap
    between the transfer and the shingle interval — dispatch_overhead must
    claim exactly that gap, not a share diluted by the upload time.
    """

    def _load(self):
        import json
        from pathlib import Path
        path = Path(__file__).parent / "data" / "mini_trace_a.json"
        return json.loads(path.read_text())

    def test_dispatch_overhead_equals_unoverlapped_gap(self):
        empty = {"counters": {}, "gauges": {}, "histograms": {}}
        report = attribute(self._load(), metrics=empty)
        roof = report["roofline"]["shingle"]
        assert roof["wall_s"] == pytest.approx(0.4)
        assert roof["gap_s"] == pytest.approx(0.4)
        by_slug = {c["cause"]: c for c in report["causes"]}
        assert "dispatch_overhead:shingle" in by_slug
        assert by_slug["dispatch_overhead:shingle"]["seconds"] == \
            pytest.approx(0.4)

    def test_transfer_overlap_discounts_dispatch(self):
        # Shift the upload to overlap the shingle interval: the dispatch
        # slug must shrink by exactly the overlapped seconds while the
        # roofline gap itself is unchanged.
        doc = self._load()
        for ev in doc["traceEvents"]:
            if ev.get("name") == "device.upload":
                ev["ts"] = 150000.0  # [0.15, 0.25]s, inside the reduce span
        empty = {"counters": {}, "gauges": {}, "histograms": {}}
        report = attribute(doc, metrics=empty)
        assert report["roofline"]["shingle"]["gap_s"] == pytest.approx(0.4)
        by_slug = {c["cause"]: c for c in report["causes"]}
        assert by_slug["dispatch_overhead:shingle"]["seconds"] == \
            pytest.approx(0.3)


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
