"""Tests for the performance ledger: store, fingerprints, drift, notes."""

import json

import pytest

from repro.obs import (
    append_ledger,
    compare_rows,
    config_fingerprint,
    detect_drift,
    ledger_report,
    load_ledger,
    parse_metric_spec,
    render_ledger_report,
    skipped_wall_note,
)
from repro.obs.ledger import EWMA_ALPHA, ewma, is_wall_metric


class TestFingerprint:
    def test_stable_across_key_order(self):
        a = config_fingerprint({"scale": "small", "streams": 2})
        b = config_fingerprint({"streams": 2, "scale": "small"})
        assert a == b
        assert len(a) == 12

    def test_differs_on_config_change(self):
        a = config_fingerprint({"streams": 1})
        b = config_fingerprint({"streams": 2})
        assert a != b


class TestAppendLoad:
    def test_round_trip(self, tmp_path):
        rows = {"2m": {"total_s": 1.25, "n_edges": 82663},
                "8m": {"total_s": 4.0}}
        written = append_ledger(tmp_path, "table1", rows,
                                config={"scale": "small"}, host_cores=4,
                                ts=100.0)
        assert len(written) == 2
        entries = load_ledger(tmp_path)
        assert [e["row"] for e in entries] == ["2m", "8m"]
        assert entries[0]["metrics"] == {"total_s": 1.25, "n_edges": 82663}
        assert entries[0]["host_cores"] == 4
        assert entries[0]["bench"] == "table1"

    def test_append_only(self, tmp_path):
        for ts in (1.0, 2.0):
            append_ledger(tmp_path, "b", {"r": {"total_s": ts}},
                          config={}, ts=ts)
        entries = load_ledger(tmp_path, "b")
        assert [e["metrics"]["total_s"] for e in entries] == [1.0, 2.0]

    def test_row_host_cores_tag_wins(self, tmp_path):
        append_ledger(tmp_path, "b", {"r": {"total_s": 1.0, "host_cores": 8}},
                      config={}, host_cores=4, ts=1.0)
        (entry,) = load_ledger(tmp_path)
        assert entry["host_cores"] == 8
        # Tags never become metrics.
        assert "host_cores" not in entry["metrics"]

    def test_non_numeric_and_empty_rows_skipped(self, tmp_path):
        written = append_ledger(
            tmp_path, "b",
            {"named": {"label": "fast"}, "real": {"total_s": 1.0}},
            config={}, ts=1.0)
        assert [e["row"] for e in written] == ["real"]

    def test_corrupt_lines_skipped(self, tmp_path):
        append_ledger(tmp_path, "b", {"r": {"total_s": 1.0}}, config={},
                      ts=1.0)
        path = tmp_path / "b.jsonl"
        path.write_text(path.read_text() + "{truncated\n")
        append_ledger(tmp_path, "b", {"r": {"total_s": 2.0}}, config={},
                      ts=2.0)
        assert len(load_ledger(tmp_path)) == 2

    def test_missing_dir_is_empty(self, tmp_path):
        assert load_ledger(tmp_path / "nope") == []


class TestDrift:
    def test_ewma_weights_recent(self):
        assert ewma([1.0]) == 1.0
        v = ewma([1.0, 2.0], alpha=0.5)
        assert v == 1.5

    def test_new_with_single_point(self):
        assert detect_drift([1.0], 0.15)["verdict"] == "NEW"
        assert detect_drift([], 0.15)["verdict"] == "NEW"

    def test_stable_series_ok(self):
        assert detect_drift([1.0, 1.01, 0.99, 1.02], 0.15)["verdict"] == "OK"

    def test_step_regression_flagged(self):
        d = detect_drift([1.0, 1.0, 1.0, 1.5], 0.15)
        assert d["verdict"] == "DRIFT"
        assert d["delta_frac"] == pytest.approx(0.5)

    def test_symmetric_improvement_also_drift(self):
        assert detect_drift([1.0, 1.0, 0.5], 0.15)["verdict"] == "DRIFT"

    def test_slow_creep_caught(self):
        # Five +8% steps: every pairwise check under 15% passes, but the
        # cumulative move leaves the EWMA band.
        series = [1.0]
        for _ in range(5):
            series.append(series[-1] * 1.08)
        assert detect_drift(series, 0.15)["verdict"] == "DRIFT"


class TestLedgerReport:
    def _seed(self, tmp_path, values, host_cores=4, metric="total_s",
              config=None):
        for i, v in enumerate(values):
            append_ledger(tmp_path, "bench", {"row": {metric: v}},
                          config=config or {"scale": "small"},
                          host_cores=host_cores, ts=float(i))

    def test_trajectory_and_drift(self, tmp_path):
        self._seed(tmp_path, [1.0, 1.0, 1.6])
        (row,) = ledger_report(load_ledger(tmp_path), tolerance=0.15)
        assert row["n"] == 3
        assert row["verdict"] == "DRIFT"
        assert row["first"] == 1.0
        assert row["latest"] == 1.6

    def test_wall_metrics_partition_by_host_cores(self, tmp_path):
        # Two observations from an 8-core machine, then one from 4-core:
        # the wall series must restrict to the latest machine (n == 1).
        self._seed(tmp_path, [1.0, 1.0], host_cores=8)
        append_ledger(tmp_path, "bench", {"row": {"total_s": 9.9}},
                      config={"scale": "small"}, host_cores=4, ts=10.0)
        (row,) = ledger_report(load_ledger(tmp_path), tolerance=0.15)
        assert row["n"] == 1
        assert row["verdict"] == "NEW"

    def test_modeled_metrics_chain_across_machines(self, tmp_path):
        self._seed(tmp_path, [5.0, 5.0], host_cores=8, metric="modeled_s")
        append_ledger(tmp_path, "bench", {"row": {"modeled_s": 9.9}},
                      config={"scale": "small"}, host_cores=4, ts=10.0)
        (row,) = ledger_report(load_ledger(tmp_path), tolerance=0.15)
        assert row["n"] == 3
        assert row["verdict"] == "DRIFT"

    def test_fingerprints_keep_series_apart(self, tmp_path):
        self._seed(tmp_path, [1.0, 1.0], config={"streams": 1})
        self._seed(tmp_path, [9.0, 9.0], config={"streams": 2})
        report = ledger_report(load_ledger(tmp_path), tolerance=0.15)
        assert len(report) == 2
        assert all(r["verdict"] == "OK" for r in report)

    def test_render(self, tmp_path):
        self._seed(tmp_path, [1.0, 1.0, 1.6])
        report = ledger_report(load_ledger(tmp_path), tolerance=0.15)
        text = render_ledger_report(report, tolerance=0.15)
        assert "performance ledger trajectories" in text
        assert "DRIFT" in text
        assert "1 drifted" in text
        assert render_ledger_report(report, drift_only=True).count("OK") == 0


class TestSharedComparison:
    def test_wall_metric_classification(self):
        assert is_wall_metric("total_s")
        assert is_wall_metric("traced_on_s")
        assert is_wall_metric("wall_anything")
        assert not is_wall_metric("modeled_s")
        assert not is_wall_metric("padding_waste")

    def test_parse_metric_spec(self):
        assert parse_metric_spec("total_s") == ("total_s", "lower")
        assert parse_metric_spec("speedup:higher") == ("speedup", "higher")
        with pytest.raises(ValueError):
            parse_metric_spec("total_s:sideways")

    def test_skipped_wall_note_names_cores(self):
        ref = {"2m": {"total_s": 1.0, "host_cores": 8}}
        got = {"2m": {"total_s": 2.0, "host_cores": 4}}
        deltas, failures = compare_rows(ref, got, 0.15)
        assert not failures
        note = skipped_wall_note(ref, got, deltas)
        assert "skipped 1 wall metric(s)" in note
        assert "host_cores differ (8 vs 4)" in note

    def test_no_note_when_same_machine(self):
        ref = {"2m": {"total_s": 1.0, "host_cores": 4}}
        got = {"2m": {"total_s": 1.0, "host_cores": 4}}
        deltas, _ = compare_rows(ref, got, 0.15)
        assert skipped_wall_note(ref, got, deltas) is None
