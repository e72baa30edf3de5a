"""Tests for the bench comparison: the row diff in ``repro.obs.ledger``
and its CI command line, ``scripts/check_perf_guard.py``."""

import json
import sys
from pathlib import Path

import pytest

from repro.obs.ledger import (
    compare_rows,
    parse_metric_spec,
    render_deltas,
    rows_from,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from check_perf_guard import main  # noqa: E402


class TestParseMetricSpec:
    def test_bare_name_defaults_lower(self):
        assert parse_metric_spec("total_s") == ("total_s", "lower")

    def test_explicit_directions(self):
        assert parse_metric_spec("speedup_vs_1dev:higher") == \
            ("speedup_vs_1dev", "higher")
        assert parse_metric_spec("total_s:lower") == ("total_s", "lower")

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            parse_metric_spec("total_s:fastest")


class TestCompareRows:
    REF = {"w1": {"total_s": 1.0, "speedup": 2.0},
           "w2": {"total_s": 5.0}}

    def test_identical_passes(self):
        deltas, failures = compare_rows(self.REF, self.REF, 0.15)
        assert failures == []
        assert all(d["verdict"] == "OK" for d in deltas)

    def test_lower_is_better_regression(self):
        got = {"w1": {"total_s": 1.5, "speedup": 2.0},
               "w2": {"total_s": 5.0}}
        _, failures = compare_rows(self.REF, got, 0.15,
                                   metrics=[("total_s", "lower")])
        assert len(failures) == 1
        assert "w1" in failures[0]

    def test_lower_is_better_improvement_never_fails(self):
        got = {"w1": {"total_s": 0.1, "speedup": 2.0},
               "w2": {"total_s": 0.1}}
        _, failures = compare_rows(self.REF, got, 0.15)
        assert failures == []

    def test_higher_is_better_regression_is_a_drop(self):
        got = {"w1": {"total_s": 1.0, "speedup": 1.2},
               "w2": {"total_s": 5.0}}
        _, failures = compare_rows(self.REF, got, 0.15,
                                   metrics=[("speedup", "higher")])
        assert len(failures) == 1
        # A higher speedup is an improvement, not a regression.
        got["w1"]["speedup"] = 10.0
        _, failures = compare_rows(self.REF, got, 0.15,
                                   metrics=[("speedup", "higher")])
        assert failures == []

    def test_within_tolerance_passes(self):
        got = {"w1": {"total_s": 1.1, "speedup": 2.0},
               "w2": {"total_s": 5.0}}
        _, failures = compare_rows(self.REF, got, 0.15)
        assert failures == []

    def test_missing_row_is_a_failure(self):
        got = {"w1": {"total_s": 1.0, "speedup": 2.0}}
        _, failures = compare_rows(self.REF, got, 0.15)
        assert any("w2" in f and "missing" in f for f in failures)

    def test_missing_metric_is_a_failure(self):
        got = {"w1": {"speedup": 2.0}, "w2": {"total_s": 5.0}}
        _, failures = compare_rows(self.REF, got, 0.15,
                                   metrics=[("total_s", "lower")])
        assert any("w1" in f and "total_s" in f for f in failures)

    def test_metric_absent_from_reference_is_skipped(self):
        # A guarded metric only some rows carry does not fail the others.
        _, failures = compare_rows(self.REF, dict(self.REF), 0.15,
                                   metrics=[("speedup", "higher")])
        assert failures == []

    def test_non_numeric_metrics_ignored_by_default(self):
        ref = {"w": {"total_s": 1.0, "label": "warm", "ok": True}}
        deltas, failures = compare_rows(ref, ref, 0.15)
        assert failures == []
        assert [d["metric"] for d in deltas] == ["total_s"]

    def test_all_regressions_reported_not_just_first(self):
        # Two rows, two regressed metrics each — all four must be listed.
        ref = {"w1": {"total_s": 1.0, "cc_rounds": 4.0},
               "w2": {"total_s": 2.0, "cc_rounds": 3.0}}
        got = {"w1": {"total_s": 9.0, "cc_rounds": 9.0},
               "w2": {"total_s": 9.0, "cc_rounds": 9.0}}
        _, failures = compare_rows(ref, got, 0.15)
        assert len(failures) == 4
        for row in ("w1", "w2"):
            for metric in ("total_s", "cc_rounds"):
                assert any(row in f and metric in f for f in failures)


class TestHostCoresTag:
    def test_tag_never_compared_as_metric(self):
        ref = {"w": {"total_s": 1.0, "host_cores": 1}}
        got = {"w": {"total_s": 1.0, "host_cores": 64}}
        deltas, failures = compare_rows(ref, got, 0.15)
        assert failures == []
        assert "host_cores" not in [d["metric"] for d in deltas]

    def test_wall_metrics_skipped_when_host_cores_differ(self):
        ref = {"w": {"total_s": 1.0, "wall_speedup_vs_1dev": 2.0,
                     "modeled_device_s": 0.01, "host_cores": 1}}
        got = {"w": {"total_s": 9.0, "wall_speedup_vs_1dev": 0.5,
                     "modeled_device_s": 0.01, "host_cores": 8}}
        deltas, failures = compare_rows(ref, got, 0.15)
        # Wall regressions on a different machine are noise, not failures.
        assert failures == []
        verdicts = {d["metric"]: d["verdict"] for d in deltas}
        assert verdicts["total_s"] == "SKIP"
        assert verdicts["wall_speedup_vs_1dev"] == "SKIP"
        assert verdicts["modeled_device_s"] == "OK"

    def test_modeled_metrics_still_guard_across_machines(self):
        ref = {"w": {"modeled_device_s": 0.01, "host_cores": 1}}
        got = {"w": {"modeled_device_s": 0.09, "host_cores": 8}}
        _, failures = compare_rows(ref, got, 0.15)
        assert len(failures) == 1 and "modeled_device_s" in failures[0]

    def test_same_host_cores_compares_wall_normally(self):
        ref = {"w": {"total_s": 1.0, "host_cores": 4}}
        got = {"w": {"total_s": 9.0, "host_cores": 4}}
        _, failures = compare_rows(ref, got, 0.15)
        assert len(failures) == 1 and "total_s" in failures[0]

    def test_untagged_rows_compare_wall_normally(self):
        # Pre-PR8 references carry no tag: behavior is unchanged.
        ref = {"w": {"total_s": 1.0}}
        got = {"w": {"total_s": 9.0, "host_cores": 8}}
        _, failures = compare_rows(ref, got, 0.15)
        assert len(failures) == 1


class TestRendering:
    def test_table_mentions_every_comparison(self):
        deltas, _ = compare_rows(TestCompareRows.REF, TestCompareRows.REF,
                                 0.15)
        text = render_deltas(deltas, 0.15)
        assert "w1" in text and "w2" in text
        assert "total_s" in text and "speedup" in text
        assert "improvements never fail" in text

    def test_rows_from_validates(self):
        assert rows_from({"workloads": {"a": {}}}, "workloads") == {"a": {}}
        with pytest.raises(KeyError):
            rows_from({"other": {}}, "workloads")
        with pytest.raises(TypeError):
            rows_from({"workloads": [1, 2]}, "workloads")


class TestCli:
    """``check_perf_guard.main``: the comparison CI runs."""

    def _write(self, tmp_path, name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    def _main(self, ref, got, *args):
        return main(["--reference", ref, "--measured", got, *args])

    def test_exit_zero_on_pass(self, tmp_path, capsys):
        ref = self._write(tmp_path, "ref.json",
                          {"rows": {"w": {"total_s": 1.0}}})
        got = self._write(tmp_path, "got.json",
                          {"workloads": {"w": {"total_s": 1.02}}})
        rc = self._main(ref, got, "--reference-key", "rows")
        assert rc == 0
        assert "perf guard passed" in capsys.readouterr().out

    def test_exit_nonzero_on_regression(self, tmp_path, capsys):
        ref = self._write(tmp_path, "ref.json",
                          {"table1_rows": {"w": {"speedup": 2.0}}})
        got = self._write(tmp_path, "got.json",
                          {"workloads": {"w": {"speedup": 1.0}}})
        rc = self._main(ref, got, "--metric", "speedup:higher",
                        "--tolerance", "0.15")
        assert rc == 1
        assert "FAILED" in capsys.readouterr().err
        # A higher speedup is an improvement, not a regression.
        got = self._write(tmp_path, "got.json",
                          {"workloads": {"w": {"speedup": 3.0}}})
        assert self._main(ref, got, "--metric", "speedup:higher") == 0

    def test_failure_message_lists_every_regressed_metric(self, tmp_path,
                                                          capsys):
        ref = self._write(tmp_path, "ref.json", {"table1_rows": {
            "w1": {"total_s": 1.0, "cc_rounds": 4.0},
            "w2": {"total_s": 2.0}}})
        got = self._write(tmp_path, "got.json", {"workloads": {
            "w1": {"total_s": 9.0, "cc_rounds": 9.0},
            "w2": {"total_s": 9.0}}})
        rc = self._main(ref, got, "--metric", "total_s",
                        "--metric", "cc_rounds")
        assert rc == 1
        err = capsys.readouterr().err
        assert "3 failure(s)" in err
        assert err.count("total_s") == 2 and "cc_rounds" in err
        assert "w1" in err and "w2" in err

    def test_cross_machine_wall_skip_passes_cli(self, tmp_path, capsys):
        ref = self._write(tmp_path, "ref.json", {"table1_rows": {
            "w": {"total_s": 1.0, "host_cores": 1}}})
        got = self._write(tmp_path, "got.json", {"workloads": {
            "w": {"total_s": 9.0, "host_cores": 8}}})
        rc = self._main(ref, got)
        assert rc == 0
        out = capsys.readouterr().out
        assert "SKIP" in out and "host_cores differ" in out

    def test_default_metric_is_total_s(self, tmp_path, capsys):
        ref = self._write(tmp_path, "ref.json", {"table1_rows": {
            "w": {"total_s": 1.0, "cc_rounds": 4.0}}})
        got = self._write(tmp_path, "got.json", {"workloads": {
            "w": {"total_s": 1.0, "cc_rounds": 9.0}}})
        assert self._main(ref, got) == 0
        assert self._main(ref, got, "--metric", "cc_rounds") == 1

    def test_overhead_mode(self, tmp_path, capsys):
        doc = {"traced_off_s": 1.0, "traced_on_s": 1.01}
        got = self._write(tmp_path, "overhead.json", doc)
        assert main(["--measured", got, "--max-overhead-pct", "2"]) == 0
        doc["traced_on_s"] = 1.05
        got = self._write(tmp_path, "overhead.json", doc)
        assert main(["--measured", got, "--max-overhead-pct", "2"]) == 1
        assert "exceeds" in capsys.readouterr().err
