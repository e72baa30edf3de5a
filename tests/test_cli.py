"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.graph.io import load_npz


@pytest.fixture
def bench_files(tmp_path):
    """Generated benchmark graph + ground truth via the CLI itself."""
    stem = tmp_path / "bench"
    assert main(["generate", "--families", "6", "--seed", "3",
                 "--out", str(stem)]) == 0
    return stem


class TestGenerate:
    def test_graph_outputs(self, bench_files, tmp_path):
        graph = load_npz(bench_files.with_suffix(".npz"))
        gos = load_npz(bench_files.with_suffix(".gos.npz"))
        assert graph.n_vertices == gos.n_vertices
        assert gos.n_edges > graph.n_edges
        with np.load(bench_files.with_suffix(".labels.npz")) as data:
            assert data["labels"].size == graph.n_vertices

    def test_fasta_output(self, tmp_path):
        stem = tmp_path / "seqs"
        assert main(["generate", "--families", "4", "--fasta",
                     "--out", str(stem)]) == 0
        text = stem.with_suffix(".fasta").read_text()
        assert text.startswith(">")
        assert "family=0" in text


class TestCluster:
    def test_cluster_writes_labels(self, bench_files, tmp_path, capsys):
        out = tmp_path / "labels.npz"
        assert main(["cluster", str(bench_files.with_suffix(".npz")),
                     "--out", str(out), "--c1", "20", "--c2", "10"]) == 0
        with np.load(out) as data:
            labels = data["labels"]
        graph = load_npz(bench_files.with_suffix(".npz"))
        assert labels.size == graph.n_vertices
        captured = capsys.readouterr().out
        assert "clustering summary" in captured
        assert "component breakdown" in captured

    def test_serial_backend(self, bench_files, tmp_path):
        out_d = tmp_path / "d.npz"
        out_s = tmp_path / "s.npz"
        graph_path = str(bench_files.with_suffix(".npz"))
        main(["cluster", graph_path, "--out", str(out_d),
              "--c1", "10", "--c2", "5"])
        main(["cluster", graph_path, "--out", str(out_s),
              "--c1", "10", "--c2", "5", "--backend", "serial"])
        with np.load(out_d) as a, np.load(out_s) as b:
            assert np.array_equal(a["labels"], b["labels"])


class TestStats:
    def test_prints_table(self, bench_files, capsys):
        assert main(["stats", str(bench_files.with_suffix(".npz"))]) == 0
        out = capsys.readouterr().out
        assert "# Vertices" in out
        assert "singleton vertices excluded" in out


class TestCompare:
    def test_compare_with_clustering(self, bench_files, capsys):
        assert main(["compare", str(bench_files.with_suffix(".npz")),
                     "--benchmark", str(bench_files.with_suffix(".labels.npz")),
                     "--c1", "20", "--c2", "10", "--min-size", "10"]) == 0
        out = capsys.readouterr().out
        assert "PPV" in out and "Sensitivity" in out

    def test_compare_with_precomputed_labels(self, bench_files, tmp_path, capsys):
        labels_path = tmp_path / "labels.npz"
        main(["cluster", str(bench_files.with_suffix(".npz")),
              "--out", str(labels_path), "--c1", "20", "--c2", "10"])
        capsys.readouterr()
        assert main(["compare", str(bench_files.with_suffix(".npz")),
                     "--benchmark", str(bench_files.with_suffix(".labels.npz")),
                     "--labels", str(labels_path), "--min-size", "10"]) == 0
        assert "Density" in capsys.readouterr().out


class TestPipeline:
    def test_fasta_to_clusters(self, tmp_path, capsys):
        stem = tmp_path / "seqs"
        main(["generate", "--families", "4", "--fasta", "--seed", "2",
              "--out", str(stem)])
        capsys.readouterr()
        out_labels = tmp_path / "labels.npz"
        assert main(["pipeline", str(stem.with_suffix(".fasta")),
                     "--c1", "15", "--c2", "8",
                     "--out", str(out_labels)]) == 0
        out = capsys.readouterr().out
        assert "homology:" in out
        assert "clusters of size" in out
        assert out_labels.exists()

    def test_jobs_combine_with_streams(self, tmp_path, capsys):
        # --jobs sizes the alignment workers and --streams the clustering
        # chunks; labels match the default run.
        stem = tmp_path / "seqs"
        main(["generate", "--families", "3", "--fasta", "--seed", "4",
              "--out", str(stem)])
        labels = []
        for flags in ([], ["--jobs", "2", "--streams", "2"]):
            out = tmp_path / f"labels{len(flags)}.npz"
            assert main(["pipeline", str(stem.with_suffix(".fasta")),
                         "--c1", "10", "--c2", "5", "--out", str(out),
                         *flags]) == 0
            with np.load(out) as data:
                labels.append(data["labels"])
        assert np.array_equal(labels[0], labels[1])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_kernel_choice_validated(self, bench_files):
        for kernel in ("bubble", "select"):
            with pytest.raises(SystemExit) as exc:
                main(["cluster", str(bench_files.with_suffix(".npz")),
                      "--kernel", kernel])
            assert exc.value.code == 2

    @pytest.mark.parametrize("flags,message", [
        (["--streams", "0"], "streams must be >= 1"),
        (["--c2", "0"], "c2 must be >= 1"),
        (["--c1", "0"], "c1 must be >= 1"),
        (["--s1", "0"], "s1 must be >= 1"),
    ])
    def test_bad_counts_are_usage_errors(self, bench_files, capsys, flags,
                                         message):
        with pytest.raises(SystemExit) as exc:
            main(["cluster", str(bench_files.with_suffix(".npz")), *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        last = err.strip().splitlines()[-1]
        assert last.startswith("repro: error:") and message in last
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags,message", [
        (["--jobs", "-1"], "n_jobs must be >= 0"),
        (["--min-score", "0"], "min_normalized_score"),
    ])
    def test_bad_homology_config_is_usage_error(self, tmp_path, capsys,
                                                flags, message):
        # Rejected before the FASTA is read: the file need not exist.
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", str(tmp_path / "x.fasta"), *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        last = err.strip().splitlines()[-1]
        assert last.startswith("repro: error:") and message in last
        assert "Traceback" not in err

    @pytest.mark.parametrize("backend", ["pool", "device", "local"])
    def test_retired_align_backends_rejected(self, tmp_path, backend):
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", str(tmp_path / "x.fasta"),
                  "--align-backend", backend])
        assert exc.value.code == 2

    def test_devices_flag_rejected(self, bench_files):
        with pytest.raises(SystemExit) as exc:
            main(["cluster", str(bench_files.with_suffix(".npz")),
                  "--devices", "2"])
        assert exc.value.code == 2


class TestMalformedInput:
    """An input file the loaders reject is a usage error: one ``error:``
    line and exit 2, no traceback."""

    @staticmethod
    def _assert_usage_error(argv, capsys, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        last = err.strip().splitlines()[-1]
        assert last.startswith("repro: error: cannot read")
        assert message in last
        assert "Traceback" not in err

    def test_missing_graph_file(self, tmp_path, capsys):
        self._assert_usage_error(
            ["cluster", str(tmp_path / "absent.npz")], capsys,
            "No such file")

    def test_non_integer_edge(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 x\n")
        self._assert_usage_error(["cluster", str(path)], capsys, "'x'")

    def test_negative_vertex_id(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n-1 2\n")
        self._assert_usage_error(["cluster", str(path)], capsys,
                                 "negative vertex id")

    def test_npz_suffix_on_text_file(self, tmp_path, capsys):
        path = tmp_path / "g.npz"
        path.write_text("0 1\n")
        self._assert_usage_error(["cluster", str(path)], capsys, "g.npz")

    def test_npz_missing_arrays(self, tmp_path, capsys):
        path = tmp_path / "g.npz"
        np.savez(path, other=np.arange(3))
        self._assert_usage_error(["cluster", str(path)], capsys, "indptr")
        self._assert_usage_error(
            ["compare", str(path), "--benchmark", str(path)], capsys,
            "indptr")

    def test_benchmark_without_labels(self, bench_files, tmp_path, capsys):
        path = tmp_path / "nolabels.npz"
        np.savez(path, other=np.arange(3))
        self._assert_usage_error(
            ["compare", str(bench_files.with_suffix(".npz")),
             "--benchmark", str(path)], capsys, "labels")

    def test_fasta_without_header(self, tmp_path, capsys):
        path = tmp_path / "x.fasta"
        path.write_text("MKV\n>a\nMKV\n")
        self._assert_usage_error(["pipeline", str(path)], capsys,
                                 "'>' header")

    def test_stats_and_compare_reject_missing_graph(self, tmp_path, capsys):
        absent = str(tmp_path / "absent.npz")
        self._assert_usage_error(["stats", absent], capsys, "No such file")
        self._assert_usage_error(
            ["compare", absent, "--benchmark", absent], capsys,
            "No such file")

    def test_obs_commands_reject_unreadable_traces(self, tmp_path, capsys):
        absent = str(tmp_path / "absent.json")
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        for argv in (["obs", "summary"], ["obs", "critical-path"],
                     ["obs", "attribute"]):
            self._assert_usage_error(argv + [absent], capsys, "No such file")
            self._assert_usage_error(argv + [str(garbled)], capsys,
                                     "garbled.json")
        self._assert_usage_error(["obs", "diff", absent, str(garbled)],
                                 capsys, "absent.json")

    def test_computation_errors_keep_their_traceback(self, bench_files,
                                                     monkeypatch):
        from repro import cli

        def broken(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(cli.GpClust, "run", broken)
        with pytest.raises(ValueError, match="boom"):
            main(["cluster", str(bench_files.with_suffix(".npz")),
                  "--c1", "10", "--c2", "5"])


class TestProfileFlag:
    def test_profile_to_stdout(self, bench_files, capsys):
        import json

        assert main(["cluster", str(bench_files.with_suffix(".npz")),
                     "--c1", "10", "--c2", "5", "--profile"]) == 0
        out = capsys.readouterr().out
        start = out.index("{")
        end = out.rindex("}") + 1
        prof = json.loads(out[start:end])
        assert "kernels" in prof and "transfers" in prof
        assert "scratch_pool" in prof
        assert any(v["launches"] > 0 for v in prof["kernels"].values())

    def test_profile_to_file(self, bench_files, tmp_path):
        import json

        path = tmp_path / "profile.json"
        assert main(["cluster", str(bench_files.with_suffix(".npz")),
                     "--c1", "10", "--c2", "5", "--profile", str(path)]) == 0
        prof = json.loads(path.read_text())
        assert prof["transfers"]["bytes_to_host"] > 0

    def test_kernel_fused_accepted(self, bench_files, tmp_path):
        out_f = tmp_path / "f.npz"
        out_s = tmp_path / "s.npz"
        graph_path = str(bench_files.with_suffix(".npz"))
        assert main(["cluster", graph_path, "--out", str(out_f),
                     "--c1", "10", "--c2", "5", "--kernel", "fused"]) == 0
        assert main(["cluster", graph_path, "--out", str(out_s),
                     "--c1", "10", "--c2", "5", "--kernel", "sort"]) == 0
        with np.load(out_f) as a, np.load(out_s) as b:
            assert np.array_equal(a["labels"], b["labels"])
