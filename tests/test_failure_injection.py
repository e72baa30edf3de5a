"""Failure injection: the pipeline must fail loudly and cleanly.

Covers device OOM regimes, corrupt/malformed input files, invalid
pipeline configurations, a pool worker dying mid-shard and an interrupted
trace write — errors a downstream user will actually hit.
"""

import errno
import io
from unittest import mock

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.params import ShinglingParams
from repro.core.pipeline import GpClust, cluster_graph
from repro.device.device import SimulatedDevice
from repro.device.memory import DeviceMemoryError
from repro.device.timingmodels import DeviceSpec
from repro.graph.csr import CSRGraph
from repro.graph.io import load_edge_list, load_npz
from repro.obs.chrome_trace import load_trace, write_chrome_trace
from repro.obs.tracer import Tracer
from repro.sequence.fasta import read_fasta
from tests.conftest import random_blocky_graph, run_isolated


class TestDeviceOOM:
    def test_hopeless_capacity_raises_cleanly(self):
        g = random_blocky_graph(seed=1)
        # Capacity below one element's working set.
        with pytest.raises(ValueError):
            GpClust(ShinglingParams(c1=4, c2=2),
                    DeviceSpec(memory_capacity_bytes=256)).run(g)

    def test_tight_capacity_still_correct(self):
        """Just enough memory: many tiny batches, same answer."""
        g = random_blocky_graph(seed=2)
        params = ShinglingParams(c1=8, c2=4, seed=1, trial_chunk=2)
        tight = GpClust(params, DeviceSpec(memory_capacity_bytes=40_000)).run(g)
        roomy = GpClust(params, DeviceSpec()).run(g)
        assert np.array_equal(tight.labels, roomy.labels)

    def test_oversubscribed_manual_batch_raises(self):
        """A manual batch budget that exceeds device memory OOMs."""
        g = random_blocky_graph(seed=3)
        # The one batch the budget lets through peaks at ~44 KB on the
        # device; the kernel working set alone overflows 30 KB.
        pipeline = GpClust(ShinglingParams(c1=8, c2=4, trial_chunk=8),
                           DeviceSpec(memory_capacity_bytes=30_000),
                           max_batch_elements=10_000)
        with pytest.raises(DeviceMemoryError):
            pipeline.run(g)

    def test_device_memory_clean_after_oom(self):
        device = SimulatedDevice(DeviceSpec(memory_capacity_bytes=1000))
        buf = device.upload(np.zeros(100, dtype=np.int8))
        with pytest.raises(DeviceMemoryError):
            device.upload(np.zeros(2000, dtype=np.int8))
        # The failed transfer must not leak reserved bytes.
        assert device.memory.used_bytes == buf.nbytes


class TestCorruptInputs:
    def test_missing_graph_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_npz(tmp_path / "nope.npz")

    def test_npz_without_arrays(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, wrong_key=np.arange(3))
        with pytest.raises(KeyError):
            load_npz(path)

    def test_malformed_edge_list(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("1 2\nthree four\n")
        with pytest.raises(ValueError):
            load_edge_list(path)

    def test_edge_list_with_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.edges"
        path.write_text("1 2 3\n4 5\n")
        with pytest.raises(ValueError):
            load_edge_list(path)

    def test_inconsistent_npz_graph(self, tmp_path):
        path = tmp_path / "incoherent.npz"
        np.savez(path, indptr=np.array([0, 5]), indices=np.array([1, 2]))
        with pytest.raises(ValueError, match="indptr must end"):
            load_npz(path)  # validated on load

    def test_npz_with_repeated_neighbor(self, tmp_path, capsys):
        """Vertex 0 lists vertex 1 twice: fails on load, not mid-pipeline;
        the CLI reports it as a usage error."""
        path = tmp_path / "repeated.npz"
        np.savez(path, indptr=np.array([0, 2, 3, 4, 5, 6]),
                 indices=np.array([1, 1, 0, 3, 2, 1]))
        with pytest.raises(ValueError, match="duplicate-free"):
            load_npz(path)
        with pytest.raises(SystemExit) as exc:
            cli_main(["cluster", str(path), "--c1", "4", "--c2", "2"])
        assert exc.value.code == 2
        assert "duplicate-free" in capsys.readouterr().err

    @pytest.mark.parametrize("indptr,indices,match", [
        ([0, 1, 2], [1, 5], "out of range"),
        ([0, 2, 1, 3], [1, 2, 0], "nondecreasing"),
        ([0, 1, 2], [0, 0], "self-loops"),
    ])
    def test_malformed_npz_raises_value_error(self, tmp_path, indptr,
                                              indices, match):
        path = tmp_path / "malformed.npz"
        np.savez(path, indptr=np.array(indptr), indices=np.array(indices))
        with pytest.raises(ValueError, match=match):
            load_npz(path)

    def test_fasta_binary_garbage(self, tmp_path):
        path = tmp_path / "bin.fasta"
        path.write_bytes(b"\x00\x01\x02 not fasta")
        with pytest.raises((ValueError, UnicodeDecodeError)):
            read_fasta(path)

    def test_cluster_graph_propagates_load_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            cluster_graph(tmp_path / "missing.npz")


class TestDegenerateInputs:
    def test_empty_graph_clusters_to_nothing(self):
        g = CSRGraph.from_edges(np.empty((0, 2), dtype=np.int64), n_vertices=0)
        result = GpClust(ShinglingParams(c1=4, c2=2)).run(g)
        assert result.labels.size == 0
        assert result.n_clusters() == 0

    def test_all_isolates(self):
        g = CSRGraph.from_edges(np.empty((0, 2), dtype=np.int64), n_vertices=7)
        result = GpClust(ShinglingParams(c1=4, c2=2)).run(g)
        assert np.array_equal(result.labels, np.arange(7))

    def test_single_edge_graph(self):
        g = CSRGraph.from_edges([(0, 1)])
        result = GpClust(ShinglingParams(c1=8, c2=4)).run(g)
        # deg-1 vertices can't shingle at s=2: everything stays singleton
        assert result.n_clusters(min_size=2) == 0

    def test_star_graph(self):
        # Leaves share the hub as their only neighbor; the hub's shingles
        # are leaf pairs -> some leaves may merge, hub stays out (its own
        # neighborhood never contains itself).
        g = CSRGraph.from_edges([(0, i) for i in range(1, 12)])
        result = GpClust(ShinglingParams(c1=16, c2=8, seed=1)).run(g)
        labels = result.labels
        clusters = result.clusters(min_size=2)
        for cluster in clusters:
            assert 0 not in cluster.tolist()
        assert labels.size == 12

    def test_complete_graph_single_cluster(self):
        n = 12
        g = CSRGraph.from_edges([(i, j) for i in range(n)
                                 for j in range(i + 1, n)])
        result = GpClust(ShinglingParams(c1=20, c2=10, seed=2)).run(g)
        assert result.n_clusters(min_size=n) == 1

    def test_huge_degree_variance(self):
        # One hub adjacent to everyone plus a small clique: must not crash
        # and the clique must survive as a cluster.
        edges = [(0, i) for i in range(1, 80)]
        edges += [(i, j) for i in range(70, 78) for j in range(i + 1, 78)]
        g = CSRGraph.from_edges(edges)
        result = GpClust(ShinglingParams(c1=20, c2=10, seed=3)).run(g)
        clique_labels = result.labels[70:78]
        assert np.unique(clique_labels).size == 1


class TestInterruptedWork:
    def test_pool_worker_death_raises(self):
        """A pool worker that dies mid-shard fails the build instead of
        hanging it, and the shared-memory arena is still released."""
        out = run_isolated("""
            import json, os
            from multiprocessing import shared_memory
            from repro.sequence import homology
            from repro.sequence.arena import SequenceArena
            from repro.sequence.generator import (SequenceFamilyConfig,
                                                  generate_protein_families)
            from tests.conftest import pool_alignment

            arenas = []
            pack = SequenceArena.pack.__func__

            def recording_pack(cls, sequences):
                arena = pack(cls, sequences)
                arenas.append(arena.name)
                return arena

            SequenceArena.pack = classmethod(recording_pack)
            score = homology._score_shard_remote

            def dying(task):
                if task[0] == 1:
                    os._exit(1)
                return score(task)

            homology._score_shard_remote = dying
            proteins = generate_protein_families(
                SequenceFamilyConfig(n_families=6, family_size_median=10.0),
                seed=5)
            error = None
            try:
                with pool_alignment():
                    homology.build_homology_graph(
                        proteins.sequences,
                        homology.HomologyConfig(chunk_size=64, n_jobs=2))
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            released = []
            for name in arenas:
                try:
                    shared_memory.SharedMemory(name=name).close()
                    released.append(False)
                except FileNotFoundError:
                    released.append(True)
            print(json.dumps({"error": error, "released": released}))
        """, timeout=120)
        assert out["error"] is not None
        assert out["error"].startswith("RuntimeError")
        assert "pool worker died" in out["error"]
        assert out["released"] == [True]

    def test_interrupted_trace_write_keeps_old_trace(self, tmp_path):
        """The disk fills partway through a trace write: the previous
        trace survives whole and no temporary file is left behind."""
        tracer = Tracer()
        with tracer.span("first"):
            pass
        path = tmp_path / "trace.json"
        write_chrome_trace(path, tracer.records, 0.0)
        before = path.read_text()

        real_open = io.open

        class DiskFull:
            def __init__(self, fh):
                self._fh = fh

            def write(self, text):
                self._fh.write(text[:len(text) // 2])
                self._fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

            def __getattr__(self, name):
                return getattr(self._fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

        def failing_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return DiskFull(fh) if "w" in mode else fh

        with tracer.span("second"):
            pass
        with mock.patch("io.open", failing_open), \
                pytest.raises(OSError, match="No space"):
            write_chrome_trace(path, tracer.records, 0.0)
        assert path.read_text() == before
        assert [event["name"] for event in load_trace(path)["traceEvents"]
                if event["ph"] == "X"] == ["first"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.json"]

