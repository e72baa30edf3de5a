"""Graph serialization with timed loads.

The gpClust framework's first step is "CPU loads graph from disk I/O into the
host memory" (Algorithm 2, line 9), and Table I reports Disk I/O as its own
column.  These helpers read/write graphs and report the wall time spent so
the pipeline can attribute it to the ``disk_io`` bucket.

Two formats:

* **edge list** — one ``u v`` pair per line, ``#``-prefixed header comments;
  human-readable, interoperable.
* **npz** — NumPy archive of the CSR arrays; the fast path for benchmarks.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.graph.csr import CSRGraph


def save_edge_list(graph: CSRGraph, path: str | Path, header: str | None = None) -> None:
    """Write unique undirected edges as text lines ``u v``."""
    path = Path(path)
    edges = graph.edges()
    with path.open("w") as fh:
        fh.write(f"# vertices {graph.n_vertices}\n")
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        # np.savetxt is substantially faster than a Python loop here.
        np.savetxt(fh, edges, fmt="%d %d")


def load_edge_list(path: str | Path) -> CSRGraph:
    """Read a graph written by :func:`save_edge_list`.

    The ``# vertices N`` header, when present, fixes the vertex count so
    trailing isolated vertices are preserved.
    """
    path = Path(path)
    n_vertices: int | None = None
    with path.open() as fh:
        first = fh.readline()
        if first.startswith("# vertices"):
            n_vertices = int(first.split()[2])
    import warnings

    with warnings.catch_warnings():
        # An empty edge list is legal (a graph of isolates); silence
        # loadtxt's no-data warning for that case.
        warnings.filterwarnings("ignore", message=".*input contained no data.*")
        data = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2)
    if data.size == 0:
        data = np.empty((0, 2), dtype=np.int64)
    return CSRGraph.from_edges(data, n_vertices=n_vertices)


def save_npz(graph: CSRGraph, path: str | Path) -> None:
    """Write the CSR arrays as a compressed NumPy archive."""
    np.savez_compressed(Path(path), indptr=graph.indptr, indices=graph.indices)


def load_npz(path: str | Path) -> CSRGraph:
    """Read a graph written by :func:`save_npz`.

    The arrays get :class:`CSRGraph`'s O(nnz) checks (offsets, id range,
    sorted duplicate-free lists, no self-loops) but not the O(m log m)
    symmetry check, so a malformed file fails here with a ``ValueError``
    rather than deep inside the pipeline.
    """
    path = Path(path)
    with np.load(path) as data:
        indptr, indices = data["indptr"], data["indices"]
    try:
        return CSRGraph(indptr, indices)
    except ValueError as exc:
        raise ValueError(f"{path}: malformed graph: {exc}") from None


def save_binary_edges(graph: CSRGraph, path: str | Path,
                      chunk_edges: int = 1 << 20) -> None:
    """Write unique undirected edges as a flat little-endian int64 stream.

    The format is a raw ``(m, 2)`` int64 array preceded by an 16-byte
    header (magic + vertex count), written in chunks so graphs larger than
    memory could stream through.
    """
    path = Path(path)
    edges = graph.edges()
    with path.open("wb") as fh:
        fh.write(b"RPROEDG1")
        fh.write(np.int64(graph.n_vertices).tobytes())
        for lo in range(0, edges.shape[0], chunk_edges):
            fh.write(np.ascontiguousarray(
                edges[lo:lo + chunk_edges], dtype="<i8").tobytes())


def build_csr_from_binary(path: str | Path,
                          chunk_edges: int = 1 << 20) -> CSRGraph:
    """External-memory CSR construction from a binary edge stream.

    Two passes over the file with bounded memory — the standard out-of-core
    build the 640M-edge regime requires:

    1. stream the edges once, counting per-vertex degrees;
    2. allocate ``indptr``/``indices`` and stream again, scattering each
       arc into its slot.

    Peak memory is O(n + m_output) for the result plus one chunk; the edge
    list itself is never resident.
    """
    path = Path(path)

    def _stream():
        with path.open("rb") as fh:
            magic = fh.read(8)
            if magic != b"RPROEDG1":
                raise ValueError(f"{path} is not a binary edge file")
            n_vertices = int(np.frombuffer(fh.read(8), dtype="<i8")[0])
            while True:
                raw = fh.read(chunk_edges * 16)
                if not raw:
                    break
                yield n_vertices, np.frombuffer(raw, dtype="<i8").reshape(-1, 2)

    # Pass 1 — degrees.
    n_vertices = None
    counts = None
    for n, chunk in _stream():
        if counts is None:
            n_vertices = n
            counts = np.zeros(n, dtype=np.int64)
        counts += np.bincount(chunk[:, 0], minlength=n)
        counts += np.bincount(chunk[:, 1], minlength=n)
    if counts is None:
        with path.open("rb") as fh:
            fh.read(8)
            n_vertices = int(np.frombuffer(fh.read(8), dtype="<i8")[0])
        return CSRGraph(np.zeros(n_vertices + 1, dtype=np.int64),
                        np.empty(0, dtype=np.int64), validate=False)

    indptr = np.zeros(n_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    cursor = indptr[:-1].copy()

    # Pass 2 — scatter both arc directions.
    for _, chunk in _stream():
        for src, dst in ((chunk[:, 0], chunk[:, 1]),
                         (chunk[:, 1], chunk[:, 0])):
            order = np.argsort(src, kind="stable")
            s, t = src[order], dst[order]
            uniq, starts, seg_counts = np.unique(s, return_index=True,
                                                 return_counts=True)
            offsets = (np.arange(s.size)
                       - np.repeat(starts, seg_counts)
                       + cursor[s])
            indices[offsets] = t
            cursor[uniq] += seg_counts
    # Sort within each adjacency list (writers guarantee uniqueness):
    # one global stable lexsort by (owner, neighbor).
    owner = np.repeat(np.arange(n_vertices, dtype=np.int64), counts)
    order = np.lexsort((indices, owner))
    indices = indices[order]
    return CSRGraph(indptr, indices, validate=False)


def timed_load(path: str | Path) -> tuple[CSRGraph, float]:
    """Load a graph (format inferred from suffix) and report I/O seconds."""
    path = Path(path)
    t0 = time.perf_counter()
    if path.suffix == ".npz":
        graph = load_npz(path)
    else:
        graph = load_edge_list(path)
    return graph, time.perf_counter() - t0
