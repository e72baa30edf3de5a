"""The simulated device facade.

Combines device memory, transfer accounting, and the data-parallel kernels
into the interface the gpClust driver programs against.  Responsibilities
mirror a CUDA device used through Thrust:

* ``upload``/``download`` move arrays across the (simulated) PCIe link,
  charging wall time to the ``data_c2g``/``data_g2c`` buckets and modeled
  seconds to the transfer model — synchronously, as the paper's Thrust 1.5
  does ("the data movement operations are implemented using synchronous
  mechanism, and the overhead ... is unavoidable");
* ``shingle_chunk`` and its reducing variants execute Algorithm 1 (the
  per-batch shingle extraction) for one chunk of trials on
  "device-resident" data, charging the ``gpu`` bucket, and stream each
  trial round's results back to the host — the paper transfers generated
  shingles back "after each iteration for the immediate processing on the
  CPU side", which also keeps the device working set small.

The facade never touches host-side graph structures: the driver uploads each
batch's flat element buffer and its boundary array first, exactly as Figure 4
describes.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.core.params import KERNEL_FUSED, KERNEL_SORT, KERNELS
from repro.device import kernels
from repro.device.memory import DeviceBuffer, DeviceMemory, ScratchPool
from repro.device.timingmodels import DeviceSpec
from repro.obs import MetricsRegistry, ObsContext, get_obs
from repro.util.timer import (BUCKET_C2G, BUCKET_CPU, BUCKET_G2C, BUCKET_GPU,
                              TimeBreakdown)

class SimulatedDevice:
    """A K20-like device: limited memory, explicit transfers, bulk kernels."""

    def __init__(self, spec: DeviceSpec | None = None,
                 breakdown: TimeBreakdown | None = None,
                 obs: ObsContext | None = None) -> None:
        self.spec = spec or DeviceSpec()
        self.memory = DeviceMemory(self.spec.memory_capacity_bytes, self.spec.transfer)
        self.breakdown = breakdown if breakdown is not None else TimeBreakdown()
        # Recycled kernel working arrays: after the first round of a given
        # batch geometry, kernel launches allocate nothing fresh.
        self.scratch = ScratchPool()
        # Observability: kernel launch accounting always flows into a real
        # metrics registry (profile() reads it back), shared with the
        # ambient registry when one is active so a single snapshot() sees
        # the device; spans go to the ambient tracer (no-op by default).
        if obs is None:
            ambient = get_obs()
            metrics = (ambient.metrics if ambient.metrics.enabled
                       else MetricsRegistry())
            obs = ObsContext(tracer=ambient.tracer, metrics=metrics)
        elif not obs.metrics.enabled:
            obs = ObsContext(tracer=obs.tracer, metrics=MetricsRegistry())
        self.obs = obs
        # name -> (launches, elements, modeled_s) registry counters.
        self._kernel_counters: dict[str, tuple] = {}
        self._stats_lock = threading.Lock()

    def set_breakdown(self, breakdown: TimeBreakdown) -> None:
        """Point timing accumulation at a fresh breakdown (per pipeline run)."""
        self.breakdown = breakdown

    def _record_kernel(self, name: str, n_elements: int, modeled_s: float,
                       n_launches: int = 1) -> None:
        counters = self._kernel_counters.get(name)
        if counters is None:
            metrics = self.obs.metrics
            with self._stats_lock:
                counters = self._kernel_counters.setdefault(name, (
                    metrics.counter(f"device.kernel.{name}.launches"),
                    metrics.counter(f"device.kernel.{name}.elements"),
                    metrics.counter(f"device.kernel.{name}.modeled_s")))
        launches, elements, modeled = counters
        launches.add(n_launches)
        elements.add(int(n_elements))
        modeled.add(modeled_s)

    @property
    def kernel_stats(self) -> dict[str, dict]:
        """Per-kernel-class launch counters (obs-registry-backed view)."""
        with self._stats_lock:
            return {name: {"launches": c[0].value, "elements": c[1].value,
                           "modeled_s": c[2].value}
                    for name, c in sorted(self._kernel_counters.items())}

    def sync_metrics(self) -> None:
        """Mirror transfer/scratch accounting into the metrics registry.

        Transfer bytes and scratch-pool counters accumulate in their own
        structures on the hot path (one lock each, no per-call registry
        lookups); this copies their totals into gauges so one
        ``metrics.snapshot()`` carries the whole device picture.
        """
        metrics = self.obs.metrics
        metrics.gauge("device.h2d_bytes").set(self.memory.bytes_to_device)
        metrics.gauge("device.d2h_bytes").set(self.memory.bytes_to_host)
        metrics.gauge("device.peak_device_bytes").set(self.memory.peak_bytes)
        metrics.gauge("device.scratch.hits").set(self.scratch.n_reuses)
        metrics.gauge("device.scratch.misses").set(self.scratch.n_allocations)
        metrics.gauge("device.scratch.peak_bytes").set(
            self.scratch.bytes_allocated)

    def profile(self) -> dict:
        """Machine-readable breakdown: kernel launches, bytes, pool counters.

        The per-kernel-launch view future perf work reads instead of editing
        benchmark code: counts and modeled seconds from the device cost
        model, transfer byte totals, scratch-pool reuse counters, and the
        measured wall-clock buckets of the attached breakdown.  All counts
        live in the obs metrics registry; this assembles the stable shape.
        """
        self.sync_metrics()
        return {
            "device": self.spec.name,
            "kernels": self.kernel_stats,
            "transfers": {
                "bytes_to_device": self.memory.bytes_to_device,
                "bytes_to_host": self.memory.bytes_to_host,
                "peak_device_bytes": self.memory.peak_bytes,
            },
            "scratch_pool": {
                "n_allocations": self.scratch.n_allocations,
                "n_reuses": self.scratch.n_reuses,
                "bytes_allocated": self.scratch.bytes_allocated,
            },
            "measured_buckets_s": {k: round(v, 6)
                                   for k, v in self.breakdown.as_row().items()},
        }

    # ------------------------------------------------------------------ #
    # Transfers
    # ------------------------------------------------------------------ #

    def upload(self, host_array: np.ndarray) -> DeviceBuffer:
        """Host -> device copy (synchronous), charged to ``data_c2g``."""
        t0 = time.perf_counter()
        buf, modeled = self.memory.to_device(host_array)
        self._charge_transfer(BUCKET_C2G, "upload", t0, modeled, buf.nbytes)
        return buf

    def download(self, buffer: DeviceBuffer) -> np.ndarray:
        """Device -> host copy (synchronous), charged to ``data_g2c``."""
        t0 = time.perf_counter()
        data, modeled = self.memory.to_host(buffer)
        self._charge_transfer(BUCKET_G2C, "download", t0, modeled, data.nbytes)
        return data

    def download_into(self, buffer: DeviceBuffer, out: np.ndarray) -> np.ndarray:
        """Device -> host copy into an existing host array (``data_g2c``).

        Same accounting as :meth:`download`, but the destination is caller-
        provided (typically a slice of a pass-level accumulator), so the
        transfer allocates nothing.
        """
        t0 = time.perf_counter()
        modeled = self.memory.to_host_into(buffer, out)
        self._charge_transfer(BUCKET_G2C, "download", t0, modeled, out.nbytes)
        return out

    def _charge_transfer(self, bucket: str, name: str, t0: float,
                         modeled: float, nbytes: int) -> None:
        """Charge a transfer that began at ``t0`` and just ended to
        ``bucket``; the bookkeeping after it goes to the cpu bucket."""
        t1 = time.perf_counter()
        breakdown = self.breakdown
        with breakdown.timing(BUCKET_CPU):
            breakdown.add(bucket, t1 - t0)
            breakdown.add_modeled(bucket, modeled)
            tracer = self.obs.tracer
            if tracer.enabled:
                tracer.record(f"device.{name}", t0, t1,
                              attrs={"bytes": nbytes, "modeled_s": modeled})

    def free(self, *buffers: DeviceBuffer) -> None:
        for buf in buffers:
            buf.free()

    # ------------------------------------------------------------------ #
    # Shingle extraction (Algorithm 1)
    # ------------------------------------------------------------------ #

    def shingle_chunk(
        self,
        d_elements: DeviceBuffer,
        d_indptr: DeviceBuffer,
        *,
        a: np.ndarray,
        b: np.ndarray,
        prime: int,
        s: int,
        salts: np.ndarray,
        kernel: str = KERNEL_FUSED,
        seg_ids: np.ndarray | None = None,
        n_values: int | None = None,
        out_fps: np.ndarray | None = None,
        out_top: np.ndarray | None = None,
        label: str = "trial chunk",
    ) -> tuple[np.ndarray, np.ndarray]:
        """One kernel round: a chunk of trials over one uploaded batch.

        Algorithm 1 on device-resident data: the fused hash+pack transform
        writes one uint32 key buffer (see
        :func:`repro.device.kernels.fused_hash`), ``kernel`` picks the top-
        ``s`` engine (``"fused"``: s-round segmented min; ``"sort"``: full
        segmented sort), and the ids and packed ``(hash, id)`` pairs are
        recovered from the selected block via the inverse affine map.
        ``n_values`` (the exclusive id upper bound, computed once per batch
        by the pass) sizes the hash's lookup table.

        This is the unit of work a multi-stream execution plan schedules:
        every internal working array comes from :attr:`scratch` and the
        results land in the caller-provided ``out_fps``/``out_top`` host
        buffers (or fresh arrays when omitted), so the steady state of a
        pass performs zero fresh large allocations.  Thread-safe: concurrent
        streams draw distinct scratch buffers and the breakdown and
        memory accounting are lock-protected.

        Returns the ``(fps, top)`` host arrays for trials ``a``/``b``/``salts``
        describe — shapes ``(t, n_seg)`` uint64 fingerprints and ``(t,
        n_seg, s)`` packed pairs, ``SENTINEL``-padded for segments shorter
        than ``s``.
        """
        t = len(a)
        if not (len(b) == len(salts) == t):
            raise ValueError("a, b, salts must have equal length")
        t0 = time.perf_counter()
        elements = d_elements.device_view()
        indptr = d_indptr.device_view().astype(np.int64, copy=False)
        n_seg = indptr.size - 1
        nnz = elements.size
        pool = self.scratch
        top = pool.take((t, n_seg, s), np.uint64)
        _, table, top32, top_ids, d_work = self._select_top_ids(
            elements, indptr, kernel=kernel, a=a, b=b, prime=prime, s=s,
            seg_ids=seg_ids, n_values=n_values, tournament=None,
            out_packed=top)
        fps = pool.take((t, n_seg), np.uint64)
        kernels.fold_fingerprints(
            top_ids, np.asarray(salts, dtype=np.uint64),
            scratch=pool, out=fps)
        d_top = self.memory.adopt(top)
        d_fps = self.memory.adopt(fps)
        t1 = time.perf_counter()
        with self.breakdown.timing(BUCKET_CPU):
            self.breakdown.add(BUCKET_GPU, t1 - t0)
            tracer = self.obs.tracer
            if tracer.enabled:
                tracer.record("device.shingle_chunk", t0, t1,
                              attrs={"kernel": kernel, "trials": t,
                                     "nnz": nnz, "n_seg": n_seg,
                                     "label": label})
            reduce_s = self.spec.kernels.seconds_for(
                "reduce",
                kernels.count_kernel_elements("reduce", t, nnz, n_seg, s))
            self._record_kernel("fingerprint_fold", t * n_seg * s, reduce_s)
            self.breakdown.add_modeled(
                BUCKET_GPU,
                self._charge_select(kernel, t, nnz, n_seg, s) + reduce_s)

        # Transfer this round's shingles back immediately (synchronous).
        if out_top is None:
            out_top = self.download(d_top)
        else:
            self.download_into(d_top, out_top)
        if out_fps is None:
            out_fps = self.download(d_fps)
        else:
            self.download_into(d_fps, out_fps)
        with self.breakdown.timing(BUCKET_CPU):
            self.free(*d_work, d_top, d_fps)
            pool.give(fps, top, table, top32, top_ids)
        return out_fps, out_top

    def shingle_chunk_reduce(
        self,
        d_elements: DeviceBuffer,
        d_indptr: DeviceBuffer,
        d_gen_ids: DeviceBuffer,
        *,
        a: np.ndarray,
        b: np.ndarray,
        prime: int,
        s: int,
        salts: np.ndarray,
        kernel: str = KERNEL_FUSED,
        seg_ids: np.ndarray | None = None,
        n_values: int | None = None,
        tournament: kernels.TournamentPlan | None = None,
        check: bool = False,
        label: str = "trial chunk",
    ) -> tuple:
        """One kernel round with on-device sort-dedup reduction.

        Hashes and selects each segment's top-``s`` ids, then runs
        :func:`repro.device.kernels.chunk_reduce` on the device: the raw
        ``(t, n_seg, s)`` occurrence block is sorted and deduplicated
        *before* transfer, so the host downloads a compacted
        ``(k_chunk,)``-shaped partial (fingerprint-sorted, with first-
        occurrence member rows and ready-made generator lists) instead of
        the dense arrays — cutting g2c bytes from O(t*n*(s+1)*8) to
        roughly O(t*n*4 + k*(8+4*s+4)).

        The top-``s`` engine is :meth:`_select_top_ids`'s: for
        ``kernel="fused"`` the binned tournament of ``tournament`` (the
        pass's :func:`~repro.device.kernels.build_tournament_plan`), or
        the eager ``segmented_select_top_s`` without a plan; for
        ``kernel="sort"`` the full segmented sort.  ``check`` re-runs the
        eager sequence after the timed region and raises
        ``AssertionError`` if the tournament's ids differ.

        Requires pre-compacted input (every segment's length >= s, so no
        sentinel entries) and ``reduce_keys_fit(t, n_seg, s, n_values)`` —
        the driver checks both.  ``d_gen_ids`` is the device-resident uint32
        table mapping columns to original segment ids.

        Returns host arrays ``(fps, members, gen_counts, gens)`` in the
        wire dtypes of ``chunk_reduce`` (uint64/uint32).
        """
        t = len(a)
        t0 = time.perf_counter()
        elements = d_elements.device_view()
        indptr = d_indptr.device_view().astype(np.int64, copy=False)
        n_seg = indptr.size - 1
        nnz = elements.size
        pool = self.scratch
        tournament, table, top32, top_ids, d_work = self._select_top_ids(
            elements, indptr, kernel=kernel, a=a, b=b, prime=prime, s=s,
            seg_ids=seg_ids, n_values=n_values, tournament=tournament)
        reduce_cols = ({"col_ids": tournament.perm_cols,
                        "col_to_row": tournament.col_to_row}
                       if tournament is not None else {})
        fps, members, gen_counts, gens = kernels.chunk_reduce(
            top_ids, np.asarray(salts, dtype=np.uint64),
            d_gen_ids.device_view(), n_values, scratch=pool, **reduce_cols)
        d_out = [self.memory.adopt(arr)
                 for arr in (fps, members, gen_counts, gens)]
        t1 = time.perf_counter()
        with self.breakdown.timing(BUCKET_CPU):
            self.breakdown.add(BUCKET_GPU, t1 - t0)
            tracer = self.obs.tracer
            if tracer.enabled:
                tracer.record("device.shingle_chunk_reduce", t0, t1,
                              attrs={"kernel": kernel, "trials": t,
                                     "nnz": nnz, "n_seg": n_seg,
                                     "k_chunk": int(fps.size),
                                     "label": label,
                                     "select": _engine(kernel, tournament)})
            select_s = self._charge_select(kernel, t, nnz, n_seg, s)
            sort_s = self.spec.kernels.seconds_for(
                "sort", kernels.count_kernel_elements("chunk_reduce", t, nnz,
                                                      n_seg, s))
            reduce_s = self.spec.kernels.seconds_for(
                "reduce", kernels.count_kernel_elements("reduce", t, nnz,
                                                        n_seg, s))
            self._record_kernel("chunk_reduce_sort", t * n_seg, sort_s)
            self._record_kernel("chunk_reduce_fold", t * n_seg * s, reduce_s)
            self.breakdown.add_modeled(BUCKET_GPU,
                                       select_s + sort_s + reduce_s)
            if check and tournament is not None:
                self._check_selection(elements, indptr, top_ids, tournament,
                                      a=a, b=b, prime=prime, s=s,
                                      n_values=n_values, label=label)
            self.free(*d_work)
            pool.give(table, top32, top_ids)
        # The compacted partial is all that crosses the PCIe link.
        host = tuple(self.download(buf) for buf in d_out)
        with self.breakdown.timing(BUCKET_CPU):
            self.free(*d_out)
        return host

    def shingle_chunk_ids(
        self,
        d_elements: DeviceBuffer,
        d_indptr: DeviceBuffer,
        *,
        a: np.ndarray,
        b: np.ndarray,
        prime: int,
        s: int,
        n_values: int,
        tournament: kernels.TournamentPlan | None,
        kernel: str = KERNEL_FUSED,
        seg_ids: np.ndarray | None = None,
        check: bool = False,
        label: str = "trial chunk",
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """One kernel round that returns only the top-``s`` ids.

        The hash + select + id recovery of :meth:`shingle_chunk_reduce`,
        without the fingerprint fold or the reduction: Phase III's
        partition union needs each occurrence slot's member ids, not the
        distinct shingles.  Same input contract, working-set charge and
        ``check`` as :meth:`shingle_chunk_reduce`; ``seg_ids`` is the
        batch's optional :func:`~repro.device.kernels.segment_element_ids`
        table for the eager select and the sort.

        Returns ``(ids, perm)``: the ``(t, n_seg, s)`` uint32 id block,
        downloaded, and the plan's column permutation (``ids[:, i]``
        belongs to segment ``perm[i]``) — ``None`` when no tournament ran
        (the eager select or the sort), whose columns are in segment order.
        """
        t = len(a)
        t0 = time.perf_counter()
        elements = d_elements.device_view()
        indptr = d_indptr.device_view().astype(np.int64, copy=False)
        n_seg = indptr.size - 1
        nnz = elements.size
        pool = self.scratch
        used, table, top32, top_ids, d_work = self._select_top_ids(
            elements, indptr, kernel=kernel, a=a, b=b, prime=prime, s=s,
            seg_ids=seg_ids, n_values=n_values, tournament=tournament)
        # Ids fit 32 bits; the narrower block halves the download.
        ids = pool.take((t, n_seg, s), np.uint32)
        np.copyto(ids, top_ids, casting="unsafe")
        d_ids = self.memory.adopt(ids)
        t1 = time.perf_counter()
        with self.breakdown.timing(BUCKET_CPU):
            self.breakdown.add(BUCKET_GPU, t1 - t0)
            tracer = self.obs.tracer
            if tracer.enabled:
                tracer.record("device.shingle_chunk", t0, t1,
                              attrs={"kernel": kernel, "trials": t,
                                     "nnz": nnz, "n_seg": n_seg,
                                     "label": label,
                                     "select": _engine(kernel, used)})
            self.breakdown.add_modeled(
                BUCKET_GPU, self._charge_select(kernel, t, nnz, n_seg, s))
            if check and used is not None:
                self._check_selection(elements, indptr, top_ids, used,
                                      a=a, b=b, prime=prime, s=s,
                                      n_values=n_values, label=label)
            self.free(*d_work)
            pool.give(table, top32, top_ids)
        host = self.download(d_ids)
        with self.breakdown.timing(BUCKET_CPU):
            self.free(d_ids)
            pool.give(ids)
        return host, (used.perm if used is not None else None)

    def _select_top_ids(self, elements, indptr, *, kernel, a, b, prime, s,
                        seg_ids, n_values, tournament, out_packed=None):
        """Hash, select and recover each segment's top-``s`` ids.

        The shared front half of every chunk round, timed by the caller.
        The hash is always the fused uint32 key; ``kernel`` only picks the
        top-``s`` engine.  ``"fused"`` runs the tournament of
        ``tournament`` over its ``tournament_table``, or with no plan the
        eager ``fused_hash`` + ``segmented_select_top_s`` sequence;
        ``"sort"`` runs ``fused_hash`` + ``segmented_sort_top_s`` and
        ignores the plan.  Either way the hash keys (the tournament's
        table, the eager ``(t, nnz)`` buffer) and the selected key and id
        blocks are charged to device memory.

        Without ``out_packed`` the input must be pre-compacted (every
        segment at least ``s`` long, as the reducing rounds require).  With it, short segments are allowed: their padding
        comes back as ``SENTINEL`` ids and pairs, and the rebuilt packed
        ``(hash, id)`` pairs land in ``out_packed``.

        Returns ``(tournament, table, top32, top_ids, d_work)``: the plan
        actually used (``None`` when no tournament ran), the scratch arrays
        to give back, and the working-set buffers to free.
        """
        if kernel not in KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}")
        t, nnz, n_seg = len(a), elements.size, indptr.size - 1
        pool = self.scratch
        if kernel == KERNEL_SORT:
            tournament = None
        if tournament is not None:
            table = kernels.tournament_table(tournament, a, b, prime,
                                             scratch=pool)
        else:
            table = pool.take((t, nnz), np.uint32)
            kernels.fused_hash(elements, a, b, prime, out=table,
                               scratch=pool, n_values=n_values)
        top32 = pool.take((t, n_seg, s), np.uint32)
        top_ids = pool.take((t, n_seg, s), np.uint64)
        if tournament is not None:
            kernels.run_tournament(tournament, table, s, out=top32,
                                   scratch=pool)
        elif kernel == KERNEL_SORT:
            kernels.segmented_sort_top_s(table, indptr, s, seg_ids=seg_ids,
                                         out=top32)
        else:
            kernels.segmented_select_top_s(table, indptr, s, scratch=pool,
                                           seg_ids=seg_ids, out=top32,
                                           consume=True)
        kernels.recover_top_ids(top32, a, b, prime, out_ids=top_ids,
                                out_packed=out_packed, scratch=pool,
                                has_sentinels=out_packed is not None)
        # Working set on device: hash keys plus the selected key/id blocks.
        d_work = [self.memory.adopt(arr) for arr in (table, top32, top_ids)]
        return tournament, table, top32, top_ids, d_work

    def _charge_select(self, kernel: str, t: int, nnz: int, n_seg: int,
                       s: int) -> float:
        """Count the fused transform + top-``s`` launches of one chunk
        round (``top_s_sort`` for the sort engine, else ``top_s_select``);
        returns their modeled seconds."""
        engine = "sort" if kernel == KERNEL_SORT else "select"
        transform_s = self.spec.kernels.seconds_for("transform", t * nnz)
        select_s = self.spec.kernels.seconds_for(
            engine, kernels.count_kernel_elements(engine, t, nnz, n_seg, s))
        self._record_kernel("fused_transform", t * nnz, transform_s)
        self._record_kernel(f"top_s_{engine}", t * nnz * s, select_s)
        return transform_s + select_s

    def _check_selection(self, elements, indptr, top_ids, tournament, *, a,
                         b, prime, s, n_values, label) -> None:
        """Re-run the eager select on the host and compare with the
        tournament's ids; raises ``AssertionError`` on a mismatch.

        Host-side verification, outside the timed kernel region (the
        caller charges it to the cpu bucket).
        """
        eager_ids = kernels.recover_top_ids(
            kernels.segmented_select_top_s(
                kernels.fused_hash(elements, a, b, prime,
                                   n_values=n_values), indptr, s),
            a, b, prime, has_sentinels=False)[0]
        if not np.array_equal(top_ids, eager_ids[:, tournament.perm, :]):
            raise AssertionError(
                f"tournament selection differs from the eager select "
                f"({label})")


def _engine(kernel: str, tournament) -> str:
    """The top-``s`` engine a chunk round ran (a trace span attribute)."""
    if kernel == KERNEL_SORT:
        return "sort"
    return "tournament" if tournament is not None else "eager"
