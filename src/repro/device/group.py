"""A group of simulated devices behind one facade.

The paper's gpClust drives a single Tesla K20 and names its scaling limits
explicitly: device memory and the one CPU<->GPU link.  This module models
the obvious next platform — several boards in one host — the way the rest
of ``repro.device`` models one board:

* :class:`DeviceGroup` owns N independent :class:`SimulatedDevice` members.
  Each member keeps its *own* memory capacity, scratch pool, and kernel
  counters (metric prefix ``device{i}``, Chrome-trace process coordinate
  ``device{i}``), while all members share one :class:`TimeBreakdown` and
  one obs context — so Table-I accounting and a single metrics snapshot
  still see the whole pipeline, exactly like concurrent trial-chunk
  streams on one device accumulate busy seconds into shared buckets.
* :class:`GroupTopology` describes the transfer fabric: ``host_lanes``
  PCIe lanes shared by every member (a :class:`HostLink` stretches modeled
  transfer seconds when siblings copy concurrently — the oversubscription
  a real dual-board host shows on one x16 switch) and a cheaper
  peer-to-peer :class:`TransferModel` for device<->device exchange
  (NVLink/PCIe P2P class), exercised by :meth:`DeviceGroup.broadcast`.
* :func:`least_loaded_assignment` is the dispatcher primitive: a static
  greedy assignment of independent work items to the member with the
  smallest accumulated modeled cost.  Static-by-cost (rather than dynamic
  work stealing by wall clock) keeps every device's kernel stream — and
  therefore the modeled group timeline — deterministic for a fixed
  workload, which is what lets benchmarks assert modeled speedups exactly.
  :func:`run_sharded` runs such an assignment, one driver thread per
  member; the shingle pass shards trial chunks with it.

Bit-identity across device counts holds by construction: the shingle pass
merges per-device chunk partials through the order-tolerant
``StreamingAggregator``, so *where* a unit of work ran never reaches the
results.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.device.device import SimulatedDevice
from repro.device.memory import DeviceBuffer
from repro.device.timingmodels import DeviceSpec, TransferModel
from repro.obs import MetricsRegistry, ObsContext, get_obs
from repro.util.timer import BUCKET_P2P, TimeBreakdown

#: Default peer-to-peer link: twice the PCIe-2.0 host bandwidth at half the
#: latency — the class of advantage direct GPU<->GPU copies show over a
#: host-bounce on real multi-board systems.
DEFAULT_P2P = TransferModel(latency_s=5e-6, bandwidth_bytes_per_s=12.0e9)


@dataclass(frozen=True)
class GroupTopology:
    """Transfer fabric of a device group.

    Attributes
    ----------
    host_lanes:
        How many host<->device transfers proceed at full modeled bandwidth
        concurrently.  With ``k`` simultaneous transfers over ``lanes``
        lanes, each transfer's modeled seconds stretch by ``k / lanes``
        (wall time is unaffected — contention is a property of the modeled
        PCIe fabric, not of this machine).
    p2p:
        Transfer model for direct device<->device copies.
    """

    host_lanes: int = 1
    p2p: TransferModel = field(default_factory=lambda: DEFAULT_P2P)

    def __post_init__(self) -> None:
        if self.host_lanes < 1:
            raise ValueError("host_lanes must be >= 1")


class HostLink:
    """Shared host<->device lanes with modeled contention.

    Every member of a group routes its uploads/downloads through one of
    these.  ``begin()`` returns the number of transfers in flight (self
    included) sampled under the lock; ``charge`` stretches the modeled
    seconds by the oversubscription factor and accumulates the surplus in
    ``contended_s`` so tests and benchmarks can observe exactly how much
    modeled time the shared link cost.
    """

    def __init__(self, lanes: int = 1) -> None:
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        self.lanes = int(lanes)
        self._lock = threading.Lock()
        self._active = 0
        self.peak_active = 0
        self.contended_s = 0.0

    def begin(self) -> int:
        with self._lock:
            self._active += 1
            if self._active > self.peak_active:
                self.peak_active = self._active
            return self._active

    def end(self) -> None:
        with self._lock:
            self._active -= 1

    def charge(self, modeled: float, active: int) -> float:
        """Modeled seconds stretched by the oversubscription at ``active``."""
        factor = max(1.0, active / self.lanes)
        if factor > 1.0:
            with self._lock:
                self.contended_s += modeled * (factor - 1.0)
        return modeled * factor


def least_loaded_assignment(costs, n_members: int) -> list[int]:
    """Assign work items to members, greedily balancing modeled cost.

    ``costs[j]`` is the modeled cost of item ``j`` (any positive unit —
    trial-chunk element volume, padded DP cells).  Items are walked in
    order and each goes to the member with the smallest accumulated load
    (ties to the lowest index), so the assignment — and every member's
    kernel stream — is a pure function of the cost vector.
    """
    if n_members < 1:
        raise ValueError("n_members must be >= 1")
    loads = [0.0] * n_members
    owners: list[int] = []
    for cost in costs:
        owner = min(range(n_members), key=lambda i: (loads[i], i))
        loads[owner] += float(cost)
        owners.append(owner)
    return owners


def run_sharded(items, costs, work, n_members: int) -> None:
    """Run ``work(item, member)`` for every item, sharded across members.

    Items go to members by :func:`least_loaded_assignment` over ``costs``.
    Each member with work gets one driver thread that runs its items in
    order, named ``dev{i}`` so its kernel rounds render as their own trace
    track.  The first error any thread raised is re-raised after all of
    them have joined.
    """
    owners = least_loaded_assignment(costs, n_members)
    shards: list[list] = [[] for _ in range(n_members)]
    for item, owner in zip(items, owners):
        shards[owner].append(item)
    errors: list[BaseException] = []

    def runner(member: int) -> None:
        try:
            for item in shards[member]:
                work(item, member)
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=runner, args=(i,), name=f"dev{i}")
               for i in range(n_members) if shards[i]]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class DeviceGroup:
    """N simulated devices presented as one accelerator.

    Drivers that understand groups (the shingle pass) shard work across
    :attr:`members` directly; everything else — breakdown plumbing,
    metrics flushing, profiling — goes through the same method names :class:`SimulatedDevice` exposes, so ``GpClust`` and the
    CLI treat a group exactly like a device.
    """

    def __init__(self, n_devices: int, spec: DeviceSpec | None = None,
                 breakdown: TimeBreakdown | None = None,
                 obs: ObsContext | None = None,
                 topology: GroupTopology | None = None) -> None:
        if n_devices < 1:
            raise ValueError("n_devices must be >= 1")
        self.spec = spec or DeviceSpec()
        self.breakdown = breakdown if breakdown is not None else TimeBreakdown()
        self.topology = topology or GroupTopology()
        if obs is None:
            ambient = get_obs()
            metrics = (ambient.metrics if ambient.metrics.enabled
                       else MetricsRegistry())
            obs = ObsContext(tracer=ambient.tracer, metrics=metrics)
        elif not obs.metrics.enabled:
            obs = ObsContext(tracer=obs.tracer, metrics=MetricsRegistry())
        self.obs = obs
        self.host_link = HostLink(self.topology.host_lanes)
        self.members = [
            SimulatedDevice(self.spec, breakdown=self.breakdown, obs=obs,
                            metric_prefix=f"device{i}", proc=f"device{i}",
                            host_link=self.host_link)
            for i in range(n_devices)
        ]
        # Peer-transfer accounting (bytes over the p2p fabric).
        self._p2p_lock = threading.Lock()
        self.p2p_bytes = 0

    @property
    def n_devices(self) -> int:
        return len(self.members)

    def set_breakdown(self, breakdown: TimeBreakdown) -> None:
        """Point every member's accounting at a fresh breakdown."""
        self.breakdown = breakdown
        for member in self.members:
            member.set_breakdown(breakdown)

    # ------------------------------------------------------------------ #
    # Transfers
    # ------------------------------------------------------------------ #

    def peer_copy(self, src_buffer: DeviceBuffer,
                  dst: SimulatedDevice) -> DeviceBuffer:
        """Device->device copy over the peer fabric (``data_p2p`` bucket).

        No PCIe counters move — the bytes never touch the host — but the
        destination's capacity is reserved like any allocation and the
        wall/modeled seconds land in the shared breakdown's ``data_p2p``
        bucket.
        """
        t0 = time.perf_counter()
        data = src_buffer.device_view().copy()
        buf = dst.memory.adopt(data)
        t1 = time.perf_counter()
        modeled = self.topology.p2p.seconds_for(data.nbytes)
        self.breakdown.add(BUCKET_P2P, t1 - t0)
        self.breakdown.add_modeled(BUCKET_P2P, modeled)
        with self._p2p_lock:
            self.p2p_bytes += data.nbytes
        tracer = self.obs.tracer
        if tracer.enabled:
            tracer.record("device.p2p_copy", t0, t1, proc=dst.proc,
                          attrs={"bytes": data.nbytes, "modeled_s": modeled})
        return buf

    def broadcast(self, host_array: np.ndarray) -> list[DeviceBuffer]:
        """Replicate a host array onto every member.

        One PCIe upload to member 0, then peer copies fan the buffer out to
        the siblings — the cheap path a real group uses for shared inputs
        (the batch element buffer, the residue arena): the host link is
        crossed once regardless of group size.
        """
        buffers = [self.members[0].upload(host_array)]
        for member in self.members[1:]:
            buffers.append(self.peer_copy(buffers[0], member))
        return buffers

    def free(self, *buffers: DeviceBuffer) -> None:
        for buf in buffers:
            buf.free()

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #

    def sync_metrics(self) -> None:
        """Flush every member's transfer/scratch gauges, plus group gauges."""
        for member in self.members:
            member.sync_metrics()
        metrics = self.obs.metrics
        metrics.gauge("group.n_devices").set(self.n_devices)
        metrics.gauge("group.p2p_bytes").set(self.p2p_bytes)
        metrics.gauge("group.host_link.peak_active").set(
            self.host_link.peak_active)
        metrics.gauge("group.host_link.contended_modeled_s").set(
            round(self.host_link.contended_s, 9))

    def modeled_kernel_seconds(self) -> list[float]:
        """Per-member modeled busy seconds (sum over kernel counters).

        The deterministic quantity the scaling benchmark reports: the
        group's modeled device time is the *maximum* over members (devices
        run concurrently in the model), so halving the max is what "2
        devices are 2x" means.
        """
        return [sum(stats["modeled_s"]
                    for stats in member.kernel_stats.values())
                for member in self.members]

    @property
    def kernel_stats(self) -> dict[str, dict]:
        """Group-wide kernel counters: member counters summed per kernel."""
        totals: dict[str, dict] = {}
        for member in self.members:
            for name, stats in member.kernel_stats.items():
                agg = totals.setdefault(
                    name, {"launches": 0, "elements": 0, "modeled_s": 0.0})
                for key, value in stats.items():
                    agg[key] += value
        return dict(sorted(totals.items()))

    def profile(self) -> dict:
        """Per-member profiles plus the group-level transfer picture.

        Carries the same ``kernels`` / ``transfers`` / ``scratch_pool`` /
        ``measured_buckets_s`` keys as a single device's profile (summed
        across members) so profile consumers treat a group like a device.
        """
        self.sync_metrics()
        members = [member.profile() for member in self.members]
        return {
            "device": f"{self.spec.name} x{self.n_devices}",
            "n_devices": self.n_devices,
            "members": members,
            "kernels": self.kernel_stats,
            "transfers": {
                key: sum(m["transfers"][key] for m in members)
                for key in ("bytes_to_device", "bytes_to_host",
                            "peak_device_bytes")
            },
            "scratch_pool": {
                key: sum(m["scratch_pool"][key] for m in members)
                for key in ("n_allocations", "n_reuses", "bytes_allocated")
            },
            "measured_buckets_s": {
                k: round(v, 6) for k, v in self.breakdown.as_row().items()},
            "p2p_bytes": self.p2p_bytes,
            "host_link": {
                "lanes": self.host_link.lanes,
                "peak_active": self.host_link.peak_active,
                "contended_modeled_s": round(self.host_link.contended_s, 9),
            },
            "modeled_kernel_seconds": [round(s, 9) for s in
                                       self.modeled_kernel_seconds()],
        }
