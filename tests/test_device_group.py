"""Multi-device group: topology, dispatcher, bit-identity, observability.

The DeviceGroup contract: N independent members behind one facade, with a
shared breakdown/obs context, a host link whose modeled seconds stretch
under concurrent sibling transfers, a cheaper peer path for device-device
exchange, and a deterministic least-loaded dispatcher — and, above all,
output bit-identical to the single-device and serial paths for every
member count.
"""

import threading

import numpy as np
import pytest

from repro.core.device_exec import device_shingle_pass
from repro.core.params import ShinglingParams
from repro.core.pipeline import GpClust, SerialPClust
from repro.core.serial import serial_shingle_pass
from repro.device.device import SimulatedDevice
from repro.device.group import (
    DeviceGroup,
    GroupTopology,
    HostLink,
    least_loaded_assignment,
    run_sharded,
)
from repro.device.timingmodels import TransferModel
from repro.obs import observe, use_obs
from repro.util.timer import BUCKET_C2G, BUCKET_P2P, TimeBreakdown
from tests.conftest import random_blocky_graph


class TestLeastLoadedAssignment:
    def test_deterministic_and_balanced(self):
        costs = [16, 16, 16, 16, 16, 16, 4]
        owners = least_loaded_assignment(costs, 2)
        assert owners == least_loaded_assignment(costs, 2)  # pure function
        loads = [0, 0]
        for cost, owner in zip(costs, owners):
            loads[owner] += cost
        assert max(loads) - min(loads) <= max(costs)

    def test_ties_go_to_lowest_index(self):
        assert least_loaded_assignment([1, 1, 1], 3) == [0, 1, 2]

    def test_single_member(self):
        assert least_loaded_assignment([5, 2, 9], 1) == [0, 0, 0]

    def test_rejects_zero_members(self):
        with pytest.raises(ValueError):
            least_loaded_assignment([1], 0)


class TestRunSharded:
    def test_items_run_in_order_on_their_members_thread(self):
        costs = [16, 16, 16, 16, 16, 16, 4]
        ran: list[tuple[int, int, str]] = []
        lock = threading.Lock()

        def work(item, member):
            with lock:
                ran.append((item, member, threading.current_thread().name))

        run_sharded(range(len(costs)), costs, work, 3)
        owners = least_loaded_assignment(costs, 3)
        assert sorted(ran) == [(i, owners[i], f"dev{owners[i]}")
                               for i in range(len(costs))]
        for member in range(3):
            mine = [item for item, owner, _ in ran if owner == member]
            assert mine == sorted(mine)

    def test_first_error_reraised_after_every_member_ran(self):
        done = []

        def work(item, member):
            if item == 0:
                raise RuntimeError("boom")
            done.append(item)

        with pytest.raises(RuntimeError, match="boom"):
            run_sharded([0, 1, 2, 3], [1, 1, 1, 1], work, 2)
        # Member 0's shard stops at its failing item; member 1's finishes.
        assert sorted(done) == [1, 3]


class TestHostLink:
    def test_uncontended_charge_is_identity(self):
        link = HostLink(lanes=1)
        assert link.charge(0.5, 1) == 0.5
        assert link.contended_s == 0.0

    def test_oversubscription_stretches_modeled_seconds(self):
        link = HostLink(lanes=1)
        assert link.charge(1.0, 3) == pytest.approx(3.0)
        assert link.contended_s == pytest.approx(2.0)
        # Two lanes halve the factor.
        link2 = HostLink(lanes=2)
        assert link2.charge(1.0, 3) == pytest.approx(1.5)

    def test_concurrent_transfers_observed(self):
        """Modeled contention fires when sibling devices really overlap:
        a barrier holds every thread inside begin()/end() simultaneously."""
        group = DeviceGroup(3)
        barrier = threading.Barrier(3)
        data = np.arange(64, dtype=np.int64)

        def transfer(i):
            link = group.host_link
            active = link.begin()
            try:
                barrier.wait(timeout=5)
                link.charge(1.0, active)
            finally:
                link.end()

        threads = [threading.Thread(target=transfer, args=(i,))
                   for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert group.host_link.peak_active == 3
        # The last to arrive saw all 3 in flight; total surplus is at least
        # one transfer's worth even if arrivals staggered.
        assert group.host_link.contended_s >= 1.0
        del data

    def test_validation(self):
        with pytest.raises(ValueError):
            HostLink(lanes=0)
        with pytest.raises(ValueError):
            GroupTopology(host_lanes=0)


class TestDeviceGroupBasics:
    def test_members_are_independent(self):
        group = DeviceGroup(3)
        assert group.n_devices == 3
        a = group.members[0].upload(np.arange(100, dtype=np.int64))
        assert group.members[0].memory.used_bytes > 0
        assert group.members[1].memory.used_bytes == 0
        assert group.members[2].memory.used_bytes == 0
        a.free()

    def test_rejects_zero_devices(self):
        with pytest.raises(ValueError):
            DeviceGroup(0)

    def test_shared_breakdown(self):
        bd = TimeBreakdown()
        group = DeviceGroup(2, breakdown=bd)
        buf = group.members[1].upload(np.arange(10, dtype=np.int64))
        assert bd.get(BUCKET_C2G) > 0.0
        assert bd.get_modeled(BUCKET_C2G) > 0.0
        buf.free()

    def test_set_breakdown_repoints_every_member(self):
        group = DeviceGroup(2)
        fresh = TimeBreakdown()
        group.set_breakdown(fresh)
        assert all(m.breakdown is fresh for m in group.members)
        buf = group.members[0].upload(np.arange(4, dtype=np.int64))
        assert fresh.get(BUCKET_C2G) > 0.0
        buf.free()


class TestBroadcastAndPeerCopy:
    def test_broadcast_reaches_every_member(self):
        group = DeviceGroup(3)
        data = np.arange(1000, dtype=np.int64)
        buffers = group.broadcast(data)
        assert len(buffers) == 3
        for buf in buffers:
            assert np.array_equal(buf.device_view(), data)
        group.free(*buffers)
        assert all(m.memory.used_bytes == 0 for m in group.members)

    def test_peer_copies_skip_the_host_link(self):
        """Broadcast crosses PCIe once: sibling bytes ride the peer fabric,
        so only member 0's h2d counter moves and data_p2p gets charged."""
        bd = TimeBreakdown()
        group = DeviceGroup(3, breakdown=bd)
        data = np.arange(1000, dtype=np.int64)
        buffers = group.broadcast(data)
        assert group.members[0].memory.bytes_to_device == data.nbytes
        assert group.members[1].memory.bytes_to_device == 0
        assert group.members[2].memory.bytes_to_device == 0
        assert group.p2p_bytes == 2 * data.nbytes
        assert bd.get(BUCKET_P2P) > 0.0
        assert bd.get_modeled(BUCKET_P2P) > 0.0
        group.free(*buffers)

    def test_p2p_model_is_cheaper_than_host_bounce(self):
        """The default peer model must undercut download + re-upload."""
        group = DeviceGroup(2)
        nbytes = 10 * 2**20
        host = group.spec.transfer.seconds_for(nbytes)
        peer = group.topology.p2p.seconds_for(nbytes)
        assert peer < 2 * host

    def test_custom_topology(self):
        slow = TransferModel(latency_s=1.0, bandwidth_bytes_per_s=1.0)
        group = DeviceGroup(
            2, topology=GroupTopology(host_lanes=4, p2p=slow))
        assert group.host_link.lanes == 4
        bd = group.breakdown
        buffers = group.broadcast(np.arange(8, dtype=np.int64))
        assert bd.get_modeled(BUCKET_P2P) >= 1.0  # the slow peer latency
        group.free(*buffers)


class TestGroupObservability:
    def test_per_device_metric_prefixes(self):
        ctx = observe(trace=False)
        with use_obs(ctx):
            group = DeviceGroup(2)
            g = random_blocky_graph(seed=40)
            params = ShinglingParams(c1=12, c2=6, trial_chunk=4, devices=2)
            GpClust(params).run(g, device=group)
            group.sync_metrics()
        counters = ctx.metrics.snapshot()["counters"]
        gauges = ctx.metrics.snapshot()["gauges"]
        for i in range(2):
            assert any(k.startswith(f"device{i}.kernel.") for k in counters), i
            assert f"device{i}.h2d_bytes" in gauges, i
        assert gauges["group.n_devices"] == 2
        assert gauges["group.p2p_bytes"] > 0

    def test_per_device_trace_procs(self):
        ctx = observe(trace=True)
        with use_obs(ctx):
            group = DeviceGroup(2)
            g = random_blocky_graph(seed=41)
            params = ShinglingParams(c1=12, c2=6, trial_chunk=4, devices=2)
            GpClust(params).run(g, device=group)
        procs = {r.proc for r in ctx.tracer.records}
        assert {"device0", "device1"} <= procs

    def test_profile_shape(self):
        group = DeviceGroup(2)
        buffers = group.broadcast(np.arange(100, dtype=np.int64))
        group.free(*buffers)
        prof = group.profile()
        assert prof["n_devices"] == 2
        assert len(prof["members"]) == 2
        assert prof["p2p_bytes"] > 0
        assert prof["host_link"]["lanes"] == 1
        # The single-device alias keys every profile consumer relies on.
        for key in ("kernels", "transfers", "scratch_pool",
                    "measured_buckets_s"):
            assert key in prof, key
        assert prof["transfers"]["bytes_to_device"] > 0

    def test_modeled_kernel_seconds_per_member(self):
        group = DeviceGroup(2)
        g = random_blocky_graph(seed=42)
        params = ShinglingParams(c1=12, c2=6, trial_chunk=4, devices=2)
        GpClust(params).run(g, device=group)
        modeled = group.modeled_kernel_seconds()
        assert len(modeled) == 2
        assert all(s > 0.0 for s in modeled)  # both members did kernel work


class TestShinglePassBitIdentity:
    @pytest.mark.parametrize("devices", [1, 2, 4])
    def test_matches_serial(self, blocky_graph, small_params, devices):
        cfg = small_params.pass_config(1)
        ref = serial_shingle_pass(blocky_graph.indptr, blocky_graph.indices,
                                  cfg)
        got = device_shingle_pass(blocky_graph.indptr, blocky_graph.indices,
                                  cfg, DeviceGroup(devices), trial_chunk=3)
        assert got == ref

    @pytest.mark.parametrize("devices", [2, 4])
    def test_multi_batch_matches_serial(self, small_params, devices):
        """Batches split across the element budget x chunks sharded across
        members: the out-of-order merge must still be exact."""
        g = random_blocky_graph(seed=31)
        cfg = small_params.pass_config(1)
        ref = serial_shingle_pass(g.indptr, g.indices, cfg)
        got = device_shingle_pass(g.indptr, g.indices, cfg,
                                  DeviceGroup(devices), trial_chunk=4,
                                  max_elements=97)
        assert got == ref

    def test_plain_device_degrades_to_sync(self, blocky_graph, small_params):
        """``devices=2`` parameters over a caller's plain SimulatedDevice
        run the single-device schedule on it, and still match."""
        params = small_params.with_overrides(devices=2)
        g = random_blocky_graph(seed=3)
        ref = SerialPClust(params).run(g)
        device = SimulatedDevice()
        got = GpClust(params).run(g, device=device)
        assert np.array_equal(got.labels, ref.labels)
        assert sum(s["launches"] for s in device.kernel_stats.values()) > 0

    def test_full_pipeline_across_device_counts(self, small_params):
        g = random_blocky_graph(seed=23)
        serial = SerialPClust(small_params).run(g)
        for devices in (1, 2, 4):
            params = small_params.with_overrides(devices=devices)
            result = GpClust(params).run(g)
            assert np.array_equal(result.labels, serial.labels), devices

    def test_work_actually_distributes(self, small_params):
        """More than one member must receive kernel launches (the
        dispatcher is not secretly serial)."""
        group = DeviceGroup(2)
        g = random_blocky_graph(seed=24)
        GpClust(small_params.with_overrides(devices=2)).run(g, device=group)
        launches = [sum(s["launches"] for s in m.kernel_stats.values())
                    for m in group.members]
        assert all(n > 0 for n in launches)


class TestParamsWiring:
    def test_devices_forces_multidevice_plan(self):
        """``devices=3`` makes GpClust build and shard over a 3-group."""
        ctx = observe(trace=False)
        with use_obs(ctx):
            GpClust(ShinglingParams(c1=12, c2=6, trial_chunk=4, devices=3)
                    ).run(random_blocky_graph(seed=24))
        gauges = ctx.metrics.snapshot()["gauges"]
        assert gauges["group.n_devices"] == 3
        # The batch is replicated onto every member, not divided.
        assert gauges["group.p2p_bytes"] > 0

    def test_single_device_keeps_exec_mode(self):
        """On one device GpClust runs the passes at the given stream count."""
        ctx = observe()
        with use_obs(ctx):
            GpClust(ShinglingParams(c1=12, c2=6, trial_chunk=4, streams=3)
                    ).run(random_blocky_graph(seed=24))
        passes = [r.attrs for r in ctx.tracer.records
                  if r.name == "exec.shingle_pass"]
        assert passes
        assert all(a["streams"] == 3 and a["devices"] == 1 for a in passes)
        assert any(r.track.startswith("stream") for r in ctx.tracer.records)

    def test_devices_validation(self):
        with pytest.raises(ValueError):
            ShinglingParams(devices=0)
        with pytest.raises(ValueError, match="streams"):
            ShinglingParams(streams=2, devices=2)

    def test_cli_accepts_devices(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["cluster", "g.npz", "--devices", "2"])
        assert args.devices == 2
        assert args.streams == 1

    def test_end_to_end_devices_override(self):
        from repro.pipeline.end_to_end import run_end_to_end
        from repro.sequence.generator import (SequenceFamilyConfig,
                                              generate_protein_families)

        ps = generate_protein_families(
            SequenceFamilyConfig(n_families=4, family_size_median=8.0),
            seed=2)
        ref = run_end_to_end(protein_set=ps, seed=3)
        got = run_end_to_end(protein_set=ps, seed=3, devices=2)
        assert np.array_equal(ref.clustering.labels, got.clustering.labels)
        assert np.array_equal(ref.homology.graph.indices,
                              got.homology.graph.indices)
