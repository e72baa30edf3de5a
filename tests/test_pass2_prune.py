"""Direct pass II skips the lists the Phase III union has already settled.

A pass II list is settled once its leader and every id in it share one
:class:`PartitionFold` root; all of its later edges are self-loops, so
:func:`device_union_pass` drops it before the next round, and skips every
round once none is left.  Labels must equal ``SerialPClust``'s whatever
the kernel or stream count (the random-graph property in
``test_pass2_union.py`` draws the trial chunk too); the counters must say
how many rounds ran, and the plan must be built once per distinct
active set.
"""

import numpy as np
import pytest

from repro.core import device_exec
from repro.core.params import ShinglingParams
from repro.core.pipeline import GpClust, SerialPClust
from repro.core.report import PartitionFold
from repro.core.serial import serial_shingle_pass
from repro.device.device import SimulatedDevice
from repro.obs import get_obs, observe, use_obs
from repro.util.timer import TimeBreakdown
from tests.conftest import disjoint_cliques, random_blocky_graph

BASE = ShinglingParams(s1=2, c1=10, s2=2, c2=7, trial_chunk=3, seed=5)


def _pass2_counters(device: SimulatedDevice) -> dict:
    """The ``shingle.pass2_*`` counters of a device's runs, short names."""
    counters = device.obs.metrics.snapshot()["counters"]
    return {name.split(".pass2_")[1]: value for name, value in
            counters.items() if name.startswith("shingle.pass2_")}


@pytest.mark.parametrize("seed", range(4))
def test_blocky_graphs_partly_settle(seed):
    """``test_pass2_union.py::test_random_graphs_match_serial`` reaches the
    pruning on these graphs: some list is settled before a round that
    still runs, and later rounds are skipped."""
    graph = random_blocky_graph(seed=seed, n=40, n_blocks=2, block=8,
                                n_noise=30)
    params = ShinglingParams(c1=8, c2=8, seed=seed, trial_chunk=2)
    device = SimulatedDevice()
    got = GpClust(params).run(graph, device=device).labels
    counts = _pass2_counters(device)
    assert 0 < counts["rounds"]
    assert counts["rounds"] + counts["rounds_skipped"] == 4
    assert counts["active_lists"] < counts["rounds"] * counts[
        "distinct_lists"]
    assert counts["rounds_skipped"] > 0
    assert np.array_equal(got, SerialPClust(params).run(graph).labels)


@pytest.mark.parametrize("kernel", ["fused", "sort"])
@pytest.mark.parametrize("streams", [1, 2])
def test_every_list_settled_before_round_one(monkeypatch, kernel, streams):
    """Disjoint cliques: the members fold settles every list, so pass II
    runs no round, plans nothing and uploads nothing."""
    plans, uploads = [], []
    real_plan = device_exec._plan_selection
    real_upload = SimulatedDevice.upload
    monkeypatch.setattr(device_exec, "_plan_selection",
                        lambda *a: plans.append(1) or real_plan(*a))
    monkeypatch.setattr(SimulatedDevice, "upload",
                        lambda self, x: uploads.append(1)
                        or real_upload(self, x))
    params = BASE.with_overrides(kernel=kernel, streams=streams)
    graph = disjoint_cliques()
    ctx = observe()
    device = SimulatedDevice(obs=ctx)
    with use_obs(ctx):
        got = GpClust(params).run(graph, device=device).labels
    counts = _pass2_counters(device)
    assert counts["rounds"] == counts["active_lists"] == 0
    assert counts["rounds_skipped"] == 3  # c2 = 7 in chunks of 3
    records = ctx.tracer.records
    (pass2,) = [r for r in records if r.name == "gpclust.pass2"]
    (prune,) = [r for r in records if r.name == "exec.pass2_prune"]
    assert pass2.start <= prune.start and prune.end <= pass2.end
    assert prune.attrs == {"n_lists": counts["distinct_lists"],
                           "n_unsettled": 0}
    assert not any(r.name == "device.shingle_chunk"
                   and pass2.start <= r.start for r in records)
    # Pass I's plan and uploads (elements, offsets, generator ids) only.
    assert len(plans) == 1 and len(uploads) == 3
    assert np.array_equal(got, SerialPClust(params).run(graph).labels)
    assert np.unique(got).size == 3


def _unsettled_lists(n_lists: int, length: int):
    """Disjoint pass II lists whose leaders never appear in any list:
    list ``i`` holds ids ``100 i + 1 ..``; ``members1[i]`` is
    ``(100 i, 100 i + 50)``.  With ``s = 1`` a trial links each leader to
    one id of its list, so no list settles before ``length`` trials."""
    lists = [100 * i + 1 + np.arange(length) for i in range(n_lists)]
    elements = np.concatenate(lists)
    indptr = np.arange(n_lists + 1) * length
    members1 = np.array([[100 * i, 100 * i + 50] for i in range(n_lists)])
    return indptr, elements, members1, 100 * n_lists


@pytest.mark.parametrize("kernel", ["fused", "sort"])
@pytest.mark.parametrize("streams", [1, 2])
def test_nothing_settles_builds_the_plan_once(monkeypatch, kernel, streams):
    """When no list settles, every round shingles every list off one plan
    and one upload, and the labels equal the union of the serial pass's
    second-level stars."""
    plans, uploads = [], []
    real_plan = device_exec._plan_selection
    real_upload = SimulatedDevice.upload
    monkeypatch.setattr(device_exec, "_plan_selection",
                        lambda *a: plans.append(1) or real_plan(*a))
    monkeypatch.setattr(SimulatedDevice, "upload",
                        lambda self, x: uploads.append(1)
                        or real_upload(self, x))
    indptr, elements, members1, n = _unsettled_lists(n_lists=6, length=12)
    config = ShinglingParams(s2=1, c2=6, seed=3).pass_config(2)
    device = SimulatedDevice()
    fold = device_exec.device_union_pass(
        indptr, elements, config, device, members1=members1, n_vertices=n,
        kernel=kernel, trial_chunk=2, streams=streams)
    counts = _pass2_counters(device)
    assert counts["rounds"] == 3 and counts["rounds_skipped"] == 0
    assert counts["active_lists"] == 3 * 6
    assert len(plans) == 1 and len(uploads) == 2  # elements and offsets
    assert device.memory.used_bytes == 0

    # Reference: each second-level shingle t links the leader of every f
    # in its generator list to t's members; every f joins its members.
    pass2 = serial_shingle_pass(indptr, elements, config)
    want = PartitionFold(n, TimeBreakdown(), get_obs().tracer)
    want.fold(members1[:, :1], members1[:, 1:])
    gens = pass2.gen_graph
    src = members1[gens.indices, 0][:, None]
    dst = np.repeat(pass2.members, gens.degrees(), axis=0)
    want.fold(src, dst)
    assert np.array_equal(fold.labels(), want.labels())
