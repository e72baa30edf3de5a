"""Property test: re-running one pass shape on one device changes nothing.

Hypothesis draws random CSR passes (ragged segments, segments below the
shingle threshold, empty passes) and runs the same pass four times on one
device.  Every run must equal the serial reference, and each run must add
exactly the same kernel launches and element counts as the first — no
result or dispatch depends on what the device ran before.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.device_exec import device_shingle_pass
from repro.core.execplan import ExecutionPlan
from repro.core.params import ShinglingParams
from repro.core.serial import serial_shingle_pass
from repro.device.device import SimulatedDevice


def _random_pass(rng, n_seg, max_len, n_values):
    # Valid CSR adjacency: neighbor ids are unique within a segment (the
    # per-segment hash table relies on that, like real adjacency lists).
    lengths = rng.integers(0, min(max_len, n_values) + 1, n_seg)
    indptr = np.zeros(n_seg + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    elements = np.concatenate([
        rng.choice(n_values, size=length, replace=False)
        for length in lengths
    ] or [np.empty(0)]).astype(np.int64)
    return indptr, elements


def _counts(device):
    return {name: (v["launches"], v["elements"])
            for name, v in device.kernel_stats.items()}


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_repeated_shape_replays_stay_identical(seed, trial_chunk):
    """Same shape re-run many times on one device: all runs equal."""
    rng = np.random.default_rng(seed)
    indptr, elements = _random_pass(rng, 10, 6, 40)
    params = ShinglingParams(s1=2, c1=8, s2=2, c2=6, seed=int(seed % 997),
                             trial_chunk=trial_chunk)
    config = params.pass_config(1)

    ref = serial_shingle_pass(indptr, elements, config)
    device = SimulatedDevice()
    plan = ExecutionPlan()
    first = None
    for run in range(1, 5):
        got = device_shingle_pass(indptr, elements, config, device,
                                  kernel="fused", trial_chunk=trial_chunk,
                                  plan=plan)
        assert got == ref
        if first is None:
            first = _counts(device)
        assert _counts(device) == {
            name: (run * launches, run * elements_)
            for name, (launches, elements_) in first.items()}
