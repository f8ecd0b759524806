"""Working-set bounds of the stacked link.

``run_packets_batched`` runs contiguous packet groups whose captures fit
one sample budget, keeps one group alive at a time, drops each packet's
TX waveform once its capture is drawn, and stacks DSP chunks bounded in
samples.  Measured with ``tracemalloc`` (NumPy reports its array buffers
to it) on the paper-default parabolic link: a second batch must not pile
onto the first, one batch must stay within a small multiple of its own
captures, and raising the packet cap must not raise the peak.  The group
planner must predict every packet's synthesized length.
"""

import tracemalloc

import pytest

from repro.core import BHSSConfig, LinkSimulator, transmitter
from repro.jamming.registry import jammer_from_spec

BATCH = 16


@pytest.fixture(scope="module")
def link():
    config = BHSSConfig.paper_default(pattern="parabolic", payload_bytes=8, seed=42)
    link = LinkSimulator(config)
    run(link, 2 * BATCH)  # warm the per-link caches (pulse spectra, filter designs)
    return link


def run(link, num_packets, batch_size=BATCH):
    jammer = jammer_from_spec({"type": "noise", "bandwidth": 0.625e6, "sample_rate": 20e6})
    return link.run_packets_batched(
        num_packets,
        snr_db=15.0,
        sjr_db=-10.0,
        jammer=jammer,
        seed=0,
        batch_size=batch_size,
        cache=False,
    )


def traced_peak(link, num_packets, batch_size=BATCH):
    """Peak bytes allocated above the starting level during one run."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run(link, num_packets, batch_size)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_second_batch_does_not_stack_on_the_first(link):
    one = traced_peak(link, BATCH)
    two = traced_peak(link, 2 * BATCH)
    assert two <= 1.15 * one, f"two batches peak {two / one:.2f}x one batch"


def test_one_batch_stays_near_its_captures(link):
    capture_bytes = sum(
        link.transmitter.transmit(packet_index=k).waveform.nbytes for k in range(BATCH)
    )
    peak = traced_peak(link, BATCH)
    assert peak <= 2.5 * capture_bytes, f"one batch peaks {peak / capture_bytes:.2f}x its captures"


def test_packet_cap_does_not_raise_the_peak(link):
    # Groups are sized by the sample budget, so a 64-packet cap keeps no
    # more captures alive than an 8-packet one.
    run(link, 64, batch_size=8)  # warm whatever the later packets need
    narrow = traced_peak(link, 64, batch_size=8)
    wide = traced_peak(link, 64, batch_size=64)
    assert wide <= 1.25 * narrow, f"cap 64 peaks {wide / narrow:.2f}x cap 8"
    budget_bytes = 4 * transmitter.CHUNK_SAMPLES * 16  # complex128 samples
    assert wide <= budget_bytes, f"cap 64 peaks {wide / budget_bytes:.2f}x four budgets"


PLANS = 12

#: ``(config overrides, explicit payload)`` per planner case.  The last
#: case's packets each exceed the sample budget.
PLAN_CASES = {
    "linear": ({"pattern": "linear"}, None),
    "exponential": ({"pattern": "exponential"}, None),
    "parabolic": ({"pattern": "parabolic"}, None),
    "fixed-bandwidth": ({"pattern": "linear", "fixed_bandwidth": 0.625e6}, None),
    "fec": ({"pattern": "parabolic", "fec": "hamming74"}, None),
    "explicit-payload": ({"pattern": "linear", "fixed_bandwidth": 0.15625e6}, bytes(range(40))),
}


@pytest.mark.parametrize("case", sorted(PLAN_CASES))
def test_planned_groups_match_synthesis(case):
    overrides, payload = PLAN_CASES[case]
    link = LinkSimulator(BHSSConfig.paper_default(payload_bytes=8, seed=7, **overrides))
    tx = link.transmitter
    num_air = link.config.air_symbols(None if payload is None else len(payload))
    planned = [sum(tx.hop_plan(num_air, k)[1]) for k in range(PLANS)]
    assert planned == [tx.transmit(payload, packet_index=k).num_samples for k in range(PLANS)]

    budget = transmitter.CHUNK_SAMPLES
    for batch in (2, 5, 64):
        groups = list(link._packet_groups(PLANS, payload, batch))
        assert [k for group in groups for k in group] == list(range(PLANS))
        for group, following in zip(groups, groups[1:] + [None]):
            assert 1 <= len(group) <= batch
            filled = sum(planned[k] for k in group)
            assert len(group) == 1 or filled <= budget, (group, filled)
            if following is not None:  # greedy: the next packet did not fit
                assert len(group) == batch or filled + planned[following[0]] > budget
