"""Working-set bounds of the stacked link.

``run_packets_batched`` keeps one batch alive at a time, drops each
packet's TX waveform once its capture is drawn, and stacks DSP chunks
bounded in samples.  Measured with ``tracemalloc`` (NumPy reports its
array buffers to it) on the paper-default parabolic link: a second batch
must not pile onto the first, and one batch must stay within a small
multiple of its own captures.
"""

import tracemalloc

import pytest

from repro.core import BHSSConfig, LinkSimulator
from repro.jamming.registry import jammer_from_spec

BATCH = 16


@pytest.fixture(scope="module")
def link():
    config = BHSSConfig.paper_default(pattern="parabolic", payload_bytes=8, seed=42)
    link = LinkSimulator(config)
    run(link, 2 * BATCH)  # warm the per-link caches (pulse spectra, filter designs)
    return link


def run(link, num_packets):
    jammer = jammer_from_spec({"type": "noise", "bandwidth": 0.625e6, "sample_rate": 20e6})
    return link.run_packets_batched(
        num_packets,
        snr_db=15.0,
        sjr_db=-10.0,
        jammer=jammer,
        seed=0,
        batch_size=BATCH,
        cache=False,
    )


def traced_peak(link, num_packets):
    """Peak bytes allocated above the starting level during one run."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run(link, num_packets)
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
