"""The packets-per-call equivalence wall.

There is one packet driver and one body per DSP primitive: each serial
entry point is the one-row call of its batch primitive.  "Serial" below
means one packet per stacked call, not a second implementation.  The
link engine's contract is *bit-for-bit* equality whatever the
packets-per-call cap, down to one packet per stacked call, and with the
fold of single-packet :meth:`LinkSimulator.run_packet` runs, for
every (seed, operating point): same accepted counts, same bit errors,
same filter-usage histogram, same decoded bits.  These tests sweep that
contract across the full registry surface — every registered jammer
type, every channel spec, every hop pattern — for multiple seeds, plus
the truncated-capture edge case, so a batch-path regression cannot hide
behind a favourable configuration.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core import BHSSConfig, LinkSimulator, LinkStats, transmitter
from repro.jamming.registry import jammer_from_spec, jammer_names
from repro.runtime import ParallelExecutor
from repro.scenario.spec import channel_from_spec
from repro.utils.rng import child_rng

FS = 20e6  # matches BHSSConfig.paper_default

# One representative spec per registered jammer type.  Stateful/seeded
# jammers carry explicit seeds: OS-entropy defaults would make the serial
# and batched runs incomparable.  test_every_registered_jammer_is_covered
# fails when a new type is registered without a spec here.
JAMMER_SPECS = {
    "none": {"type": "none"},
    "noise": {"type": "noise", "bandwidth": 2.5e6, "sample_rate": FS},
    "tone": {"type": "tone", "frequency": 1e6, "sample_rate": FS},
    "sweep": {
        "type": "sweep",
        "f_start": -2e6,
        "f_stop": 2e6,
        "sample_rate": FS,
        "sweep_duration": 1e-3,
    },
    "comb": {"type": "comb", "frequencies": [0.5e6, 2e6, 4e6], "sample_rate": FS, "seed": 77},
    "hopping": {
        "type": "hopping",
        "bandwidths": [0.625e6, 1.25e6, 2.5e6],
        "sample_rate": FS,
        "dwell_samples": 4096,
        "seed": 77,
    },
    "pulsed": {
        "type": "pulsed",
        "inner": {"type": "tone", "frequency": 1.5e6, "sample_rate": FS},
        "duty_cycle": 0.5,
        "period_samples": 4096,
    },
    "reactive": {
        "type": "reactive",
        "sample_rate": FS,
        "reaction_samples": 2048,
        "initial_bandwidth": 2.5e6,
    },
    "latent-reactive": {
        "type": "latent-reactive",
        "sample_rate": FS,
        "bandwidth": 2.5e6,
        "turnaround_samples": 1024,
    },
    "repeater": {"type": "repeater", "delay_samples": 64, "num_taps": 3},
    "multitone": {
        "type": "multitone",
        "sample_rate": FS,
        "placement_bandwidth": 0.15625e6,
        "num_tones": 4,
    },
    "follower": {
        "type": "follower",
        "sample_rate": FS,
        "initial_bandwidth": 2.5e6,
    },
}

CHANNEL_SPECS = {
    "none": None,
    "multipath": {"type": "multipath", "num_taps": 4, "decay_samples": 2.0, "seed": 3},
}

PATTERNS = ["linear", "exponential", "parabolic"]
SEEDS = [0, 1, 2]


def small_config(pattern="linear", **overrides):
    """A small but hop-rich config so the matrix stays fast."""
    overrides.setdefault("payload_bytes", 4)
    overrides.setdefault("symbols_per_hop", 2)
    return BHSSConfig.paper_default(pattern=pattern, seed=11, **overrides)


def stats_pair(config, jammer_spec, seed, *, channel_spec=None, num_packets=5, batch_size=2):
    """Run the same workload one packet per call and batched; fresh jammers per path.

    ``batch_size=2`` with ``num_packets=5`` forces multiple chunks plus a
    ragged tail, so the chunk boundaries themselves are exercised.
    """
    results = {}
    for label, size in (("serial", 0), ("batched", batch_size)):
        link = LinkSimulator(config, channel=channel_from_spec(channel_spec))
        results[label] = link.run_packets_batched(
            num_packets,
            snr_db=8.0,
            sjr_db=-5.0,
            jammer=jammer_from_spec(jammer_spec),
            seed=seed,
            batch_size=size,
            cache=False,
        )
    return results["serial"], results["batched"]


class TestJammerMatrix:
    def test_every_registered_jammer_is_covered(self):
        assert sorted(JAMMER_SPECS) == sorted(jammer_names())

    @pytest.mark.parametrize("jammer_name", sorted(JAMMER_SPECS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_batched_equals_serial(self, jammer_name, seed):
        serial, batched = stats_pair(small_config(), JAMMER_SPECS[jammer_name], seed)
        assert serial == batched
        assert serial.filter_usage == batched.filter_usage

    def test_stats_are_exercised_not_vacuous(self):
        # The matrix must compare packets that actually pass and fail:
        # all-reject (or all-accept with zero errors) would let a broken
        # batch path slip through `==` unnoticed.
        serial, _ = stats_pair(small_config(), JAMMER_SPECS["noise"], 0, num_packets=8)
        assert serial.total_bits > 0
        assert serial.filter_usage  # the control logic made decisions


class TestChannelMatrix:
    @pytest.mark.parametrize("channel_name", sorted(CHANNEL_SPECS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_batched_equals_serial(self, channel_name, seed):
        serial, batched = stats_pair(
            small_config(),
            JAMMER_SPECS["tone"],
            seed,
            channel_spec=CHANNEL_SPECS[channel_name],
        )
        assert serial == batched


class TestHopPatternMatrix:
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_batched_equals_serial(self, pattern, seed):
        serial, batched = stats_pair(small_config(pattern=pattern), JAMMER_SPECS["noise"], seed)
        assert serial == batched

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fixed_bandwidth_baseline(self, seed):
        # Hopping disabled (the paper's conventional-DSSS baseline): one
        # segment per packet, the degenerate grouping case.
        config = small_config().with_fixed_bandwidth(2.5e6)
        serial, batched = stats_pair(config, JAMMER_SPECS["noise"], seed)
        assert serial == batched


class TestReceiveBatchDirect:
    """receive_batch vs receive on raw captures, including truncation."""

    def _captures(self, config, num_packets=4, seed=5):
        link = LinkSimulator(config)
        rng = np.random.default_rng(seed)
        captures = []
        for k in range(num_packets):
            wave = link.transmitter.transmit(packet_index=k).waveform
            noisy = wave + 0.05 * (
                rng.standard_normal(wave.size) + 1j * rng.standard_normal(wave.size)
            )
            captures.append(noisy)
        return link, captures

    @staticmethod
    def assert_results_equal(serial, batched):
        assert np.array_equal(serial.symbols, batched.symbols)
        assert serial.frame.payload == batched.frame.payload
        assert serial.quality == batched.quality
        assert serial.filter_usage() == batched.filter_usage()

    def test_full_captures(self):
        link, captures = self._captures(small_config())
        batched = link.receiver.receive_batch(captures)
        for k, (wave, result) in enumerate(zip(captures, batched)):
            self.assert_results_equal(link.receiver.receive(wave, packet_index=k), result)

    def test_truncated_captures(self):
        # Chop packets mid-segment: the missing symbols must be decided
        # identically (zero symbol, zero quality) by both paths while the
        # surviving prefix still goes through the stacked pipeline.
        link, captures = self._captures(small_config())
        truncated = [
            wave[: max(64, int(wave.size * frac))]
            for wave, frac in zip(captures, (0.85, 0.4, 1.0, 0.1))
        ]
        batched = link.receiver.receive_batch(truncated)
        for k, (wave, result) in enumerate(zip(truncated, batched)):
            self.assert_results_equal(link.receiver.receive(wave, packet_index=k), result)

    def test_mixed_packet_indices(self):
        # Non-contiguous indices select different hop substreams per row.
        link, captures = self._captures(small_config())
        indices = [9, 2, 31, 4]
        link2, _ = self._captures(small_config())
        captures = [link2.transmitter.transmit(packet_index=k).waveform for k in indices]
        batched = link.receiver.receive_batch(captures, packet_indices=indices)
        for k, wave, result in zip(indices, captures, batched):
            self.assert_results_equal(link.receiver.receive(wave, packet_index=k), result)


class TestBatchSizeInvariance:
    @pytest.mark.parametrize("batch_size", [2, 3, 64])
    def test_chunking_does_not_change_stats(self, batch_size):
        serial, batched = stats_pair(
            small_config(), JAMMER_SPECS["tone"], 0, batch_size=batch_size, num_packets=7
        )
        assert serial == batched

    @staticmethod
    def _stacked_run(link, batch_size=7):
        """Seven packets under a cap of ``batch_size`` (seven by default).

        Returns the stacked rows per spread/despread call and the captures
        per ``receive_batch`` call.
        """
        rows = {"spread": [], "despread": []}
        captures = []
        raw_receive = link.receiver.receive_batch

        def counted_receive(received, *args, **kwargs):
            captures.append(len(received))
            return raw_receive(received, *args, **kwargs)

        link.receiver.receive_batch = counted_receive
        for side, modem, name in (
            ("spread", link.transmitter.modem, "spread_batch"),
            ("despread", link.receiver.modem, "despread_batch"),
        ):
            raw = getattr(modem, name)

            def counted(stack, *args, _raw=raw, _rows=rows[side], **kwargs):
                _rows.append(len(stack))
                return _raw(stack, *args, **kwargs)

            setattr(modem, name, counted)
        waves = [p.waveform for p in link.transmitter.transmit_batch(range(7))]
        stats = link.run_packets_batched(
            7,
            snr_db=8.0,
            sjr_db=-5.0,
            jammer=jammer_from_spec(JAMMER_SPECS["noise"]),
            seed=0,
            batch_size=batch_size,
            cache=False,
        )
        return waves, stats, rows, captures

    @pytest.mark.parametrize("cap", ["0", "1"])
    def test_cap_below_two_stacks_one_capture(self, monkeypatch, cap):
        # REPRO_BATCH=0 and 1 run the same driver as any other cap, one
        # packet per receive_batch call; a cap below 1 never means unbounded.
        assert list(transmitter.budget_groups([10] * 5, int(cap))) == [
            range(k, k + 1) for k in range(5)
        ]
        _, default_stats, _, _ = self._stacked_run(LinkSimulator(small_config()))
        monkeypatch.setenv("REPRO_BATCH", cap)
        _, stats, _, captures = self._stacked_run(LinkSimulator(small_config()), None)
        assert stats == default_stats
        assert captures == [1] * 7

    @pytest.mark.parametrize("budget", [1, 1 << 40])
    def test_sample_budget_does_not_change_outputs(self, monkeypatch, budget):
        # One row per chunk and one chunk per segment group must both
        # reproduce the default chunking bit for bit, in transmit_batch's
        # waveforms and in the batched link's statistics.  The same budget
        # sizes the link's packet groups: one capture per receive_batch
        # call at budget 1, all seven in one call at 2^40.
        default_waves, default_stats, _, _ = self._stacked_run(LinkSimulator(small_config()))
        monkeypatch.setattr(transmitter, "CHUNK_SAMPLES", budget)
        waves, stats, rows, captures = self._stacked_run(LinkSimulator(small_config()))
        assert [w.tobytes() for w in waves] == [w.tobytes() for w in default_waves]
        assert stats == default_stats
        for side_rows in rows.values():
            if budget == 1:
                assert max(side_rows) == 1
            else:
                assert max(side_rows) > 1  # whole segment groups were stacked
        assert captures == ([1] * 7 if budget == 1 else [7])


class TestSinglePacketReference:
    """``run_packets``, serial or pooled, is the fold of ``run_packet`` over the packets.

    ``run_packet`` synthesizes, captures and receives one packet on its
    own, so it is a reference independent of the stacked driver's group
    planning and chunk fan-out.
    """

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("jammer_name", ["noise", "follower"])  # memoryless, stateful
    def test_run_packets_equals_run_packet_fold(self, jammer_name, workers):
        config, seed, num_packets = small_config(), 3, 6
        link = LinkSimulator(config)
        jammer = jammer_from_spec(JAMMER_SPECS[jammer_name])
        outcomes = [
            link.run_packet(
                8.0, -10.0, jammer, packet_index=k, rng=child_rng(seed, "packet", str(k))
            )
            for k in range(num_packets)
        ]
        usage = Counter()
        for outcome in outcomes:
            usage.update(outcome.receive.filter_usage())
        reference = LinkStats(
            num_packets=num_packets,
            num_accepted=sum(outcome.accepted for outcome in outcomes),
            total_bits=sum(outcome.total_bits for outcome in outcomes),
            bit_errors=sum(outcome.bit_errors for outcome in outcomes),
            data_rate_bps=link.data_rate_bps(),
            filter_usage=dict(usage),
        )
        stats = LinkSimulator(config).run_packets(
            num_packets,
            snr_db=8.0,
            sjr_db=-10.0,
            jammer=jammer_from_spec(JAMMER_SPECS[jammer_name]),
            seed=seed,
            executor=ParallelExecutor(workers),
            cache=False,
        )
        assert stats == reference
        assert 0 < stats.num_accepted < num_packets  # the jammer bites, not always
