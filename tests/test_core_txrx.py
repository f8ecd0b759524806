"""Unit tests for the BHSS transmitter and receiver."""

import numpy as np
import pytest

from repro.channel import Impairments, add_awgn
from repro.core import BHSSConfig, BHSSReceiver, BHSSTransmitter
from repro.core.receiver import AcquiringReceiver
from repro.dsp import welch_psd
from repro.dsp.spectral import occupied_bandwidth
from repro.utils import signal_power


def cfg(**kw):
    defaults = dict(payload_bytes=8, seed=7)
    defaults.update(kw)
    return BHSSConfig.paper_default(**defaults)


class TestTransmitter:
    def test_waveform_unit_power(self):
        packet = BHSSTransmitter(cfg()).transmit()
        assert signal_power(packet.waveform) == pytest.approx(1.0, rel=0.05)

    def test_sample_counts_sum_to_waveform(self):
        packet = BHSSTransmitter(cfg()).transmit()
        assert sum(packet.sample_counts) == packet.num_samples

    def test_segments_cover_frame(self):
        packet = BHSSTransmitter(cfg()).transmit()
        assert sum(s.num_symbols for s in packet.segments) == packet.symbols.size

    def test_default_payload_varies_with_packet_index(self):
        tx = BHSSTransmitter(cfg())
        assert tx.transmit(packet_index=0).payload != tx.transmit(packet_index=1).payload

    def test_explicit_payload(self):
        packet = BHSSTransmitter(cfg()).transmit(b"hello!!!")
        assert packet.payload == b"hello!!!"

    def test_bandwidth_profile_matches_segments(self):
        packet = BHSSTransmitter(cfg()).transmit()
        profile = packet.bandwidth_profile()
        assert len(profile) == len(packet.segments)
        for (n, bw), seg, count in zip(profile, packet.segments, packet.sample_counts):
            assert n == count and bw == seg.bandwidth

    def test_fixed_bandwidth_single_segment(self):
        packet = BHSSTransmitter(cfg(fixed_bandwidth=10e6)).transmit()
        assert len(packet.segments) == 1
        assert packet.segments[0].bandwidth == 10e6

    def test_hop_bandwidths_visible_in_spectrum(self):
        """Figure 5: per-hop occupied bandwidth follows the schedule."""
        config = cfg(symbols_per_hop=16, payload_bytes=64)
        packet = BHSSTransmitter(config).transmit()
        pos = 0
        checked = 0
        for seg, count in zip(packet.segments, packet.sample_counts):
            block = packet.waveform[pos : pos + count]
            pos += count
            if count < 8192:
                continue
            freqs, psd = welch_psd(block, config.sample_rate, nperseg=512)
            measured = occupied_bandwidth(freqs, psd, fraction=0.95)
            assert 0.4 * seg.bandwidth < measured < 2.0 * seg.bandwidth
            checked += 1
        assert checked >= 1

    def test_narrow_hops_take_longer(self):
        config = cfg(symbols_per_hop=4)
        packet = BHSSTransmitter(config).transmit()
        for seg, count in zip(packet.segments, packet.sample_counts):
            assert count == seg.num_symbols * 16 * seg.sps

    def test_transmit_reuses_the_held_frame_coder(self, monkeypatch):
        tx = BHSSTransmitter(cfg())
        built = []
        build = BHSSConfig.build_frame_coder

        def counting_build(config):
            built.append(config)
            return build(config)

        monkeypatch.setattr(BHSSConfig, "build_frame_coder", counting_build)
        for k in range(50):
            tx.transmit(packet_index=k)
        assert built == []


class TestReceiverClean:
    @pytest.mark.parametrize("pattern", ["linear", "exponential", "parabolic"])
    def test_roundtrip_all_patterns(self, pattern):
        config = cfg(pattern=pattern)
        tx, rx = BHSSTransmitter(config), BHSSReceiver(config)
        packet = tx.transmit(b"payload!", packet_index=3)
        result = rx.receive(packet.waveform, packet_index=3)
        assert result.accepted
        assert result.payload == b"payload!"
        np.testing.assert_array_equal(result.symbols, packet.symbols)

    def test_roundtrip_with_noise(self):
        config = cfg()
        tx, rx = BHSSTransmitter(config), BHSSReceiver(config)
        packet = tx.transmit()
        noisy = add_awgn(packet.waveform, 12.0, rng=1)
        result = rx.receive(noisy)
        assert result.accepted

    def test_quality_metric_clean_near_one(self):
        config = cfg()
        packet = BHSSTransmitter(config).transmit()
        result = BHSSReceiver(config).receive(packet.waveform)
        assert result.quality > 0.9

    def test_wrong_packet_index_fails(self):
        config = cfg()
        tx, rx = BHSSTransmitter(config), BHSSReceiver(config)
        packet = tx.transmit(packet_index=0)
        result = rx.receive(packet.waveform, packet_index=1)
        assert not result.accepted  # schedule mismatch garbles everything

    def test_wrong_seed_fails(self):
        packet = BHSSTransmitter(cfg(seed=1)).transmit()
        result = BHSSReceiver(cfg(seed=2)).receive(packet.waveform)
        assert not result.accepted

    def test_truncated_waveform_fails_gracefully(self):
        config = cfg()
        packet = BHSSTransmitter(config).transmit()
        result = BHSSReceiver(config).receive(packet.waveform[: packet.num_samples // 2])
        assert not result.accepted

    def test_filter_usage_histogram(self):
        config = cfg()
        packet = BHSSTransmitter(config).transmit()
        result = BHSSReceiver(config).receive(packet.waveform)
        usage = result.filter_usage()
        assert set(usage) == {"none", "lowpass", "excision"}
        assert sum(usage.values()) == len(result.decisions)

    def test_no_filtering_config_has_no_decisions(self):
        config = cfg(filtering=False)
        packet = BHSSTransmitter(config).transmit()
        result = BHSSReceiver(config).receive(packet.waveform)
        assert result.decisions == ()
        assert result.accepted

    def test_payload_len_override(self):
        config = cfg(payload_bytes=8)
        packet = BHSSTransmitter(config).transmit(b"four", packet_index=0)
        result = BHSSReceiver(config).receive(packet.waveform, payload_len=4)
        assert result.accepted and result.payload == b"four"

    def test_phase_track_survives_static_rotation(self):
        config = cfg()
        tx, rx = BHSSTransmitter(config), BHSSReceiver(config)
        packet = tx.transmit()
        rotated = packet.waveform * np.exp(1j * 0.15)  # small static rotation
        result = rx.receive(rotated, phase_track=True)
        assert result.accepted


class TestAcquiringReceiver:
    def test_acquires_offset_packet(self):
        config = cfg(payload_bytes=8)
        packet = BHSSTransmitter(config).transmit()
        padded = np.concatenate(
            [np.zeros(1234, dtype=complex), packet.waveform, np.zeros(500, dtype=complex)]
        )
        padded = add_awgn(padded, 20.0, rng=2, reference_power=signal_power(packet.waveform))
        acq = AcquiringReceiver(config).receive(padded)
        assert acq is not None
        assert abs(acq.start_sample - 1234) <= 2
        assert acq.result.accepted

    def test_corrects_cfo_and_phase(self):
        config = cfg(payload_bytes=8)
        packet = BHSSTransmitter(config).transmit()
        imp = Impairments(cfo_hz=2e3, phase_rad=1.1)
        received = imp.apply(packet.waveform, config.sample_rate)
        received = np.concatenate([np.zeros(777, dtype=complex), received])
        acq = AcquiringReceiver(config).receive(received)
        assert acq is not None
        assert acq.cfo_hz == pytest.approx(2e3, abs=500)
        assert acq.result.accepted

    def test_returns_none_on_noise(self):
        config = cfg(payload_bytes=8)
        rng = np.random.default_rng(3)
        noise = rng.normal(size=50_000) + 1j * rng.normal(size=50_000)
        assert AcquiringReceiver(config, threshold=0.5).receive(noise) is None

    def test_bad_threshold_raises(self):
        with pytest.raises(ValueError):
            AcquiringReceiver(cfg(), threshold=0.0)
