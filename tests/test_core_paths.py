"""Unit tests for the explicit TX/RX path split of the link chain."""

import numpy as np

from repro.channel import Impairments, Medium, MultipathChannel
from repro.core import BHSSConfig, LinkSimulator, RxPath, TxPath, draw_jammer_wave
from repro.jamming import BandlimitedNoiseJammer, MatchedReactiveJammer, NoJammer
from repro.utils.rng import child_rng


def make_config(**kw):
    return BHSSConfig.paper_default(payload_bytes=8, seed=11, **kw)


class TestTxPath:
    def test_synthesis_is_deterministic(self):
        # TX synthesis consumes no randomness — that is what lets a
        # network victim re-synthesize a peer's waveform as interference
        # without perturbing its own RNG stream
        cfg = make_config()
        a = TxPath(cfg).synthesize(packet_index=3)
        b = TxPath(cfg).synthesize(packet_index=3)
        np.testing.assert_array_equal(a.waveform, b.waveform)
        assert a.payload == b.payload

    def test_emit_is_synthesize_plus_propagate(self):
        tx = TxPath(make_config())
        packet, wave = tx.emit(packet_index=1)
        again = tx.synthesize(packet_index=1)
        np.testing.assert_array_equal(wave, again.waveform)
        assert packet.payload == again.payload

    def test_propagate_identity_without_channel(self):
        tx = TxPath(make_config())
        x = np.ones(64, dtype=complex)
        assert tx.propagate(x) is x

    def test_propagate_applies_channel(self):
        cfg = make_config()
        channel = MultipathChannel(num_taps=4, decay_samples=2.0, seed=5)
        tx = TxPath(cfg, channel=channel)
        packet = tx.synthesize()
        np.testing.assert_array_equal(
            tx.propagate(packet.waveform), channel.apply(packet.waveform)
        )

    def test_data_rate_matches_link_simulator(self):
        for kw in [{}, {"pattern": "parabolic"}, {"fixed_bandwidth": 2.5e6}]:
            cfg = make_config(**kw)
            assert TxPath(cfg).data_rate_bps() == LinkSimulator(cfg).data_rate_bps()


class TestRxPath:
    def test_clean_roundtrip(self):
        cfg = make_config()
        packet, wave = TxPath(cfg).emit(packet_index=0)
        out = RxPath(cfg).receive_packet(packet, wave, packet_index=0)
        assert out.accepted
        assert out.bit_errors == 0
        assert out.total_bits == 64

    def test_needs_phase_tracking(self):
        cfg = make_config()
        assert not RxPath(cfg).needs_phase_tracking
        assert not RxPath(cfg, impairments=Impairments()).needs_phase_tracking
        assert RxPath(cfg, impairments=Impairments(cfo_hz=200.0)).needs_phase_tracking

    def test_front_end_identity_when_ideal(self):
        cfg = make_config()
        x = np.ones(32, dtype=complex)
        assert RxPath(cfg).front_end(x) is x

    def test_score_counts_wrong_payload_bits(self):
        import dataclasses

        cfg = make_config()
        rx = RxPath(cfg)
        packet, _ = TxPath(cfg).emit(packet_index=0)
        clean = rx.demodulate(packet.waveform, len(packet.payload), 0)
        # forge a one-bit-flipped payload: one bit error, not accepted
        flipped = bytes([packet.payload[0] ^ 0x01]) + packet.payload[1:]
        forged = dataclasses.replace(
            clean, frame=dataclasses.replace(clean.frame, payload=flipped)
        )
        out = rx.score(packet, forged)
        assert not out.accepted
        assert out.bit_errors == 1


class TestSymbolRegionPopcount:
    def reference(self, cfg, sent, got):
        # the historical scalar loop the vectorized popcount replaced
        header = cfg.frame_format.header_symbols
        end = min(sent.size, got.size) - 4
        if end <= header:
            return 0
        errors = 0
        for s, g in zip(sent[header:end], got[header:end]):
            errors += bin((int(s) ^ int(g)) & 0xF).count("1")
        return errors

    def test_bit_identical_to_scalar_loop(self):
        cfg = make_config()
        rx = RxPath(cfg)
        rng = np.random.default_rng(7)
        for n_sent, n_got in [(40, 40), (40, 25), (25, 40), (8, 8), (3, 3), (0, 0)]:
            sent = rng.integers(0, 16, size=n_sent).astype(np.uint8)
            got = rng.integers(0, 16, size=n_got).astype(np.uint8)
            assert rx.symbol_region_bit_errors(sent, got) == self.reference(cfg, sent, got)

    def test_identical_symbols_zero_errors(self):
        cfg = make_config()
        sym = np.arange(32, dtype=np.uint8) % 16
        assert RxPath(cfg).symbol_region_bit_errors(sym, sym) == 0

    def test_all_bits_flipped(self):
        cfg = make_config()
        header = cfg.frame_format.header_symbols
        sym = np.zeros(header + 20, dtype=np.uint8)
        flipped = sym ^ 0xF
        # 16 scored symbols (tail 4 are CRC), 4 bits each
        assert RxPath(cfg).symbol_region_bit_errors(sym, flipped) == 16 * 4


class TestDrawJammerWave:
    def test_none_and_nojammer_draw_nothing(self):
        cfg = make_config()
        packet = TxPath(cfg).synthesize()
        gen = child_rng(0, "packet", "0")
        before = gen.bit_generator.state
        assert draw_jammer_wave(None, packet, -10.0, gen) is None
        assert draw_jammer_wave(NoJammer(), packet, -10.0, gen) is None
        assert gen.bit_generator.state == before  # no RNG consumed

    def test_finite_sjr_returns_wave(self):
        cfg = make_config()
        packet = TxPath(cfg).synthesize()
        jam = BandlimitedNoiseJammer(5e6, cfg.sample_rate)
        wave = draw_jammer_wave(jam, packet, -10.0, child_rng(1, "packet", "0"))
        assert wave is not None and wave.size == packet.num_samples

    def test_infinite_sjr_draws_but_does_not_inject(self):
        cfg = make_config()
        packet = TxPath(cfg).synthesize()
        jam = BandlimitedNoiseJammer(5e6, cfg.sample_rate)
        gen_inf = child_rng(2, "packet", "0")
        gen_fin = child_rng(2, "packet", "0")
        assert draw_jammer_wave(jam, packet, float("inf"), gen_inf) is None
        assert draw_jammer_wave(jam, packet, -10.0, gen_fin) is not None
        # the draw still consumed the stream identically
        assert gen_inf.bit_generator.state == gen_fin.bit_generator.state

    def test_reactive_jammer_observes_profile(self):
        cfg = make_config()
        packet = TxPath(cfg).synthesize()
        jam = MatchedReactiveJammer(cfg.sample_rate, reaction_samples=0, initial_bandwidth=10e6)
        wave = draw_jammer_wave(jam, packet, -10.0, child_rng(3, "packet", "0"))
        assert wave is not None and wave.size == packet.num_samples


class TestPathSplitEquivalence:
    def test_run_packet_equals_manual_path_composition(self):
        # the refactor wall: composing the stages by hand must reproduce
        # LinkSimulator.run_packet bit for bit
        cfg = make_config()
        link = LinkSimulator(cfg)
        jam = BandlimitedNoiseJammer(5e6, cfg.sample_rate)
        for k, seed in enumerate([0, 1, 2]):
            expected = link.run_packet(snr_db=8.0, sjr_db=-6.0, jammer=jam, rng=seed)
            tx, rx, medium = TxPath(cfg), RxPath(cfg), Medium(cfg.sample_rate)
            gen = np.random.default_rng(seed)
            packet, wave = tx.emit()
            jam_wave = draw_jammer_wave(jam, packet, -6.0, gen)
            block = medium.combine(wave, snr_db=8.0, jammer=jam_wave, sjr_db=-6.0, rng=gen)
            manual = rx.receive_packet(packet, block.samples, 0)
            assert manual.accepted == expected.accepted
            assert manual.bit_errors == expected.bit_errors
            assert manual.total_bits == expected.total_bits
