"""Unit tests for the PHY layer: bits, CRC, QPSK chip modulation, framing."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp import HalfSinePulse, RectPulse, RootRaisedCosinePulse
from repro.phy import (
    ChipModulator,
    DEFAULT_FRAME_FORMAT,
    FrameFormat,
    append_crc16,
    binary_chips_to_complex,
    bits_to_bytes,
    bits_to_nibbles,
    bytes_to_bits,
    bytes_to_nibbles,
    check_crc16,
    complex_chips_to_binary,
    crc16_ccitt,
    crc16_ccitt_bitwise,
    crc32_ieee,
    crc32_ieee_bitwise,
    hamming_distance_bits,
    nibbles_to_bits,
    nibbles_to_bytes,
)
from repro.utils import signal_power


class TestBits:
    def test_bytes_to_bits_lsb_first(self):
        np.testing.assert_array_equal(bytes_to_bits(b"\x01"), [1, 0, 0, 0, 0, 0, 0, 0])
        np.testing.assert_array_equal(bytes_to_bits(b"\x80"), [0, 0, 0, 0, 0, 0, 0, 1])

    def test_bits_roundtrip(self):
        data = bytes(range(256))
        assert bits_to_bytes(bytes_to_bits(data)) == data

    def test_bits_to_bytes_bad_length(self):
        with pytest.raises(ValueError):
            bits_to_bytes(np.ones(7))

    def test_nibbles_low_first(self):
        np.testing.assert_array_equal(bytes_to_nibbles(b"\xa7"), [0x7, 0xA])

    def test_nibbles_roundtrip(self):
        data = bytes(range(256))
        assert nibbles_to_bytes(bytes_to_nibbles(data)) == data

    def test_nibbles_to_bytes_odd_raises(self):
        with pytest.raises(ValueError):
            nibbles_to_bytes(np.array([1, 2, 3]))

    def test_nibbles_to_bytes_range_check(self):
        with pytest.raises(ValueError):
            nibbles_to_bytes(np.array([16, 0]))

    def test_bits_nibbles_roundtrip(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0])
        np.testing.assert_array_equal(nibbles_to_bits(bits_to_nibbles(bits)), bits)

    def test_bits_to_nibbles_values(self):
        np.testing.assert_array_equal(bits_to_nibbles(np.array([1, 0, 1, 1])), [13])

    def test_bits_to_nibbles_bad_length(self):
        with pytest.raises(ValueError):
            bits_to_nibbles(np.ones(6))

    def test_hamming_distance(self):
        assert hamming_distance_bits(b"\x00", b"\xff") == 8
        assert hamming_distance_bits(b"\x0f\x01", b"\x0e\x01") == 1

    def test_hamming_distance_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance_bits(b"ab", b"a")

    @given(st.binary(max_size=64))
    @settings(max_examples=30, deadline=None)
    def test_pack_unpack_property(self, data):
        assert bits_to_bytes(bytes_to_bits(data)) == data
        assert nibbles_to_bytes(bytes_to_nibbles(data)) == data


class TestCrc:
    def test_crc16_known_value(self):
        # CRC-16/XMODEM of "123456789" is 0x31C3 (published check value).
        assert crc16_ccitt(b"123456789") == 0x31C3

    def test_crc16_table_matches_bitwise(self):
        for data in [b"", b"\x00", b"hello world", bytes(range(100))]:
            assert crc16_ccitt(data) == crc16_ccitt_bitwise(data)

    def test_crc32_matches_zlib(self):
        for data in [b"", b"123456789", bytes(range(256)) * 3]:
            assert crc32_ieee(data) == zlib.crc32(data)

    def test_crc32_table_matches_bitwise(self):
        for data in [b"", b"abc", bytes(range(64))]:
            assert crc32_ieee(data) == crc32_ieee_bitwise(data)

    def test_append_and_check(self):
        framed = append_crc16(b"payload")
        assert len(framed) == 9
        assert check_crc16(framed)

    def test_check_detects_single_bit_error(self):
        framed = bytearray(append_crc16(b"payload"))
        framed[2] ^= 0x10
        assert not check_crc16(bytes(framed))

    def test_check_short_frame(self):
        assert not check_crc16(b"\x01")

    @given(st.binary(min_size=1, max_size=100), st.integers(min_value=0, max_value=799))
    @settings(max_examples=40, deadline=None)
    def test_crc16_bit_error_detection_property(self, data, flip):
        framed = bytearray(append_crc16(data))
        bit = flip % (len(framed) * 8)
        framed[bit // 8] ^= 1 << (bit % 8)
        assert not check_crc16(bytes(framed))


class TestChipConversion:
    def test_pairing(self):
        chips = np.array([1, -1, -1, 1], dtype=float)
        cplx = binary_chips_to_complex(chips)
        np.testing.assert_allclose(cplx, [(1 - 1j) / np.sqrt(2), (-1 + 1j) / np.sqrt(2)])

    def test_unit_power(self):
        rng = np.random.default_rng(0)
        chips = np.where(rng.random(1000) > 0.5, 1.0, -1.0)
        assert signal_power(binary_chips_to_complex(chips)) == pytest.approx(1.0)

    def test_roundtrip(self):
        chips = np.array([1, 1, -1, 1, -1, -1], dtype=float)
        back = complex_chips_to_binary(binary_chips_to_complex(chips))
        np.testing.assert_allclose(back * np.sqrt(2), chips)

    def test_odd_length_raises(self):
        with pytest.raises(ValueError):
            binary_chips_to_complex(np.ones(3))


class TestChipModulator:
    @pytest.mark.parametrize("pulse", [HalfSinePulse(), RectPulse()])
    @pytest.mark.parametrize("sps", [2, 4, 16])
    def test_roundtrip(self, pulse, sps):
        rng = np.random.default_rng(1)
        chips = np.where(rng.random(128) > 0.5, 1.0, -1.0)
        mod = ChipModulator(pulse)
        wave = mod.modulate(chips, sps)
        soft = mod.demodulate(wave, sps)
        np.testing.assert_array_equal(np.sign(soft), chips)

    def test_rrc_roundtrip(self):
        rng = np.random.default_rng(2)
        chips = np.where(rng.random(256) > 0.5, 1.0, -1.0)
        mod = ChipModulator(RootRaisedCosinePulse(beta=0.35, span=8))
        wave = mod.modulate(chips, 4)
        soft = mod.demodulate(wave, 4)
        # edge chips suffer pulse truncation; check the interior
        core = slice(16, -16)
        np.testing.assert_array_equal(np.sign(soft[core]), chips[core])

    def test_unit_transmit_power(self):
        rng = np.random.default_rng(3)
        chips = np.where(rng.random(2048) > 0.5, 1.0, -1.0)
        mod = ChipModulator(HalfSinePulse())
        for sps in [2, 8, 64]:
            wave = mod.modulate(chips, sps)
            assert signal_power(wave) == pytest.approx(1.0, rel=0.05)

    def test_waveform_length(self):
        mod = ChipModulator(HalfSinePulse())
        wave = mod.modulate(np.ones(64), 8)
        assert wave.size == 32 * 8
        assert mod.samples_for_chips(64, 8) == 256

    def test_soft_amplitude_near_unity(self):
        rng = np.random.default_rng(4)
        chips = np.where(rng.random(512) > 0.5, 1.0, -1.0)
        mod = ChipModulator(HalfSinePulse())
        soft = mod.demodulate(mod.modulate(chips, 4), 4)
        assert np.mean(np.abs(soft)) == pytest.approx(1.0, rel=0.15)

    def test_num_chips_limit(self):
        mod = ChipModulator(HalfSinePulse())
        wave = mod.modulate(np.ones(64), 4)
        soft = mod.demodulate(wave, 4, num_chips=32)
        assert soft.size == 32

    def test_num_chips_too_many_raises(self):
        mod = ChipModulator(HalfSinePulse())
        wave = mod.modulate(np.ones(8), 4)
        with pytest.raises(ValueError):
            mod.demodulate(wave, 4, num_chips=100)

    def test_odd_num_chips_raises(self):
        mod = ChipModulator(HalfSinePulse())
        with pytest.raises(ValueError):
            mod.demodulate(np.zeros(64, dtype=complex), 4, num_chips=3)

    def test_bad_sps_raises(self):
        mod = ChipModulator(HalfSinePulse())
        with pytest.raises(ValueError):
            mod.modulate(np.ones(4), 0)

    def test_empty_chips(self):
        mod = ChipModulator(HalfSinePulse())
        assert mod.modulate(np.zeros(0), 4).size == 0

    def test_pulse_by_name(self):
        mod = ChipModulator("half_sine")
        assert isinstance(mod.pulse, HalfSinePulse)

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_alpha_stretch_preserves_roundtrip(self, alpha_exp):
        """The BHSS core operation: any stretch factor must round-trip."""
        sps = 2 ** alpha_exp
        rng = np.random.default_rng(5)
        chips = np.where(rng.random(64) > 0.5, 1.0, -1.0)
        mod = ChipModulator(HalfSinePulse())
        soft = mod.demodulate(mod.modulate(chips, sps), sps)
        np.testing.assert_array_equal(np.sign(soft), chips)


class TestFrameFormat:
    def test_build_length(self):
        fmt = DEFAULT_FRAME_FORMAT
        syms = fmt.build(b"hello")
        assert syms.size == fmt.frame_symbols(5) == 8 + 2 + 2 + 10 + 4

    def test_preamble_zeros(self):
        syms = DEFAULT_FRAME_FORMAT.build(b"x")
        assert np.all(syms[:8] == 0)

    def test_sfd_encoding(self):
        syms = DEFAULT_FRAME_FORMAT.build(b"")
        assert syms[8] == 0x7 and syms[9] == 0xA  # 0xA7, low nibble first

    def test_parse_roundtrip(self):
        fmt = DEFAULT_FRAME_FORMAT
        payload = bytes(range(40))
        parsed = fmt.parse(fmt.build(payload))
        assert parsed.accepted
        assert parsed.payload == payload

    def test_parse_empty_payload(self):
        fmt = DEFAULT_FRAME_FORMAT
        parsed = fmt.parse(fmt.build(b""))
        assert parsed.accepted and parsed.payload == b""

    def test_corrupted_payload_fails_crc(self):
        fmt = DEFAULT_FRAME_FORMAT
        syms = fmt.build(b"important data")
        syms[20] ^= 0x5
        parsed = fmt.parse(syms)
        assert parsed.sfd_ok and not parsed.crc_ok and not parsed.accepted

    def test_corrupted_sfd_detected(self):
        fmt = DEFAULT_FRAME_FORMAT
        syms = fmt.build(b"data")
        syms[8] ^= 0xF
        assert not fmt.parse(syms).sfd_ok

    def test_corrupted_length_detected(self):
        fmt = DEFAULT_FRAME_FORMAT
        syms = fmt.build(b"data")
        syms[10] = 0xF
        syms[11] = 0xF  # length 255 > frame size
        parsed = fmt.parse(syms)
        assert not parsed.length_ok and not parsed.accepted

    def test_truncated_frame(self):
        fmt = DEFAULT_FRAME_FORMAT
        syms = fmt.build(b"0123456789")
        parsed = fmt.parse(syms[:12])
        assert not parsed.accepted

    def test_payload_too_long_raises(self):
        with pytest.raises(ValueError):
            FrameFormat(max_payload=10).build(bytes(11))

    def test_bad_format_params_raise(self):
        with pytest.raises(ValueError):
            FrameFormat(preamble_symbols=-1)
        with pytest.raises(ValueError):
            FrameFormat(sfd=0x100)
        with pytest.raises(ValueError):
            FrameFormat(max_payload=0)

    def test_custom_preamble_length(self):
        fmt = FrameFormat(preamble_symbols=16)
        parsed = fmt.parse(fmt.build(b"zz"))
        assert parsed.accepted and parsed.payload == b"zz"

    @given(st.binary(max_size=128))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, payload):
        fmt = DEFAULT_FRAME_FORMAT
        parsed = fmt.parse(fmt.build(payload))
        assert parsed.accepted and parsed.payload == payload

    def test_shortened_length_with_valid_crc_rejected(self):
        # Length 1 -> 0 over payload 00 leaves the CRC bytes 00 00, the
        # zero-initialised CRC of an empty payload: only the frame size
        # the receiver decoded shows the header is wrong.
        fmt = DEFAULT_FRAME_FORMAT
        syms = fmt.build(b"\x00")
        syms[10] ^= 1
        parsed = fmt.parse(syms)
        assert not parsed.length_ok and not parsed.accepted

    @given(st.binary(min_size=1, max_size=32), st.integers(min_value=0), st.integers(min_value=1, max_value=15))
    @settings(max_examples=30, deadline=None)
    def test_symbol_corruption_never_accepted_wrong(self, payload, pos, flip):
        """Any single-symbol corruption either fails, or yields the true payload.

        (A corrupted preamble symbol does not affect decoding.)
        """
        fmt = DEFAULT_FRAME_FORMAT
        syms = fmt.build(payload)
        idx = pos % syms.size
        syms[idx] ^= flip
        parsed = fmt.parse(syms)
        if parsed.accepted:
            assert parsed.payload == payload
