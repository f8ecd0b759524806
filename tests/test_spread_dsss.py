"""Unit tests for the 16-ary and binary DSSS modems and the chip table."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.spread import (
    BPSKDSSS,
    CHIPS_PER_SYMBOL,
    NUM_SYMBOLS,
    SixteenAryDSSS,
    chip_table_pm,
    ieee802154_chip_table,
    min_pairwise_hamming,
)


class TestChipTable:
    def test_shape(self):
        assert ieee802154_chip_table().shape == (16, 32)

    def test_binary_values(self):
        t = ieee802154_chip_table()
        assert set(np.unique(t)) <= {0, 1}

    def test_rows_distinct(self):
        t = ieee802154_chip_table()
        assert len({row.tobytes() for row in t}) == 16

    def test_cyclic_shift_structure(self):
        t = ieee802154_chip_table()
        np.testing.assert_array_equal(t[1], np.roll(t[0], 4))
        np.testing.assert_array_equal(t[7], np.roll(t[0], 28))

    def test_conjugate_structure(self):
        t = ieee802154_chip_table()
        odd = np.arange(32) % 2 == 1
        expected = t[0].copy()
        expected[odd] ^= 1
        np.testing.assert_array_equal(t[8], expected)

    def test_min_hamming_distance_quasi_orthogonal(self):
        # 802.15.4's family keeps pairwise Hamming distance >= 12/32.
        assert min_pairwise_hamming() >= 12

    def test_pm_table(self):
        pm = chip_table_pm()
        assert set(np.unique(pm)) == {-1.0, 1.0}
        t = ieee802154_chip_table()
        np.testing.assert_array_equal(pm, 1.0 - 2.0 * t)


class TestSixteenAryDSSS:
    def test_spread_length(self):
        modem = SixteenAryDSSS()
        chips = modem.spread(np.array([0, 5, 15]))
        assert chips.size == 3 * CHIPS_PER_SYMBOL

    def test_modems_share_one_read_only_chip_table(self):
        a, b = SixteenAryDSSS(seed=1), SixteenAryDSSS(seed=2)
        assert a._table is b._table
        np.testing.assert_array_equal(a._table, chip_table_pm())
        with pytest.raises(ValueError):
            a._table[0, 0] = 0.0
        # the public builders still hand out fresh, writable arrays
        fresh = chip_table_pm()
        fresh[:] = 0.0
        np.testing.assert_array_equal(chip_table_pm(), a._table)
        assert ieee802154_chip_table() is not ieee802154_chip_table()

    def test_roundtrip_clean(self):
        modem = SixteenAryDSSS()
        symbols = np.arange(16)
        chips = modem.spread(symbols)
        result = modem.despread(chips)
        np.testing.assert_array_equal(result.symbols, symbols)
        np.testing.assert_allclose(result.quality, 1.0, atol=1e-9)

    def test_roundtrip_scrambled(self):
        modem = SixteenAryDSSS(seed=7)
        rng = np.random.default_rng(0)
        symbols = rng.integers(0, 16, size=100)
        chips = modem.spread(symbols)
        result = modem.despread(chips)
        np.testing.assert_array_equal(result.symbols, symbols)

    def test_scrambler_changes_chips(self):
        sym = np.array([3, 3, 3])
        plain = SixteenAryDSSS().spread(sym)
        scram = SixteenAryDSSS(seed=1).spread(sym)
        assert not np.array_equal(plain, scram)

    def test_scrambler_phase_continuity(self):
        # Spreading a packet in two segments must equal spreading at once.
        modem = SixteenAryDSSS(seed=5)
        symbols = np.arange(10)
        whole = modem.spread(symbols)
        part1 = modem.spread(symbols[:4], start_chip=0)
        part2 = modem.spread(symbols[4:], start_chip=4 * CHIPS_PER_SYMBOL)
        np.testing.assert_array_equal(np.concatenate([part1, part2]), whole)

    def test_despread_segmented_matches(self):
        modem = SixteenAryDSSS(seed=5)
        symbols = np.arange(10)
        chips = modem.spread(symbols)
        r1 = modem.despread(chips[: 4 * CHIPS_PER_SYMBOL], start_chip=0)
        r2 = modem.despread(chips[4 * CHIPS_PER_SYMBOL :], start_chip=4 * CHIPS_PER_SYMBOL)
        np.testing.assert_array_equal(np.concatenate([r1.symbols, r2.symbols]), symbols)

    def test_mismatched_seed_garbles(self):
        tx = SixteenAryDSSS(seed=1)
        rx = SixteenAryDSSS(seed=2)
        rng = np.random.default_rng(1)
        symbols = rng.integers(0, 16, size=200)
        result = rx.despread(tx.spread(symbols))
        assert np.mean(result.symbols == symbols) < 0.3

    def test_robust_to_noise(self):
        modem = SixteenAryDSSS(seed=3)
        rng = np.random.default_rng(2)
        symbols = rng.integers(0, 16, size=200)
        chips = modem.spread(symbols)
        noisy = chips + rng.normal(scale=1.0, size=chips.size)  # 0 dB per chip
        result = modem.despread(noisy)
        assert np.mean(result.symbols == symbols) > 0.99

    def test_quality_degrades_with_noise(self):
        modem = SixteenAryDSSS()
        symbols = np.zeros(50, dtype=int)
        chips = modem.spread(symbols)
        rng = np.random.default_rng(3)
        q_clean = modem.despread(chips).quality.mean()
        q_noisy = modem.despread(chips + rng.normal(scale=2.0, size=chips.size)).quality.mean()
        assert q_noisy < q_clean

    def test_processing_gain(self):
        assert SixteenAryDSSS().processing_gain_db == pytest.approx(9.03, abs=0.01)

    def test_invalid_symbols_raise(self):
        with pytest.raises(ValueError):
            SixteenAryDSSS().spread(np.array([16]))
        with pytest.raises(ValueError):
            SixteenAryDSSS().spread(np.array([-1]))

    def test_bad_chip_length_raises(self):
        with pytest.raises(ValueError):
            SixteenAryDSSS().despread(np.ones(33))

    def test_2d_symbols_raise(self):
        with pytest.raises(ValueError):
            SixteenAryDSSS().spread(np.zeros((2, 2), dtype=int))

    def test_short_scramble_length_raises(self):
        with pytest.raises(ValueError):
            SixteenAryDSSS(seed=1, scramble_length=8)

    @given(st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=64))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, symbols):
        modem = SixteenAryDSSS(seed=11)
        arr = np.array(symbols)
        result = modem.despread(modem.spread(arr))
        np.testing.assert_array_equal(result.symbols, arr)


class TestBPSKDSSS:
    def test_spread_length(self):
        modem = BPSKDSSS(spreading_factor=16, seed=0)
        assert modem.spread(np.array([1, -1, 1])).size == 48

    def test_roundtrip(self):
        modem = BPSKDSSS(spreading_factor=32, seed=1)
        bits = np.array([1, -1, -1, 1, 1, -1])
        soft = modem.despread(modem.spread(bits))
        np.testing.assert_array_equal(np.sign(soft), bits)

    def test_despread_gain_is_l(self):
        modem = BPSKDSSS(spreading_factor=64, seed=2)
        soft = modem.despread(modem.spread(np.array([1.0])))
        assert soft[0] == pytest.approx(64.0)

    def test_processing_gain_suppresses_uncorrelated_interference(self):
        # The core DSSS property: interference power is reduced ~L times
        # relative to the coherent signal gain.
        L = 128
        modem = BPSKDSSS(spreading_factor=L, seed=3)
        rng = np.random.default_rng(4)
        bits = np.where(rng.random(200) > 0.5, 1.0, -1.0)
        chips = modem.spread(bits)
        interference = rng.normal(scale=np.sqrt(10.0), size=chips.size)  # 10 dB above chips
        soft = modem.despread(chips + interference)
        assert np.mean(np.sign(soft) == bits) > 0.99
        # SNR at correlator output ~ L / 10 = 11 dB
        signal_part = L
        noise_part = np.std(soft - bits * L)
        snr_out = (signal_part / noise_part) ** 2
        assert 3.0 < snr_out < 40.0

    def test_segmented_spread_matches(self):
        modem = BPSKDSSS(spreading_factor=8, seed=5)
        bits = np.array([1, -1, 1, -1])
        whole = modem.spread(bits)
        p1 = modem.spread(bits[:2], start_chip=0)
        p2 = modem.spread(bits[2:], start_chip=16)
        np.testing.assert_array_equal(np.concatenate([p1, p2]), whole)

    def test_zero_factor_raises(self):
        with pytest.raises(ValueError):
            BPSKDSSS(spreading_factor=0)

    def test_bad_length_raises(self):
        modem = BPSKDSSS(spreading_factor=8, seed=0)
        with pytest.raises(ValueError):
            modem.despread(np.ones(12))

    def test_processing_gain_db(self):
        assert BPSKDSSS(spreading_factor=100).processing_gain_db == pytest.approx(20.0)
