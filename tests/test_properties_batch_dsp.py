"""Property tests of the batched DSP primitives' bit-identity contract.

Every ``*_batch`` function promises ``op(stack([x_i])) == stack([op(x_i)])``
exactly — not approximately.  Each serial ``op`` is the one-row call of
its batch primitive, so this is the check that an R-row call equals R
one-row calls: a row must not depend on its neighbours, or the link
statistics would change with the packets-per-call cap.  Hypothesis drives
random shapes, seeds, and parameters through that contract, plus the
corollary that a batch is row-order oblivious: permuting the input rows
permutes the output rows and changes nothing else.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dsp.fir import (
    apply_fir,
    apply_fir_batch,
    convolve_nfft,
    fft_convolve,
    fft_convolve_batch,
    lowpass_taps,
)
from repro.dsp.pulse import get_pulse
from repro.dsp.spectral import welch_psd, welch_psd_batch
from repro.phy.qpsk import ChipModulator
from repro.spread.dsss import SixteenAryDSSS

QUICK = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])

FS = 20e6


def random_rows(rng, rows, n, complex_valued=True):
    x = rng.standard_normal((rows, n))
    if complex_valued:
        x = x + 1j * rng.standard_normal((rows, n))
    return x


class TestFftConvolveBatch:
    @given(
        rows=st.integers(min_value=1, max_value=6),
        n=st.integers(min_value=4, max_value=257),
        k=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @QUICK
    def test_stack_equals_map(self, rows, n, k, seed):
        rng = np.random.default_rng(seed)
        x = random_rows(rng, rows, n)
        taps = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        batched = fft_convolve_batch(x, taps)
        for i in range(rows):
            np.testing.assert_array_equal(batched[i], fft_convolve(x[i], taps))

    @given(
        rows=st.integers(min_value=1, max_value=6),
        n=st.integers(min_value=4, max_value=257),
        k=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @QUICK
    def test_precomputed_taps_fft_changes_nothing(self, rows, n, k, seed):
        rng = np.random.default_rng(seed)
        x = random_rows(rng, rows, n)
        taps = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        taps_fft = np.fft.fft(taps, convolve_nfft(n, k))
        np.testing.assert_array_equal(
            fft_convolve_batch(x, taps, taps_fft=taps_fft), fft_convolve_batch(x, taps)
        )

    @given(
        rows=st.integers(min_value=2, max_value=8),
        n=st.integers(min_value=8, max_value=128),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @QUICK
    def test_permutation_invariance(self, rows, n, seed):
        rng = np.random.default_rng(seed)
        x = random_rows(rng, rows, n)
        taps = rng.standard_normal(9)
        perm = rng.permutation(rows)
        np.testing.assert_array_equal(
            fft_convolve_batch(x[perm], taps), fft_convolve_batch(x, taps)[perm]
        )


class TestApplyFirBatch:
    @given(
        rows=st.integers(min_value=1, max_value=5),
        n=st.integers(min_value=16, max_value=600),
        num_taps=st.sampled_from([5, 21, 55, 129]),
        mode=st.sampled_from(["compensated", "same", "full"]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @QUICK
    def test_shared_taps_stack_equals_map(self, rows, n, num_taps, mode, seed):
        rng = np.random.default_rng(seed)
        x = random_rows(rng, rows, n)
        taps = lowpass_taps(num_taps, 0.2 * FS, FS)
        batched = apply_fir_batch(x, taps, mode=mode)
        for i in range(rows):
            np.testing.assert_array_equal(batched[i], apply_fir(x[i], taps, mode=mode))

    @given(
        rows=st.integers(min_value=1, max_value=5),
        n=st.integers(min_value=16, max_value=400),
        k=st.integers(min_value=3, max_value=65),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @QUICK
    def test_per_row_taps_stack_equals_map(self, rows, n, k, seed):
        rng = np.random.default_rng(seed)
        x = random_rows(rng, rows, n)
        taps = rng.standard_normal((rows, k))
        batched = apply_fir_batch(x, taps)
        for i in range(rows):
            np.testing.assert_array_equal(batched[i], apply_fir(x[i], taps[i]))

    @given(
        n=st.integers(min_value=16, max_value=300),
        block=st.sampled_from([None, 64, 256, 4096]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @QUICK
    def test_explicit_block_size_matches_serial(self, n, block, seed):
        # The default block size is derived from (N, K); an explicit
        # override must flow through to the identical serial geometry.
        rng = np.random.default_rng(seed)
        x = random_rows(rng, 3, n)
        taps = rng.standard_normal(11)
        batched = apply_fir_batch(x, taps, block_size=block)
        for i in range(3):
            np.testing.assert_array_equal(batched[i], apply_fir(x[i], taps, block_size=block))


class TestWelchBatch:
    @given(
        rows=st.integers(min_value=1, max_value=5),
        n=st.integers(min_value=32, max_value=1500),
        nperseg=st.sampled_from([32, 64, 256]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @QUICK
    def test_stack_equals_map(self, rows, n, nperseg, seed):
        rng = np.random.default_rng(seed)
        x = random_rows(rng, rows, n)
        freqs_b, psd_b = welch_psd_batch(x, FS, nperseg=nperseg)
        for i in range(rows):
            freqs_s, psd_s = welch_psd(x[i], FS, nperseg=nperseg)
            np.testing.assert_array_equal(freqs_b, freqs_s)
            np.testing.assert_array_equal(psd_b[i], psd_s)

    @given(
        rows=st.integers(min_value=2, max_value=6),
        n=st.integers(min_value=300, max_value=1200),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @QUICK
    def test_permutation_invariance(self, rows, n, seed):
        rng = np.random.default_rng(seed)
        x = random_rows(rng, rows, n)
        perm = rng.permutation(rows)
        _, psd = welch_psd_batch(x, FS)
        _, psd_perm = welch_psd_batch(x[perm], FS)
        np.testing.assert_array_equal(psd_perm, psd[perm])


class TestModulatorBatch:
    @given(
        rows=st.integers(min_value=1, max_value=5),
        n_chips=st.sampled_from([32, 64, 128]),
        sps=st.sampled_from([2, 5, 8, 64]),
        pulse=st.sampled_from(["half_sine", "rect", "rrc"]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @QUICK
    def test_modulate_stack_equals_map(self, rows, n_chips, sps, pulse, seed):
        # half_sine/rect take the non-overlapping fast path; rrc spans
        # several chips and goes through the cached-spectrum FFT path.
        rng = np.random.default_rng(seed)
        chips = rng.choice([-1.0, 1.0], size=(rows, n_chips))
        mod = ChipModulator(get_pulse(pulse))
        batched = mod.modulate_batch(chips, sps)
        for i in range(rows):
            np.testing.assert_array_equal(batched[i], mod.modulate(chips[i], sps))

    @given(
        rows=st.integers(min_value=1, max_value=5),
        n_chips=st.sampled_from([32, 64]),
        sps=st.sampled_from([2, 8, 64]),
        matched=st.booleans(),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @QUICK
    def test_demodulate_stack_equals_map(self, rows, n_chips, sps, matched, seed):
        rng = np.random.default_rng(seed)
        mod = ChipModulator(get_pulse("half_sine"))
        chips = rng.choice([-1.0, 1.0], size=(rows, n_chips))
        waves = mod.modulate_batch(chips, sps)
        noisy = waves + 0.1 * random_rows(rng, rows, waves.shape[1])
        batched = mod.demodulate_batch(noisy, sps, num_chips=n_chips, matched=matched)
        for i in range(rows):
            np.testing.assert_array_equal(
                batched[i], mod.demodulate(noisy[i], sps, num_chips=n_chips, matched=matched)
            )


class TestDsssBatch:
    @given(
        rows=st.integers(min_value=1, max_value=6),
        n_sym=st.integers(min_value=1, max_value=20),
        start=st.integers(min_value=0, max_value=100_000),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @QUICK
    def test_spread_shared_start_chip(self, rows, n_sym, start, seed):
        rng = np.random.default_rng(seed)
        modem = SixteenAryDSSS(seed=21)
        syms = rng.integers(0, 16, size=(rows, n_sym))
        batched = modem.spread_batch(syms, start_chip=start)
        for i in range(rows):
            np.testing.assert_array_equal(batched[i], modem.spread(syms[i], start_chip=start))

    @given(
        rows=st.integers(min_value=1, max_value=6),
        n_sym=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @QUICK
    def test_spread_per_row_start_chips(self, rows, n_sym, seed):
        # Per-row scramble phases are what lets the transmitter merge
        # segments from different packet positions into one stacked call.
        rng = np.random.default_rng(seed)
        modem = SixteenAryDSSS(seed=21)
        syms = rng.integers(0, 16, size=(rows, n_sym))
        starts = rng.integers(0, 1 << 17, size=rows)
        batched = modem.spread_batch(syms, start_chip=starts)
        for i in range(rows):
            np.testing.assert_array_equal(
                batched[i], modem.spread(syms[i], start_chip=int(starts[i]))
            )

    @given(
        rows=st.integers(min_value=1, max_value=6),
        n_sym=st.integers(min_value=1, max_value=16),
        per_row=st.booleans(),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @QUICK
    def test_despread_stack_equals_map(self, rows, n_sym, per_row, seed):
        rng = np.random.default_rng(seed)
        modem = SixteenAryDSSS(seed=21)
        soft = rng.standard_normal((rows, n_sym * 32))
        if per_row:
            starts = rng.integers(0, 1 << 17, size=rows)
        else:
            starts = np.full(rows, int(rng.integers(0, 1 << 17)))
        batched = modem.despread_batch(soft, start_chip=starts if per_row else int(starts[0]))
        for i in range(rows):
            serial = modem.despread(soft[i], start_chip=int(starts[i]))
            np.testing.assert_array_equal(batched.symbols[i], serial.symbols)
            np.testing.assert_array_equal(batched.scores[i], serial.scores)
            np.testing.assert_array_equal(batched.quality[i], serial.quality)

    @given(
        rows=st.integers(min_value=2, max_value=6),
        n_sym=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @QUICK
    def test_permutation_invariance_with_row_phases(self, rows, n_sym, seed):
        rng = np.random.default_rng(seed)
        modem = SixteenAryDSSS(seed=21)
        syms = rng.integers(0, 16, size=(rows, n_sym))
        starts = rng.integers(0, 1 << 17, size=rows)
        perm = rng.permutation(rows)
        np.testing.assert_array_equal(
            modem.spread_batch(syms[perm], start_chip=starts[perm]),
            modem.spread_batch(syms, start_chip=starts)[perm],
        )
