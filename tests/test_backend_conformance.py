"""Each batch DSP primitive's R-row call equals R one-row calls, bit for bit.

FIR application, fast convolution, Welch PSD, chip modulation and DSSS
spread/despread — shared and per-row taps, real and complex dtypes.  The
serial entry points are the one-row calls of these primitives, so the
checks catch a row that depends on its neighbours.  The
packets-per-call wall (``tests/test_batch_equivalence.py``) rests on
these.

The ``backend`` ids keep the names these checks ran under when the DSP
chain was selectable.  numba is not a project dependency, and without it
the ``numba`` backend ran the same NumPy kernels as ``numpy``; both ids
now run the one NumPy chain.
"""

import numpy as np
import pytest

from repro.dsp.fir import apply_fir, apply_fir_batch, convolve_nfft, fft_convolve, fft_convolve_batch
from repro.dsp.spectral import welch_psd, welch_psd_batch
from repro.phy.qpsk import ChipModulator
from repro.spread.dsss import SixteenAryDSSS

BACKENDS = ["numba", "numpy"]


@pytest.fixture(params=BACKENDS)
def backend(request):
    """The former backend name (test id only; every id runs NumPy)."""
    return request.param


def assert_same(got, want):
    got = np.asarray(got)
    want = np.asarray(want)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def batch_signals(rows=3, n=257, complex_=True, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, n))
    if complex_:
        x = x + 1j * rng.standard_normal((rows, n))
    return x


class TestApplyFirConformance:
    @pytest.mark.parametrize("mode", ["compensated", "same", "full"])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_shared_taps(self, backend, mode, complex_):
        x = batch_signals(complex_=complex_)
        taps = np.hanning(9) / np.hanning(9).sum()
        want = np.stack([apply_fir(row, taps, mode=mode) for row in x])
        assert_same(apply_fir_batch(x, taps, mode=mode), want)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_per_row_taps(self, backend, complex_):
        x = batch_signals(rows=4, complex_=complex_)
        taps = np.random.default_rng(7).standard_normal((4, 11))
        want = np.stack([apply_fir(row, h) for row, h in zip(x, taps)])
        assert_same(apply_fir_batch(x, taps), want)

    def test_long_filters_stay_on_the_oracle(self, backend):
        # Long filters (the excision and low-pass banks run thousands of
        # taps) stay bit-exact against the serial path too.
        x = batch_signals(rows=2, n=4096)
        taps = np.hanning(1025)
        want = np.stack([apply_fir(row, taps) for row in x])
        assert_same(apply_fir_batch(x, taps), want)


class TestFftConvolveConformance:
    @pytest.mark.parametrize("complex_", [False, True])
    def test_shared_taps(self, backend, complex_):
        x = batch_signals(complex_=complex_)
        taps = np.hanning(17)
        want = np.stack([fft_convolve(row, taps) for row in x])
        assert_same(fft_convolve_batch(x, taps), want)

    def test_per_row_taps(self, backend):
        x = batch_signals(rows=4)
        taps = np.random.default_rng(9).standard_normal((4, 13))
        want = np.stack([fft_convolve(row, h) for row, h in zip(x, taps)])
        assert_same(fft_convolve_batch(x, taps), want)

    def test_precomputed_taps_fft_is_bit_identical(self, backend):
        # A caller-supplied taps transform (the cached pulse spectra)
        # must not change a bit of the result.
        x = batch_signals(rows=3, n=300)
        taps = np.hanning(21).astype(complex)
        taps_fft = np.fft.fft(taps, convolve_nfft(300, 21))
        assert np.array_equal(
            fft_convolve_batch(x, taps, taps_fft=taps_fft),
            fft_convolve_batch(x, taps),
        )


class TestWelchConformance:
    @pytest.mark.parametrize("complex_", [False, True])
    def test_rows_match_serial(self, backend, complex_):
        x = batch_signals(rows=3, n=1024, complex_=complex_)
        got_f, got_psd = welch_psd_batch(x, sample_rate=2e6, nperseg=128, nfft=256)
        for i, row in enumerate(x):
            want_f, want_psd = welch_psd(row, sample_rate=2e6, nperseg=128, nfft=256)
            assert np.array_equal(got_f, want_f)
            assert_same(got_psd[i], want_psd)


class TestModulateConformance:
    # halfsine exercises the non-overlapping fast path, rrc (span 8) the
    # pulse-shaping convolution through the cached-spectrum fft path.
    @pytest.mark.parametrize("pulse", ["halfsine", "rrc"])
    @pytest.mark.parametrize("sps", [4, 8])
    def test_rows_match_serial(self, backend, sps, pulse):
        chips = np.random.default_rng(3).choice([-1.0, 1.0], size=(3, 64))
        mod = ChipModulator(pulse)
        want = np.stack([mod.modulate(row, sps) for row in chips])
        assert_same(mod.modulate_batch(chips, sps), want)


class TestSpreadConformance:
    @pytest.mark.parametrize("seed", [None, 42])
    def test_spread_rows_match_serial(self, backend, seed):
        modem = SixteenAryDSSS(seed=seed)
        syms = np.random.default_rng(5).integers(0, 16, size=(3, 6))
        want = np.stack([modem.spread(row, start_chip=64) for row in syms])
        assert_same(modem.spread_batch(syms, start_chip=64), want)

    def test_spread_per_row_start_chips(self, backend):
        modem = SixteenAryDSSS(seed=11)
        syms = np.random.default_rng(6).integers(0, 16, size=(3, 4))
        starts = np.array([0, 32, 96])
        want = np.stack([modem.spread(r, start_chip=int(s)) for r, s in zip(syms, starts)])
        assert_same(modem.spread_batch(syms, start_chip=starts), want)

    @pytest.mark.parametrize("seed", [None, 42])
    def test_despread_rows_match_serial(self, backend, seed):
        modem = SixteenAryDSSS(seed=seed)
        soft = np.random.default_rng(8).standard_normal((3, 4 * 32))
        got = modem.despread_batch(soft, start_chip=32)
        for i, row in enumerate(soft):
            want = modem.despread(row, start_chip=32)
            assert_same(got.symbols[i], want.symbols)
            assert_same(got.scores[i], want.scores)
            assert_same(got.quality[i], want.quality)
