"""Edge cases of the batch DSP primitives, and the scenario ``backend`` field.

Empty batches (zero rows *and* zero-length rows), single-row batches,
``batch_size=1`` link runs, and real/complex dtype round-trips — the
degenerate shapes the sweep machinery can legitimately produce (an empty
segment group, a one-packet chunk) and that historically crashed or
silently changed dtype.  Also pins that ``fft_convolve_batch`` validates
a caller-supplied ``taps_fft`` batch axis up front (field-named error)
and shares ``apply_fir_batch``'s empty-input early return.

The ``backend`` ids keep the names these checks ran under when the DSP
chain was selectable.  numba is not a project dependency, and without it
the ``numba`` backend ran the same NumPy kernels as ``numpy``; both ids
now run the one NumPy chain.  Scenario files from that time may still
carry ``"backend": "numpy"``.
"""

import json

import numpy as np
import pytest

from repro.dsp.fir import apply_fir, apply_fir_batch, convolve_nfft, fft_convolve, fft_convolve_batch
from repro.dsp.spectral import welch_psd_batch
from repro.phy.qpsk import ChipModulator
from repro.spread.dsss import SixteenAryDSSS

BACKENDS = ["numba", "numpy"]


@pytest.fixture(params=BACKENDS)
def backend(request):
    """The former backend name (test id only; every id runs NumPy)."""
    return request.param


class TestEmptyBatches:
    @pytest.mark.parametrize("shape", [(0, 64), (3, 0), (0, 0)])
    def test_apply_fir_and_fft_convolve_agree(self, backend, shape):
        # The two primitives must return the same empty result: a coerced
        # copy of the input, float64 for real input, complex128 for complex.
        taps = np.hanning(5)
        for dtype, expect in ((np.float32, np.float64), (np.complex64, np.complex128)):
            x = np.zeros(shape, dtype=dtype)
            a = apply_fir_batch(x, taps)
            b = fft_convolve_batch(x, taps)
            assert a.shape == b.shape == shape
            assert a.dtype == b.dtype == expect

    def test_empty_results_are_copies(self, backend):
        x = np.zeros((0, 8))
        out = apply_fir_batch(x, np.ones(3))
        assert out.base is None or out.base is not x

    def test_empty_taps_still_rejected(self, backend):
        # The zero-length guard must not swallow the taps validation.
        with pytest.raises(ValueError, match="taps"):
            fft_convolve_batch(np.zeros((0, 8)), np.zeros(0))
        with pytest.raises(ValueError, match="taps"):
            apply_fir_batch(np.zeros((0, 8)), np.zeros(0))

    def test_welch_zero_rows(self, backend):
        freqs, psd = welch_psd_batch(np.zeros((0, 512)), nperseg=64, nfft=128)
        assert freqs.shape == (128,)
        assert psd.shape == (0, 128)
        assert psd.dtype == np.float64

    @pytest.mark.parametrize("shape", [(0, 32), (2, 0), (0, 0)])
    def test_modulate_empty(self, backend, shape):
        mod = ChipModulator("halfsine")
        out = mod.modulate_batch(np.zeros(shape), sps=4)
        assert out.shape == (shape[0], (shape[1] // 2) * 4)
        assert out.dtype == np.complex128

    @pytest.mark.parametrize("rows,n_sym", [(0, 4), (2, 0), (0, 0)])
    def test_spread_empty(self, backend, rows, n_sym):
        modem = SixteenAryDSSS(seed=9)
        out = modem.spread_batch(np.zeros((rows, n_sym), dtype=int))
        assert out.shape == (rows, n_sym * 32)
        assert out.dtype == np.float64

    @pytest.mark.parametrize("rows,n_sym", [(0, 4), (2, 0), (0, 0)])
    def test_despread_empty(self, backend, rows, n_sym):
        modem = SixteenAryDSSS(seed=9)
        result = modem.despread_batch(np.zeros((rows, n_sym * 32)))
        assert result.symbols.shape == (rows, n_sym)
        assert result.scores.shape == (rows, n_sym, 16)
        assert result.quality.shape == (rows, n_sym)
        # Dtypes must match what a non-empty batch yields, so downstream
        # concatenation never silently promotes.
        full = modem.despread_batch(np.ones((2, 32)))
        assert result.symbols.dtype == full.symbols.dtype
        assert result.scores.dtype == full.scores.dtype
        assert result.quality.dtype == full.quality.dtype


class TestSingleRowBatches:
    def test_single_row_matches_serial(self, backend):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 200)) + 1j * rng.standard_normal((1, 200))
        taps = np.hanning(7)
        assert np.array_equal(apply_fir_batch(x, taps)[0], apply_fir(x[0], taps))
        assert np.array_equal(fft_convolve_batch(x, taps)[0], fft_convolve(x[0], taps))

    def test_single_row_spread_roundtrip(self, backend):
        modem = SixteenAryDSSS(seed=1)
        syms = np.array([[3, 14, 0, 7]])
        chips = modem.spread_batch(syms)
        back = modem.despread_batch(chips)
        assert np.array_equal(back.symbols, syms)


class TestDtypeRoundTrips:
    @pytest.mark.parametrize("in_dtype,out_dtype", [
        (np.float32, np.float64),
        (np.float64, np.float64),
        (np.complex64, np.complex128),
        (np.complex128, np.complex128),
    ])
    def test_apply_fir_coerces(self, backend, in_dtype, out_dtype):
        x = np.ones((2, 64), dtype=in_dtype)
        assert apply_fir_batch(x, np.hanning(5)).dtype == out_dtype

    def test_fft_convolve_real_stays_real(self, backend):
        x = np.ones((2, 64))
        out = fft_convolve_batch(x, np.hanning(5))
        assert not np.iscomplexobj(out)

    def test_fft_convolve_complex_stays_complex(self, backend):
        x = np.ones((2, 64), dtype=complex)
        out = fft_convolve_batch(x, np.hanning(5))
        assert np.iscomplexobj(out)


class TestTapsFftValidation:
    def test_batch_mismatch_names_the_field(self, backend):
        x = np.zeros((3, 100))
        taps = np.hanning(9)
        nfft = convolve_nfft(100, 9)
        bad = np.zeros((2, nfft), dtype=complex)  # 2 rows vs 3 signals
        with pytest.raises(ValueError, match="taps_fft batch 2"):
            fft_convolve_batch(x, taps, taps_fft=bad)

    def test_bad_ndim_names_the_field(self, backend):
        x = np.zeros((3, 100))
        with pytest.raises(ValueError, match="taps_fft must be 1-D or 2-D"):
            fft_convolve_batch(x, np.hanning(9), taps_fft=np.zeros((3, 2, 2)))

    def test_length_check_still_applies(self, backend):
        x = np.zeros((3, 100))
        with pytest.raises(ValueError, match="taps_fft length"):
            fft_convolve_batch(x, np.hanning(9), taps_fft=np.zeros((3, 17), dtype=complex))


class TestBatchSizeOne:
    def test_batch_size_one_equals_serial(self):
        from repro.core import BHSSConfig, LinkSimulator
        from repro.jamming.registry import jammer_from_spec

        config = BHSSConfig.paper_default(payload_bytes=4, symbols_per_hop=2, seed=11)
        spec = {"type": "tone", "frequency": 1e6, "sample_rate": config.sample_rate}
        stats = {}
        for label, size in (("serial", 0), ("one", 1)):
            link = LinkSimulator(config)
            stats[label] = link.run_packets_batched(
                3, snr_db=8.0, sjr_db=-5.0, jammer=jammer_from_spec(spec),
                seed=2, batch_size=size, cache=False,
            )
        assert stats["serial"] == stats["one"]


class TestScenarioBackendField:
    def test_roundtrip(self, tmp_path):
        # A file that pins the legacy "numpy" backend loads with a warning
        # naming the field, and saves as the same scenario without it.
        from repro.scenario.spec import Scenario

        plain = Scenario(name="b", packets=1)
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps({**plain.to_dict(), "backend": "numpy"}))
        with pytest.warns(DeprecationWarning, match="'backend'"):
            loaded = Scenario.load(str(path))
        assert loaded.to_dict() == plain.to_dict()
        assert Scenario.from_dict(loaded.to_dict()) == plain

    def test_default_backend_stays_out_of_the_spec(self):
        # Cache keys and checkpoint hashes of scenario files must not move.
        from repro.scenario.spec import Scenario

        assert "backend" not in Scenario(name="b", packets=1).to_dict()
        with pytest.warns(DeprecationWarning):
            legacy = Scenario.from_dict({"name": "b", "packets": 1, "backend": "numpy"})
        assert "backend" not in legacy.to_dict()

    def test_unknown_backend_names_the_field(self):
        # Only the legacy "numpy" value loads; "numba" and null went with
        # the backend layer.
        from repro.scenario.spec import Scenario, ScenarioError

        for value in ("gpu", "numba", None, 1):
            with pytest.raises(ScenarioError, match="^backend: "):
                Scenario.from_dict({"name": "b", "packets": 1, "backend": value})
