"""FIR filter design and application.

The BHSS receiver uses two FIR structures (paper, Section 4.2):

* a **low-pass filter** at the current signal bandwidth, applied when the
  jammer is wide-band (eq. 4) — designed here by the windowed-sinc method;
* an **excision (whitening) filter**, applied when the jammer is
  narrow-band (eq. 3) — designed in :mod:`repro.dsp.excision`.

Filters are applied with overlap-save fast convolution, written directly on
top of ``numpy.fft`` (the simulation filters millions of samples per packet
sweep, so direct convolution is not an option).

The batch entry points (:func:`apply_fir_batch`, :func:`fft_convolve_batch`)
hold the stacked NumPy kernels; each row is transformed on its own, so a
row's output does not depend on its neighbours.  The serial
:func:`apply_fir` and :func:`fft_convolve` are their one-row cases.
"""

from __future__ import annotations

import math

import numpy as np

from repro.dsp.windows import WindowSpec, get_window
from repro.utils.validation import ensure_positive

__all__ = [
    "lowpass_taps",
    "highpass_taps",
    "bandpass_taps",
    "bandstop_taps",
    "estimate_num_taps",
    "apply_fir",
    "apply_fir_batch",
    "convolve_nfft",
    "fft_convolve",
    "fft_convolve_batch",
    "frequency_response",
    "group_delay_samples",
]


def _sinc_kernel(num_taps: int, cutoff_norm: float) -> np.ndarray:
    """Ideal low-pass impulse response, cutoff as a fraction of fs/2... of fs.

    ``cutoff_norm`` is the cutoff frequency divided by the sample rate
    (0 < cutoff_norm < 0.5).  The kernel is centred on ``(num_taps-1)/2``.
    """
    n = np.arange(num_taps) - (num_taps - 1) / 2.0
    return 2.0 * cutoff_norm * np.sinc(2.0 * cutoff_norm * n)


def _validate_design(num_taps: int, cutoff: float, sample_rate: float) -> float:
    if num_taps < 3:
        raise ValueError(f"num_taps must be >= 3, got {num_taps}")
    ensure_positive(sample_rate, "sample_rate")
    ensure_positive(cutoff, "cutoff")
    cutoff_norm = cutoff / sample_rate
    if cutoff_norm >= 0.5:
        raise ValueError(
            f"cutoff {cutoff} must be below Nyquist ({sample_rate / 2}); "
            f"got normalized cutoff {cutoff_norm}"
        )
    return cutoff_norm


def lowpass_taps(
    num_taps: int, cutoff: float, sample_rate: float, window: WindowSpec = "hamming"
) -> np.ndarray:
    """Design a linear-phase low-pass FIR by the windowed-sinc method.

    ``cutoff`` is the single-sided cutoff frequency in Hz (the -6 dB point
    of the resulting filter).  For a complex baseband signal this keeps the
    band ``|f| <= cutoff``.  DC gain is normalized to exactly 1.
    """
    cutoff_norm = _validate_design(num_taps, cutoff, sample_rate)
    taps = _sinc_kernel(num_taps, cutoff_norm) * get_window(window, num_taps)
    return taps / taps.sum()


def highpass_taps(
    num_taps: int, cutoff: float, sample_rate: float, window: WindowSpec = "hamming"
) -> np.ndarray:
    """Design a linear-phase high-pass FIR (spectral inversion of a LPF).

    Requires an odd ``num_taps`` so the delta at the centre tap lands on an
    integer sample.
    """
    if num_taps % 2 == 0:
        raise ValueError("highpass_taps requires an odd num_taps")
    lp = lowpass_taps(num_taps, cutoff, sample_rate, window)
    hp = -lp
    hp[(num_taps - 1) // 2] += 1.0
    return hp


def bandpass_taps(
    num_taps: int, low: float, high: float, sample_rate: float, window: WindowSpec = "hamming"
) -> np.ndarray:
    """Design a real-coefficient band-pass FIR for the band [low, high] Hz."""
    if not 0 < low < high:
        raise ValueError(f"need 0 < low < high, got low={low}, high={high}")
    centre = (low + high) / 2.0
    half_width = (high - low) / 2.0
    lp = lowpass_taps(num_taps, half_width, sample_rate, window)
    n = np.arange(num_taps) - (num_taps - 1) / 2.0
    shifted = lp * 2.0 * np.cos(2 * np.pi * centre / sample_rate * n)
    return shifted


def bandstop_taps(
    num_taps: int, low: float, high: float, sample_rate: float, window: WindowSpec = "hamming"
) -> np.ndarray:
    """Design a band-stop (notch) FIR for the band [low, high] Hz.

    Requires an odd ``num_taps``.  Useful as a crude alternative to the
    eq.-3 whitening excision filter when the jammer band is known exactly.
    """
    if num_taps % 2 == 0:
        raise ValueError("bandstop_taps requires an odd num_taps")
    bp = bandpass_taps(num_taps, low, high, sample_rate, window)
    bs = -bp
    bs[(num_taps - 1) // 2] += 1.0
    return bs


def estimate_num_taps(transition_width: float, sample_rate: float, attenuation_db: float = 70.0) -> int:
    """Estimate the FIR length for a target transition width and attenuation.

    Uses the Kaiser/Harris approximation ``N ~= A / (22 * dF/fs)`` (with A
    in dB), the same rule of thumb GNU Radio's ``firdes`` applies.  The
    paper reports a filter order of 3181 for a 10 kHz transition at 70 dB
    on 20 MS/s; this estimate lands in the same range.

    The returned length is always odd so the designed filters are type-I
    linear phase.
    """
    ensure_positive(transition_width, "transition_width")
    ensure_positive(sample_rate, "sample_rate")
    ensure_positive(attenuation_db, "attenuation_db")
    n = int(math.ceil(attenuation_db / (22.0 * transition_width / sample_rate)))
    if n % 2 == 0:
        n += 1
    return max(n, 3)


def _next_fast_len(n: int) -> int:
    """Smallest power of two >= n (good enough FFT sizing for our use)."""
    return 1 << (n - 1).bit_length()


#: Complex values per stacked FFT in the chunked kernels (256 KiB per
#: temporary): enough rows to amortize the per-call overhead, while a
#: long capture is never transformed as one whole-length temporary.
FFT_CHUNK = 1 << 14


def _default_block_size(n: int, k: int) -> int:
    """Overlap-save FFT block length for an ``n``-sample signal, ``k`` taps.

    ~8x the filter length amortizes the overlap, but never longer than the
    whole convolution needs: BHSS hop segments are often just a few hundred
    samples, and padding them into a fixed 4096-point block wastes most of
    the transform.  The choice depends on ``n`` and ``k`` only (it is part
    of the numerics), so a row's output does not depend on the batch.
    """
    return min(_next_fast_len(max(8 * k, 4096)), _next_fast_len(n + k - 1))


def convolve_nfft(n: int, k: int) -> int:
    """The FFT length :func:`fft_convolve` uses for signal/taps lengths
    ``n``/``k`` — exposed so callers can precompute a taps spectrum."""
    return _next_fast_len(n + k - 1)


def fft_convolve(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Full linear convolution via a single FFT (both inputs in memory).

    The one-row case of :func:`fft_convolve_batch`; an empty ``x`` gives
    an empty output.
    """
    x = np.asarray(x)
    h = np.asarray(taps)
    if x.ndim != 1 or h.ndim != 1:
        raise ValueError(f"x and taps must be 1-D, got shapes {x.shape} and {h.shape}")
    out: np.ndarray = fft_convolve_batch(x[None], h)[0]
    return out


def fft_convolve_batch(
    signals: np.ndarray, taps: np.ndarray, taps_fft: np.ndarray | None = None
) -> np.ndarray:
    """Row-wise full linear convolution of a stack of equal-length signals.

    ``signals`` has shape ``(R, N)`` (leading batch axis); ``taps`` is
    either 1-D (shared by every row) or 2-D ``(R, K)`` (one filter per
    row).  Row ``i`` of the output depends on row ``i`` alone: the FFT
    length depends only on ``N`` and ``K`` (identical across the batch),
    and NumPy's pocketfft computes stacked transforms row by row with the
    same kernels it uses for a single 1-D transform.

    ``taps_fft``, when given, must be ``np.fft.fft(taps,
    convolve_nfft(N, K), axis=-1)`` precomputed by the caller (e.g. the
    cached pulse spectrum) — it skips the taps transform without changing
    a single bit of the result.
    """
    x = np.asarray(signals)
    h = np.asarray(taps)
    if x.ndim != 2:
        raise ValueError(f"signals must be 2-D (batch, samples), got shape {x.shape}")
    if h.ndim == 2 and h.shape[0] != x.shape[0]:
        raise ValueError(
            f"per-row taps batch {h.shape[0]} does not match signal batch {x.shape[0]}"
        )
    if h.ndim not in (1, 2):
        raise ValueError(f"taps must be 1-D or 2-D, got shape {h.shape}")
    if h.shape[-1] == 0:
        raise ValueError(f"taps must be non-empty, got shape {h.shape}")
    rows, n = x.shape
    if rows == 0 or n == 0:
        # Same early-return as apply_fir_batch: a coerced copy of the
        # empty input, so the two share empty-input dtype and shape.
        empty = (
            x.astype(np.complex128, copy=False)
            if np.iscomplexobj(x)
            else x.astype(np.float64, copy=False)
        )
        return empty.copy()
    n_out = n + h.shape[-1] - 1
    nfft = _next_fast_len(n_out)
    if taps_fft is not None:
        tf = np.asarray(taps_fft)
        if tf.ndim not in (1, 2):
            raise ValueError(f"taps_fft must be 1-D or 2-D, got shape {tf.shape}")
        if tf.ndim == 2 and tf.shape[0] != x.shape[0]:
            raise ValueError(
                f"per-row taps_fft batch {tf.shape[0]} does not match signal batch {x.shape[0]}"
            )
        if tf.shape[-1] != nfft:
            raise ValueError(
                f"taps_fft length {tf.shape[-1]} does not match the "
                f"convolution FFT length {nfft}"
            )
        taps_fft = tf
    else:
        taps_fft = np.fft.fft(h, nfft, axis=-1)
    complex_out = np.iscomplexobj(x) or np.iscomplexobj(h)
    out = np.empty((rows, n_out), dtype=np.complex128 if complex_out else np.float64)
    per_chunk = max(1, FFT_CHUNK // nfft)
    for r in range(0, rows, per_chunk):
        chunk = slice(r, r + per_chunk)
        spec = np.fft.fft(x[chunk], nfft, axis=-1)
        spec *= taps_fft if taps_fft.ndim == 1 else taps_fft[chunk]
        y = np.fft.ifft(spec, axis=-1)[:, :n_out]
        out[chunk] = y if complex_out else y.real
    return out


def apply_fir_batch(
    signals: np.ndarray,
    taps: np.ndarray,
    mode: str = "compensated",
    block_size: int | None = None,
) -> np.ndarray:
    """Row-wise :func:`apply_fir` on a stack of equal-length signals.

    ``signals`` has shape ``(R, N)``; ``taps`` is 1-D (one filter shared
    by all rows — e.g. the eq.-4 low-pass of a segment group) or 2-D
    ``(R, K)`` (one filter per row — e.g. per-block eq.-3 excision taps).
    The overlap-save block geometry depends only on ``N``, ``K`` and
    ``block_size`` — all identical across the batch — so every row sees
    the same sequence of FFT lengths and block boundaries, whatever its
    neighbours.
    """
    x = np.asarray(signals)
    if x.ndim != 2:
        raise ValueError(f"signals must be 2-D (batch, samples), got shape {x.shape}")
    x = x.astype(np.complex128, copy=False) if np.iscomplexobj(x) else x.astype(np.float64, copy=False)
    h = np.asarray(taps)
    if h.ndim == 2 and h.shape[0] != x.shape[0]:
        raise ValueError(
            f"per-row taps batch {h.shape[0]} does not match signal batch {x.shape[0]}"
        )
    if h.ndim not in (1, 2) or h.shape[-1] == 0:
        raise ValueError("taps must be a non-empty 1-D or 2-D array")
    rows, n = x.shape
    if n == 0 or rows == 0:
        return x.copy()
    k = h.shape[-1]
    if block_size is None:
        block_size = _default_block_size(n, k)
    nfft = max(_next_fast_len(k), block_size)
    step = nfft - (k - 1)
    if step <= 0:
        nfft = _next_fast_len(2 * k)
        step = nfft - (k - 1)

    n_out = n + k - 1
    if mode == "full":
        first, count = 0, n_out
    elif mode in ("compensated", "same"):
        # Both drop the (k-1)/2-sample group delay of the odd-length
        # filters they are meant for.
        first, count = (k - 1) // 2, n
    else:
        raise ValueError(f"unknown mode {mode!r}; expected 'compensated', 'same', or 'full'")

    hf = np.fft.fft(h, nfft, axis=-1)  # (nfft,) or (R, nfft)
    complex_out = np.iscomplexobj(x) or np.iscomplexobj(h)
    out = np.empty((rows, count), dtype=np.complex128 if complex_out else np.float64)

    # Overlap-save: the input gets k-1 leading zeros and enough trailing
    # zeros that every block of `nfft` samples, advancing by `step`, is a
    # plain view; block b's circular convolution yields the full
    # convolution's samples [b * step, (b + 1) * step).  Only the blocks
    # the mode keeps are computed, through stacked FFTs in bounded
    # (rows, blocks) tiles, each block transformed exactly as it would be
    # alone.  One tile-sized zero-padded buffer is refilled per row tile.
    num_blocks = -(-n_out // step)
    first_block, end_block = first // step, (first + count - 1) // step + 1
    tile_blocks = min(end_block - first_block, max(1, FFT_CHUNK // nfft))
    tile_rows = min(rows, max(1, FFT_CHUNK // (nfft * tile_blocks)))
    padded = np.zeros((tile_rows, (num_blocks - 1) * step + nfft), dtype=x.dtype)
    windows = np.lib.stride_tricks.sliding_window_view(padded, nfft, axis=-1)[:, ::step]
    for r in range(0, rows, tile_rows):
        tile = x[r : r + tile_rows]
        t = tile.shape[0]
        padded[:t, k - 1 : k - 1 + n] = tile  # the zero margins are never written
        row_hf = hf if hf.ndim == 1 else hf[r : r + t, None, :]
        for b in range(first_block, end_block, tile_blocks):
            spec = np.fft.fft(windows[:t, b : min(b + tile_blocks, end_block)], axis=-1)
            spec *= row_hf
            y = np.fft.ifft(spec, axis=-1)[..., k - 1 :].reshape(t, -1)
            lo = max(b * step, first)
            hi = min(b * step + y.shape[1], first + count)
            kept = y[:, lo - b * step : hi - b * step]
            out[r : r + t, lo - first : hi - first] = kept if complex_out else kept.real
    return out


def apply_fir(signal: np.ndarray, taps: np.ndarray, mode: str = "compensated", block_size: int | None = None) -> np.ndarray:
    """Filter ``signal`` with FIR ``taps`` using overlap-save convolution.

    Modes:

    * ``"compensated"`` (default): output has the same length as the input
      and the filter's group delay of ``(len(taps)-1)/2`` samples removed,
      so sample ``k`` of the output aligns with sample ``k`` of the input.
      This is what the receiver chain wants: despreading correlators stay
      aligned with the hop schedule.
    * ``"same"``: same length as input, no delay compensation (like
      ``numpy.convolve(..., "same")`` only for odd tap counts).
    * ``"full"``: full linear convolution of length ``N + K - 1``.

    ``block_size`` overrides the overlap-save FFT block length (mostly for
    tests); by default a block of ~8x the filter length is used, capped at
    the length of the full convolution (short hop segments do not pay for
    a full-size block).  The one-row case of :func:`apply_fir_batch`.
    """
    x = np.asarray(signal)
    if x.ndim != 1:
        raise ValueError(f"signal must be 1-D, got shape {x.shape}")
    h = np.asarray(taps)
    if h.ndim != 1 or h.size == 0:
        raise ValueError("taps must be a non-empty 1-D array")
    out: np.ndarray = apply_fir_batch(x[None], h, mode, block_size)[0]
    return out


def frequency_response(
    taps: np.ndarray, num_points: int = 1024, sample_rate: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Complex frequency response of an FIR on a two-sided frequency grid.

    Returns ``(freqs, response)`` with frequencies in Hz spanning
    ``[-fs/2, fs/2)`` (fftshifted), matching how the PSD estimators report
    complex-baseband spectra.
    """
    h = np.asarray(taps)
    resp = np.fft.fftshift(np.fft.fft(h, num_points))
    freqs = np.fft.fftshift(np.fft.fftfreq(num_points, d=1.0 / sample_rate))
    return freqs, resp


def group_delay_samples(taps: np.ndarray) -> float:
    """Group delay of a linear-phase FIR, in samples: ``(N-1)/2``."""
    n = np.asarray(taps).size
    if n == 0:
        raise ValueError("empty filter has no group delay")
    return (n - 1) / 2.0
