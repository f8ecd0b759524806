"""Power spectral density estimation: periodogram, Bartlett, Welch.

The BHSS control logic (paper Section 4.2) estimates the spectrum of the
received block to decide whether a jammer is present and whether it is
narrow-band or wide-band relative to the current hop bandwidth.  The paper
cites Bartlett's and Welch's methods; both are implemented here from their
definitions, on two-sided frequency grids appropriate for complex baseband.

Conventions: PSD values are *power per frequency bin normalized by the
sample rate* (density), so ``integral(psd * df) == mean power`` (Parseval).
Frequencies are returned fftshifted, spanning ``[-fs/2, fs/2)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.fir import FFT_CHUNK
from repro.dsp.windows import WindowSpec, get_window
from repro.utils.validation import as_complex_array, ensure_positive

__all__ = [
    "periodogram",
    "bartlett_psd",
    "welch_psd",
    "welch_psd_batch",
    "occupied_bandwidth_batch",
    "SpectralEstimate",
    "estimate_spectrum",
    "occupied_bandwidth",
    "band_power",
    "noise_floor",
]


def periodogram(
    x: np.ndarray,
    sample_rate: float = 1.0,
    nfft: int | None = None,
    window: WindowSpec = "rectangular",
) -> tuple[np.ndarray, np.ndarray]:
    """Single-segment windowed periodogram.

    Returns ``(freqs, psd)`` with a two-sided, fftshifted frequency axis.
    The window power is compensated so a white input of power P yields a
    flat PSD of P/fs regardless of the window.
    """
    x = as_complex_array(x)
    ensure_positive(sample_rate, "sample_rate")
    if x.size == 0:
        raise ValueError("cannot estimate the spectrum of an empty signal")
    n = x.size
    nfft = int(nfft) if nfft is not None else n
    if nfft < n:
        raise ValueError(f"nfft ({nfft}) must be >= signal length ({n})")
    w = get_window(window, n, periodic=True)
    scale = sample_rate * np.sum(w**2)
    spec = np.fft.fft(x * w, nfft)
    psd = np.abs(spec) ** 2 / scale
    freqs = np.fft.fftfreq(nfft, d=1.0 / sample_rate)
    return np.fft.fftshift(freqs), np.fft.fftshift(psd)


def _segment_psd_average(
    x: np.ndarray,
    sample_rate: float,
    nperseg: int,
    noverlap: int,
    window: WindowSpec,
    nfft: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Average windowed periodograms over (possibly overlapping) segments.

    The one-row case of :func:`welch_psd_batch`.
    """
    x = as_complex_array(x)
    freqs, psd = welch_psd_batch(x[None], sample_rate, nperseg, noverlap, window, nfft)
    return freqs, psd[0]


def welch_psd_batch(
    x: np.ndarray,
    sample_rate: float = 1.0,
    nperseg: int = 256,
    noverlap: int | None = None,
    window: WindowSpec = "hann",
    nfft: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`welch_psd` on a stack of equal-length signals.

    ``x`` has shape ``(R, N)``; returns ``(freqs, psd)`` with ``psd`` of
    shape ``(R, nfft)``.  All R rows share the segmentation geometry
    (same ``N``), the Welch segments across the batch go through stacked
    FFTs, and the segment accumulation runs in segment order — a
    sequential loop over segment index, vectorized over rows — so each
    row's floating-point sum is performed in the same sequence whatever
    the batch holds.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"x must be 2-D (batch, samples), got shape {x.shape}")
    if not np.iscomplexobj(x):
        x = x.astype(float)
    x = x.astype(np.complex128, copy=False)
    ensure_positive(sample_rate, "sample_rate")
    if noverlap is None:
        noverlap = int(nperseg) // 2
    nperseg = int(nperseg)
    if nperseg < 2:
        raise ValueError(f"nperseg must be >= 2, got {nperseg}")
    n = x.shape[1]
    if n < nperseg:
        # Degrade gracefully to a single shorter segment (and shrink the
        # overlap with it so the validation below still holds).
        noverlap = int(noverlap * n / nperseg)
        nperseg = n
    noverlap = int(noverlap)
    if not 0 <= noverlap < nperseg:
        raise ValueError(f"noverlap must be in [0, nperseg), got {noverlap}")
    step = nperseg - noverlap
    nfft = int(nfft) if nfft is not None else nperseg

    w = get_window(window, nperseg, periodic=True)
    scale = sample_rate * np.sum(w**2)
    count = len(range(0, n - nperseg + 1, step))
    if count == 0:
        raise ValueError("signal too short for the requested segmentation")
    # The (R, S, nperseg) segment stack is a zero-copy strided view; it
    # is windowed and transformed in bounded chunks of segments, each
    # segment one row of a stacked FFT.  Windowing and |.|^2 are
    # elementwise, so a segment's periodogram does not depend on the
    # chunk it lands in.
    windows = np.lib.stride_tricks.sliding_window_view(x, nperseg, axis=1)[:, ::step]
    rows = x.shape[0]
    acc = np.zeros((rows, nfft), dtype=float)
    per_chunk = max(1, FFT_CHUNK // (max(rows, 1) * nfft))
    for first in range(0, count, per_chunk):
        power = np.abs(np.fft.fft(windows[:, first : first + per_chunk] * w, nfft, axis=-1)) ** 2
        for s in range(power.shape[1]):
            # Sequential segment order: the Welch sum is accumulated term
            # by term, so its rounding does not depend on the chunking.
            acc += power[:, s, :]
    psd = acc / (count * scale)
    freqs = np.fft.fftfreq(nfft, d=1.0 / sample_rate)
    return np.fft.fftshift(freqs), np.fft.fftshift(psd, axes=-1)


def bartlett_psd(
    x: np.ndarray, sample_rate: float = 1.0, nperseg: int = 256, nfft: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Bartlett's method: average of non-overlapping rectangular periodograms."""
    return _segment_psd_average(x, sample_rate, nperseg, 0, "rectangular", nfft)


def welch_psd(
    x: np.ndarray,
    sample_rate: float = 1.0,
    nperseg: int = 256,
    noverlap: int | None = None,
    window: WindowSpec = "hann",
    nfft: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Welch's method: averaged, windowed, 50 %-overlapping periodograms."""
    if noverlap is None:
        noverlap = nperseg // 2
    return _segment_psd_average(x, sample_rate, nperseg, noverlap, window, nfft)


@dataclass(frozen=True)
class SpectralEstimate:
    """A PSD estimate plus the summary statistics the control logic uses.

    Attributes
    ----------
    freqs:
        Two-sided frequency grid in Hz (fftshifted).
    psd:
        Estimated power spectral density on that grid.
    total_power:
        Integral of the PSD (mean signal power).
    floor:
        Robust noise-floor density estimate (median bin).
    """

    freqs: np.ndarray
    psd: np.ndarray
    total_power: float
    floor: float

    @property
    def bin_width(self) -> float:
        """Width of one frequency bin in Hz."""
        return float(self.freqs[1] - self.freqs[0])

    def power_in_band(self, low: float, high: float) -> float:
        """Integrated power in the band ``low <= f <= high``."""
        return band_power(self.freqs, self.psd, low, high)


def estimate_spectrum(
    x: np.ndarray, sample_rate: float, nperseg: int = 256, method: str = "welch"
) -> SpectralEstimate:
    """Estimate the spectrum of a received block and derive summary stats.

    ``method`` is ``"welch"`` (default), ``"bartlett"``, or
    ``"periodogram"``.
    """
    if method == "welch":
        freqs, psd = welch_psd(x, sample_rate, nperseg=nperseg)
    elif method == "bartlett":
        freqs, psd = bartlett_psd(x, sample_rate, nperseg=nperseg)
    elif method == "periodogram":
        freqs, psd = periodogram(x, sample_rate)
    else:
        raise ValueError(f"unknown spectral method {method!r}")
    total = float(np.sum(psd) * (freqs[1] - freqs[0]))
    return SpectralEstimate(freqs=freqs, psd=psd, total_power=total, floor=noise_floor(psd))


def noise_floor(psd: np.ndarray) -> float:
    """Robust noise-floor density estimate: the median PSD bin.

    The median is insensitive to a jammer occupying less than half of the
    band, which is exactly the narrow-band case the excision filter
    targets.
    """
    psd = np.asarray(psd, dtype=float)
    if psd.size == 0:
        raise ValueError("empty PSD")
    return float(np.median(psd))


def band_power(freqs: np.ndarray, psd: np.ndarray, low: float, high: float) -> float:
    """Integrate a PSD over ``low <= f <= high`` (Hz)."""
    freqs = np.asarray(freqs, dtype=float)
    psd = np.asarray(psd, dtype=float)
    if freqs.shape != psd.shape:
        raise ValueError("freqs and psd must have the same shape")
    if low > high:
        raise ValueError(f"low ({low}) must be <= high ({high})")
    mask = (freqs >= low) & (freqs <= high)
    df = freqs[1] - freqs[0]
    return float(np.sum(psd[mask]) * df)


def occupied_bandwidth(freqs: np.ndarray, psd: np.ndarray, fraction: float = 0.99) -> float:
    """Bandwidth of the smallest set of strongest bins holding ``fraction`` of the power.

    This "x %-power bandwidth" is what the control logic uses to classify a
    jammer as wide- or narrow-band relative to the hop bandwidth: bins are
    sorted by power and accumulated until ``fraction`` of the total is
    covered; the result is the summed width of those bins.  Working on
    sorted bins (rather than a contiguous window) keeps the estimate
    meaningful for multi-tone and comb jammers too.  The one-row case of
    :func:`occupied_bandwidth_batch`.
    """
    freqs = np.asarray(freqs, dtype=float)
    psd = np.asarray(psd, dtype=float)
    if freqs.shape != psd.shape or freqs.ndim != 1 or freqs.size < 2:
        raise ValueError("freqs and psd must be equal-length 1-D arrays with >= 2 bins")
    return float(occupied_bandwidth_batch(freqs, psd[None], fraction)[0])


def occupied_bandwidth_batch(freqs: np.ndarray, psd: np.ndarray, fraction: float = 0.99) -> np.ndarray:
    """Row-wise :func:`occupied_bandwidth` for a stack of PSDs.

    ``psd`` has shape ``(R, nbins)`` on the shared grid ``freqs``; returns
    an ``(R,)`` vector, one bandwidth per row.  The bins needed are the
    count of cumulative-sum entries strictly below ``fraction`` of the
    row's total, plus one: a row-wise comparison on the non-decreasing
    cumulative sum of the descending-sorted row.
    """
    freqs = np.asarray(freqs, dtype=float)
    psd = np.asarray(psd, dtype=float)
    if psd.ndim != 2 or freqs.ndim != 1 or psd.shape[1] != freqs.size or freqs.size < 2:
        raise ValueError("psd must be (R, nbins) on a shared freqs grid with >= 2 bins")
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    total = psd.sum(axis=-1)
    descending = np.sort(psd, axis=-1)[:, ::-1]
    cumulative = np.cumsum(descending, axis=-1)
    needed = np.sum(cumulative < fraction * total[:, None], axis=-1) + 1
    df = freqs[1] - freqs[0]
    out = needed * df
    return np.where(total > 0, out, 0.0)
