"""Excision (spectral-whitening) filter design — paper eq. (3).

When the jammer is narrower than the signal (``Bj < Bp``), the BHSS
receiver suppresses it *before* despreading with a FIR whose DFT is the
reciprocal of the square root of the estimated power spectral density at K
equally spaced frequencies:

    H(k) = 1 / sqrt(P(k/K * Rs)) * exp(-j pi (K-1)/K * k)

(Ketchum & Proakis 1982, as adopted by the paper).  The linear-phase term
``exp(-j pi (K-1) k / K)`` centres the impulse response at ``(K-1)/2``
samples, making the filter causal with a known group delay.  The filter
attenuates strongly wherever the jammer concentrates power and is roughly
flat elsewhere — it whitens the received spectrum.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.spectral import welch_psd
from repro.utils.validation import as_complex_array, ensure_positive

__all__ = [
    "excision_taps_from_psd",
    "excision_taps_from_psd_batch",
    "design_excision_filter",
    "whiten",
]


def excision_taps_from_psd(psd: np.ndarray, *, normalize: bool = True, floor_ratio: float = 1e-12) -> np.ndarray:
    """Build eq.-3 whitening FIR taps from a PSD sampled at K frequencies.

    The one-row case of :func:`excision_taps_from_psd_batch`.

    Parameters
    ----------
    psd:
        Power spectral density at K equally spaced frequencies in *natural
        FFT order* (bin k corresponds to frequency ``k/K * Rs``), K >= 2.
    normalize:
        If true (default), scale the taps so that the *median* magnitude
        response is 1.  Eq. (3) fixes only the shape of ``|H|``; without a
        gain convention the filtered signal's scale would depend on the
        jammer power, which would upset downstream soft-decision
        correlators.  The median bin is dominated by the (flat) signal +
        noise floor, so this convention leaves the desired signal's level
        approximately unchanged.
    floor_ratio:
        PSD bins below ``floor_ratio * max(psd)`` are clipped before the
        reciprocal square root, bounding the filter's gain on empty bins.

    Returns
    -------
    numpy.ndarray
        Complex FIR taps of length K, centred at ``(K-1)/2``.
    """
    p = np.asarray(psd, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise ValueError(f"psd must be a 1-D array with >= 2 bins, got shape {p.shape}")
    taps: np.ndarray = excision_taps_from_psd_batch(
        p[None], normalize=normalize, floor_ratio=floor_ratio
    )[0]
    return taps


def excision_taps_from_psd_batch(
    psd: np.ndarray, *, normalize: bool = True, floor_ratio: float = 1e-12
) -> np.ndarray:
    """Row-wise :func:`excision_taps_from_psd` for a stack of PSDs.

    ``psd`` has shape ``(R, K)``; returns complex taps of shape ``(R, K)``,
    one filter per row.  All operations — the clip against
    ``floor_ratio * max``, the reciprocal square root, the linear-phase
    term, the per-row median normalization, and the final IFFT — are
    element- or row-wise, so stacking changes nothing.
    """
    p = np.asarray(psd, dtype=float)
    if p.ndim != 2 or p.shape[1] < 2:
        raise ValueError(f"psd must be a 2-D array with >= 2 bins per row, got shape {p.shape}")
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise ValueError("psd must be finite and non-negative")
    peak = p.max(axis=-1)
    if np.any(peak <= 0):
        raise ValueError("psd is identically zero; nothing to whiten")
    p = np.maximum(p, floor_ratio * peak[:, None])

    k_len = p.shape[1]
    k = np.arange(k_len)
    h_dft = (1.0 / np.sqrt(p)) * np.exp(-1j * np.pi * (k_len - 1) / k_len * k)
    if normalize:
        h_dft = h_dft / np.median(np.abs(h_dft), axis=-1)[:, None]
    return np.fft.ifft(h_dft, axis=-1)


def design_excision_filter(
    received: np.ndarray,
    sample_rate: float,
    num_taps: int = 256,
    *,
    nperseg: int | None = None,
) -> np.ndarray:
    """Estimate the PSD of ``received`` (Welch) and return eq.-3 taps.

    ``num_taps`` is K, the number of equally spaced frequency samples of
    the desired response — and therefore the FIR length.  The Welch
    estimate is computed directly on a K-point grid so no interpolation is
    needed.
    """
    x = as_complex_array(received, "received")
    ensure_positive(sample_rate, "sample_rate")
    if num_taps < 8:
        raise ValueError(f"num_taps must be >= 8, got {num_taps}")
    if nperseg is None:
        nperseg = min(num_taps, x.size)
    _freqs, psd_shifted = welch_psd(x, sample_rate, nperseg=nperseg, nfft=num_taps)
    psd_natural = np.fft.ifftshift(psd_shifted)
    return excision_taps_from_psd(psd_natural)


def whiten(received: np.ndarray, sample_rate: float, num_taps: int = 256) -> np.ndarray:
    """One-shot convenience: design the eq.-3 filter on a block and apply it.

    Uses the delay-compensated overlap-save application from
    :func:`repro.dsp.fir.apply_fir`, so the output is sample-aligned with
    the input.
    """
    from repro.dsp.fir import apply_fir  # local import to avoid a cycle

    taps = design_excision_filter(received, sample_rate, num_taps)
    return apply_fir(received, taps, mode="compensated")
