"""Anti-aliased decimation.

The paper keeps one fixed 20 MS/s processing rate across hops "to avoid
processing delays when the sampling rate would be switched while
hopping"; this utility exists for the *other* design point — receivers
that decimate narrow hops down to a proportional rate to save compute.
It also demonstrates, constructively, the aliasing hazard the Figure-13
baseline embodies: :func:`decimate` with ``anti_alias=False`` is exactly
the fold-everything-in-band operation of the eq.-(5) receiver.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.fir import apply_fir, lowpass_taps
from repro.utils.validation import as_complex_array

__all__ = ["decimate", "decimation_taps"]

_TAPS_CACHE: dict[tuple[int, int], np.ndarray] = {}


def decimation_taps(factor: int, taps_per_phase: int = 12) -> np.ndarray:
    """Anti-aliasing low-pass for an integer decimation ``factor``.

    Cutoff at ``0.45 / factor`` of the input rate (a little inside the
    output Nyquist to leave transition room); length scales with the
    factor so the transition width stays proportionate.
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if taps_per_phase < 4:
        raise ValueError(f"taps_per_phase must be >= 4, got {taps_per_phase}")
    key = (factor, taps_per_phase)
    taps = _TAPS_CACHE.get(key)
    if taps is None:
        num_taps = factor * taps_per_phase + 1
        taps = lowpass_taps(num_taps, 0.45 / factor, 1.0)
        _TAPS_CACHE[key] = taps
    return taps


def decimate(x: np.ndarray, factor: int, anti_alias: bool = True) -> np.ndarray:
    """Reduce the sample rate by an integer ``factor``.

    With ``anti_alias=True`` (default) the signal is low-pass filtered
    (delay-compensated) before picking every ``factor``-th sample, so
    out-of-band content is suppressed instead of folding in.  With
    ``anti_alias=False`` it is a bare downsample — everything between the
    old and new Nyquist aliases into the output band (use only when that
    is the point, as in the eq.-(5) baseline).
    """
    if np.ndim(x) != 1:
        raise ValueError(f"signal must be 1-D, got shape {np.shape(x)}")
    sig = as_complex_array(x) if np.iscomplexobj(x) else np.asarray(x, dtype=float)
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if factor == 1 or sig.size == 0:
        return sig.copy()
    if anti_alias:
        sig = apply_fir(sig, decimation_taps(factor), mode="compensated")
    return sig[::factor].copy()
