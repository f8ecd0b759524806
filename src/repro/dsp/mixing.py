"""Complex-baseband frequency shifting and phase rotation.

Used by the FHSS modem (carrier hopping), the channel impairments
(carrier-frequency offset) and the tone/sweep jammers.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import as_complex_array, ensure_positive

__all__ = ["frequency_shift", "phase_rotate", "chirp"]


def frequency_shift(x: np.ndarray, offset_hz: float, sample_rate: float, initial_phase: float = 0.0) -> np.ndarray:
    """Shift a complex baseband signal by ``offset_hz``.

    Multiplies by ``exp(j (2 pi offset t + phase))``.  A positive offset
    moves the spectrum towards positive frequencies.
    """
    x = as_complex_array(x)
    ensure_positive(sample_rate, "sample_rate")
    n = np.arange(x.size)
    return x * np.exp(1j * (2 * np.pi * offset_hz / sample_rate * n + initial_phase))


def phase_rotate(x: np.ndarray, phase_rad: float) -> np.ndarray:
    """Rotate a complex signal by a constant phase."""
    return as_complex_array(x) * np.exp(1j * phase_rad)


def chirp(num_samples: int, f_start: float, f_stop: float, sample_rate: float, initial_phase: float = 0.0) -> np.ndarray:
    """Unit-amplitude complex linear chirp from ``f_start`` to ``f_stop``.

    The instantaneous frequency sweeps linearly across the block; used by
    the sweep jammer.
    """
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    ensure_positive(sample_rate, "sample_rate")
    t = np.arange(num_samples) / sample_rate
    duration = num_samples / sample_rate
    rate = (f_stop - f_start) / duration
    phase = 2 * np.pi * (f_start * t + 0.5 * rate * t**2) + initial_phase
    return np.exp(1j * phase)
