"""AWGN generation and SNR-calibrated noise addition.

The paper's cabled testbed "can be modeled as additive white Gaussian
noise (AWGN) channels" — this module is that model.  Powers are always
calibrated against the *measured* signal power so that a requested SNR in
dB is exact regardless of the waveform's own scale.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import make_rng
from repro.utils.units import db_to_linear, signal_power
from repro.utils.validation import as_complex_array, ensure_non_negative

__all__ = ["complex_awgn", "add_awgn", "noise_power_for_snr"]


def complex_awgn(num_samples: int, power: float, rng=None) -> np.ndarray:
    """Circularly symmetric complex Gaussian noise of mean power ``power``."""
    if num_samples < 0:
        raise ValueError(f"num_samples must be >= 0, got {num_samples}")
    ensure_non_negative(power, "power")
    gen = make_rng(rng)
    # Built in place, real draws first: the same values as
    # ``scale * (re + 1j * im)`` without its three temporaries.
    z = np.empty(num_samples, dtype=np.complex128)
    z.real = gen.normal(size=num_samples)
    z.imag = gen.normal(size=num_samples)
    z *= np.sqrt(power / 2.0)
    return z


def noise_power_for_snr(signal: np.ndarray, snr_db: float, reference_power: float | None = None) -> float:
    """Noise power needed to hit ``snr_db`` against a signal.

    ``reference_power`` overrides the measured signal power (useful when
    the SNR should be defined against the nominal transmit power rather
    than a partially silent waveform).
    """
    p_sig = signal_power(signal) if reference_power is None else float(reference_power)
    if p_sig <= 0:
        raise ValueError("cannot define an SNR against a silent signal")
    return p_sig / db_to_linear(snr_db)


def add_awgn(signal: np.ndarray, snr_db: float, rng=None, reference_power: float | None = None) -> np.ndarray:
    """Return ``signal`` plus AWGN at the requested SNR (dB)."""
    x = as_complex_array(signal)
    if x.size == 0:
        return x.copy()
    p_noise = noise_power_for_snr(x, snr_db, reference_power)
    return x + complex_awgn(x.size, p_noise, rng)
