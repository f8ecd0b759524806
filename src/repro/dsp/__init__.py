"""From-scratch DSP substrate: windows, FIR design, excision filtering,
spectral estimation, pulse shaping, mixing, and resampling.

These are the NumPy equivalents of the GNU Radio blocks the paper's SDR
implementation was built from.
"""

from repro.dsp.windows import blackman, get_window, hamming, hann, kaiser, kaiser_beta, rectangular
from repro.dsp.fir import (
    apply_fir,
    apply_fir_batch,
    bandpass_taps,
    bandstop_taps,
    estimate_num_taps,
    fft_convolve,
    fft_convolve_batch,
    frequency_response,
    group_delay_samples,
    highpass_taps,
    lowpass_taps,
)
from repro.dsp.excision import (
    design_excision_filter,
    excision_taps_from_psd,
    excision_taps_from_psd_batch,
    whiten,
)
from repro.dsp.spectral import (
    SpectralEstimate,
    band_power,
    bartlett_psd,
    estimate_spectrum,
    noise_floor,
    occupied_bandwidth,
    occupied_bandwidth_batch,
    periodogram,
    welch_psd,
    welch_psd_batch,
)
from repro.dsp.pulse import (
    HalfSinePulse,
    PulseShape,
    RectPulse,
    RootRaisedCosinePulse,
    get_pulse,
    pulse_spec,
)
from repro.dsp.mixing import chirp, frequency_shift, phase_rotate
from repro.dsp.resample import fractional_delay, linear_interpolate, resample_linear
from repro.dsp.decimate import decimate, decimation_taps

__all__ = [
    "rectangular",
    "hamming",
    "hann",
    "blackman",
    "kaiser",
    "kaiser_beta",
    "get_window",
    "lowpass_taps",
    "highpass_taps",
    "bandpass_taps",
    "bandstop_taps",
    "estimate_num_taps",
    "apply_fir",
    "apply_fir_batch",
    "fft_convolve",
    "fft_convolve_batch",
    "frequency_response",
    "group_delay_samples",
    "excision_taps_from_psd",
    "excision_taps_from_psd_batch",
    "design_excision_filter",
    "whiten",
    "periodogram",
    "bartlett_psd",
    "welch_psd",
    "welch_psd_batch",
    "SpectralEstimate",
    "estimate_spectrum",
    "occupied_bandwidth",
    "occupied_bandwidth_batch",
    "band_power",
    "noise_floor",
    "PulseShape",
    "HalfSinePulse",
    "RectPulse",
    "RootRaisedCosinePulse",
    "get_pulse",
    "pulse_spec",
    "frequency_shift",
    "phase_rotate",
    "chirp",
    "fractional_delay",
    "linear_interpolate",
    "resample_linear",
    "decimate",
    "decimation_taps",
]
