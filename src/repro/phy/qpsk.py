"""QPSK chip modulation with stretchable pulse shaping.

Binary +-1 chips are mapped pairwise onto the QPSK constellation (even
chip -> I, odd chip -> Q, as in 802.15.4's O-QPSK without the half-chip
offset), pulse-shaped with the currently selected samples-per-chip, and
normalized to **unit average transmit power** regardless of the stretch
factor — the paper's attacker model fixes transmit *power*, so hopping to
a narrower bandwidth concentrates more energy per chip.

The demodulator is the matched filter sampled at chip centres, returning
soft chip values for the despreading correlators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.fir import convolve_nfft, fft_convolve_batch
from repro.dsp.pulse import PulseShape, get_pulse
from repro.utils.validation import as_complex_array

__all__ = [
    "ChipModulator",
    "binary_chips_to_complex",
    "binary_chips_to_complex_batch",
    "complex_chips_to_binary",
    "complex_chips_to_binary_batch",
]


def binary_chips_to_complex(chips: np.ndarray) -> np.ndarray:
    """Pair +-1 binary chips into unit-power QPSK complex chips.

    Even-index chips become I, odd-index chips Q; length must be even.
    """
    c = np.asarray(chips, dtype=float)
    if c.ndim != 1 or c.size % 2 != 0:
        raise ValueError(f"chips must be a 1-D even-length array, got shape {c.shape}")
    out: np.ndarray = binary_chips_to_complex_batch(c[None])[0]
    return out


def binary_chips_to_complex_batch(chips: np.ndarray) -> np.ndarray:
    """Row-wise :func:`binary_chips_to_complex` on a ``(R, C)`` chip stack.

    Even-index chips become I, odd-index chips Q; width must be even.
    """
    c = np.asarray(chips, dtype=float)
    if c.ndim != 2 or c.shape[1] % 2 != 0:
        raise ValueError(f"chips must be a 2-D even-width array, got shape {c.shape}")
    return (c[:, 0::2] + 1j * c[:, 1::2]) / np.sqrt(2)


def complex_chips_to_binary(symbols: np.ndarray) -> np.ndarray:
    """Interleave complex soft chips back into soft binary chip values."""
    s = as_complex_array(symbols, "symbols")
    out: np.ndarray = complex_chips_to_binary_batch(s[None])[0]
    return out


def complex_chips_to_binary_batch(symbols: np.ndarray) -> np.ndarray:
    """Row-wise :func:`complex_chips_to_binary` on a ``(R, S)`` stack."""
    s = np.asarray(symbols)
    if s.ndim != 2:
        raise ValueError(f"symbols must be 2-D, got shape {s.shape}")
    s = s.astype(np.complex128, copy=False)
    out = np.empty((s.shape[0], 2 * s.shape[1]), dtype=float)
    out[:, 0::2] = s.real
    out[:, 1::2] = s.imag
    return out


@dataclass(frozen=True)
class ChipModulator:
    """Pulse-shaping QPSK chip modulator/demodulator.

    Parameters
    ----------
    pulse:
        A :class:`repro.dsp.pulse.PulseShape` (or its name).  The paper's
        implementation uses the half-sine shape.

    The samples-per-(complex)-chip value ``sps`` is passed per call, not
    fixed at construction: hopping the bandwidth *is* changing ``sps``
    mid-packet, and the BHSS transmitter calls :meth:`modulate` with a
    different ``sps`` for every hop segment.  Each serial method is the
    one-row case of its ``*_batch`` method.
    """

    pulse: PulseShape

    def __post_init__(self) -> None:
        object.__setattr__(self, "pulse", get_pulse(self.pulse))

    def _pulse_and_trim(self, sps: int) -> tuple[np.ndarray, int]:
        # Cached per-(shape, sps) table: hop stretching revisits the same
        # few sps values constantly (see repro.dsp.pulse._WAVEFORM_TABLE).
        p = self.pulse.waveform_cached(sps)
        trim = (p.size - sps) // 2
        return p, trim

    def modulate(self, chips: np.ndarray, sps: int) -> np.ndarray:
        """Modulate +-1 binary chips at ``sps`` samples per complex chip.

        Returns a complex waveform of ``len(chips)//2 * sps`` samples with
        unit average power.  The one-row case of :meth:`modulate_batch`.
        """
        c = np.asarray(chips, dtype=float)
        if c.ndim != 1 or c.size % 2 != 0:
            raise ValueError(f"chips must be a 1-D even-length array, got shape {c.shape}")
        wave: np.ndarray = self.modulate_batch(c[None], sps)[0]
        return wave

    def modulate_batch(self, chips: np.ndarray, sps: int) -> np.ndarray:
        """Modulate each row of a ``(R, C)`` stack of chip frames.

        All rows share one ``sps`` (callers group hop segments by stretch
        factor).  Row ``i`` of the output depends on ``chips[i]`` alone:
        the impulse-train construction is positional, and the
        shared-pulse convolution goes through
        :func:`repro.dsp.fir.fft_convolve_batch`, which transforms each
        row on its own.
        """
        if sps < 1:
            raise ValueError(f"sps must be >= 1, got {sps}")
        cplx = binary_chips_to_complex_batch(chips)
        rows, n = cplx.shape
        if rows == 0 or n == 0:
            return np.zeros((rows, n * sps), dtype=complex)
        p, trim = self._pulse_and_trim(sps)
        if p.size == sps:
            # Time-limited pulse (span 1): chip pulses don't overlap, so
            # the shaping convolution degenerates to one scaled pulse copy
            # per chip — a single product per output sample, no FFT.
            wave = (cplx[:, :, None] * p).reshape(rows, -1)
        else:
            impulses = np.zeros((rows, n * sps), dtype=complex)
            impulses[:, ::sps] = cplx
            pf = self.pulse.spectrum_cached(sps, convolve_nfft(n * sps, p.size))
            wave = fft_convolve_batch(impulses, p.astype(complex), taps_fft=pf)
            wave = wave[:, trim : trim + n * sps]
        # Unit-energy pulse gives average power 1/sps; rescale to power 1,
        # in place: a second stack-sized temporary costs more than the
        # product itself on long hops.
        wave *= np.sqrt(sps)
        return wave

    def demodulate_batch(
        self,
        waveform: np.ndarray,
        sps: int,
        num_chips: int | None = None,
        matched: bool = True,
    ) -> np.ndarray:
        """Recover soft binary chips from each row of a ``(R, N)`` waveform stack.

        With ``matched=True`` (default) the waveform goes through the
        pulse matched filter and is sampled at the correlation peaks —
        the proper receiver.  With ``matched=False`` the chips are read
        by *direct sampling at the chip centres* with no band-limiting at
        all: this is eq. (5)'s "received baseband signal, sampled at the
        chip rate", the theory model's unfiltered receiver, in which
        out-of-band interference aliases straight into the decision
        variable.  It is the baseline the paper's Section-6.3 power
        advantage is measured against.

        ``num_chips`` (binary chips, even) limits the output; by default
        every full complex chip contained in the waveform is returned.
        The soft values are scaled so that a cleanly received +-1 chip
        yields approximately +-1.  All rows share ``sps`` and
        ``num_chips``, and row ``i`` depends on ``waveform[i]`` alone.
        """
        if sps < 1:
            raise ValueError(f"sps must be >= 1, got {sps}")
        x = np.asarray(waveform)
        if x.ndim != 2:
            raise ValueError(f"waveform must be 2-D, got shape {x.shape}")
        x = x.astype(np.complex128, copy=False)
        n_cc_avail = x.shape[1] // sps
        if num_chips is not None:
            if num_chips % 2 != 0:
                raise ValueError("num_chips must be even (I/Q pairs)")
            n_cc = num_chips // 2
            if n_cc > n_cc_avail:
                raise ValueError(f"waveform holds {n_cc_avail} complex chips, need {n_cc}")
        else:
            n_cc = n_cc_avail
        if n_cc == 0:
            return np.zeros((x.shape[0], 0), dtype=float)
        p, trim = self._pulse_and_trim(sps)
        if matched:
            pf = self.pulse.spectrum_cached(sps, convolve_nfft(x.shape[1], p.size))
            mf = fft_convolve_batch(x, p.astype(complex), taps_fft=pf)
            idx = np.arange(n_cc) * sps + (p.size - 1) - trim
            soft_cplx = mf[:, idx]
            # Undo the transmit power scaling and the matched-filter gain
            # (pulse has unit energy, so MF gain on the aligned chip is 1).
            soft_cplx = soft_cplx / np.sqrt(sps) * np.sqrt(2)
        else:
            # Raw chip-rate sampling: one sample at each chip centre,
            # rescaled by the pulse's centre amplitude and the transmit
            # power normalization so clean chips still read +-1.
            centre = sps // 2
            idx = np.arange(n_cc) * sps + centre
            idx = np.minimum(idx, x.shape[1] - 1)
            centre_gain = p[trim + centre] if trim + centre < p.size else p[p.size // 2]
            if centre_gain <= 0:
                raise ValueError("pulse centre amplitude is non-positive")
            soft_cplx = x[:, idx] / (np.sqrt(sps) * centre_gain) * np.sqrt(2)
        return complex_chips_to_binary_batch(soft_cplx)

    def demodulate(
        self,
        waveform: np.ndarray,
        sps: int,
        num_chips: int | None = None,
        matched: bool = True,
    ) -> np.ndarray:
        """Recover soft binary chips from a waveform.

        The one-row case of :meth:`demodulate_batch`, which documents
        ``matched`` and ``num_chips``.
        """
        x = as_complex_array(waveform, "waveform")
        soft: np.ndarray = self.demodulate_batch(x[None], sps, num_chips, matched)[0]
        return soft

    def samples_for_chips(self, num_chips: int, sps: int) -> int:
        """Waveform length produced by ``num_chips`` binary chips at ``sps``."""
        if num_chips % 2 != 0:
            raise ValueError("num_chips must be even")
        return (num_chips // 2) * sps
