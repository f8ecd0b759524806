"""Chip pulse shapes and the bandwidth-hopping pulse stretch.

The heart of the BHSS transmitter (paper Section 3, Figure 4) is replacing
the fixed pulse shape ``g(t)`` of a conventional DSSS modulator with a
stretched pulse ``g(alpha t)``: stretching in time by ``alpha`` compresses
the spectrum by the same factor (eq. 1), so hopping ``alpha`` hops the
signal bandwidth without touching the PN sequence or carrier.

In the discrete-time simulation the stretch is simply the number of samples
per chip: a pulse sampled at ``sps`` samples occupies a bandwidth
proportional to ``1/sps`` at fixed sample rate.  The paper's implementation
uses a half-sine pulse (IEEE 802.15.4 / MSK style); a rectangular and a
root-raised-cosine shape are also provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PulseShape",
    "HalfSinePulse",
    "RectPulse",
    "RootRaisedCosinePulse",
    "get_pulse",
    "pulse_spec",
]

#: Per-(pulse, α) sampled-waveform table.  Hop stretching means the same
#: few sps values recur for every segment of every packet; sampling the
#: pulse once per (shape, sps) removes that recomputation from the hot
#: path.  Cached arrays are frozen (non-writeable) so a cache hit can be
#: shared safely across callers.
_WAVEFORM_TABLE: dict[tuple, np.ndarray] = {}

#: Per-(pulse, α, nfft) pulse-spectrum table for the batched fast
#: convolution: the FFT of the pulse at a given transform length is the
#: same for every segment group that shares the stretch factor, so it is
#: computed once and reused (bit-identical — it is the very same array).
_SPECTRUM_TABLE: dict[tuple, np.ndarray] = {}


@dataclass(frozen=True)
class PulseShape:
    """Base class for unit-energy chip pulse shapes.

    Subclasses implement :meth:`waveform`, returning the sampled pulse for
    a given samples-per-chip.  ``bandwidth_factor`` relates the *nominal*
    occupied bandwidth to the (complex) chip rate: ``B = factor * Rchip``.
    Shapes are normalized to unit energy per chip so the transmitted power
    is independent of the hop bandwidth — the paper's power budget model
    (Section 2) holds the transmit power constant while hopping.
    """

    #: nominal two-sided occupied bandwidth in units of the chip rate
    bandwidth_factor: float = 1.0
    #: pulse length in chips (1 for time-limited shapes, >1 for RRC)
    span: int = 1

    def waveform(self, sps: int) -> np.ndarray:  # pragma: no cover - abstract
        """Sampled pulse at ``sps`` samples per chip, unit energy."""
        raise NotImplementedError

    def _normalize(self, p: np.ndarray) -> np.ndarray:
        energy = np.sum(p**2)
        if energy <= 0:
            raise ValueError("pulse has zero energy")
        return p / np.sqrt(energy)

    def waveform_cached(self, sps: int) -> np.ndarray:
        """:meth:`waveform` through the per-(shape, α) table.

        Returns the exact array :meth:`waveform` would produce (computed
        once and frozen), so callers that switch to the cached lookup
        stay bit-identical to callers that recompute.  The cache key uses
        the shape's dataclass identity (class + field values), so two
        equal pulse objects share one entry.
        """
        key = (type(self), self.bandwidth_factor, self.span, int(sps))
        table = _WAVEFORM_TABLE.get(key)
        if table is None:
            table = self.waveform(int(sps))
            table.flags.writeable = False
            _WAVEFORM_TABLE[key] = table
        return table

    def spectrum_cached(self, sps: int, nfft: int) -> np.ndarray:
        """Cached ``np.fft.fft(waveform_cached(sps).astype(complex), nfft)``.

        The batched modulator and matched filter convolve every segment
        group with the same pulse; caching the pulse's FFT per (shape, α,
        transform length) skips one transform per stacked call.  The
        cached array is the exact output of the inline FFT (computed once
        and frozen), so results stay bit-identical.
        """
        key = (type(self), self.bandwidth_factor, self.span, int(sps), int(nfft))
        spec = _SPECTRUM_TABLE.get(key)
        if spec is None:
            spec = np.fft.fft(self.waveform_cached(sps).astype(complex), int(nfft))
            spec.flags.writeable = False
            _SPECTRUM_TABLE[key] = spec
        return spec


class HalfSinePulse(PulseShape):
    """Half-sine chip pulse ``sin(pi t / T)`` on ``0 <= t < T``.

    This is the pulse of the paper's SDR implementation (and of the IEEE
    802.15.4 O-QPSK PHY).  Its main spectral lobe extends to 1.5x the chip
    rate, but the bulk of the energy sits within +-0.75 Rchip; the nominal
    bandwidth factor of 2.0 matches the paper's convention that a 10 Mchip/s
    binary-chip stream "is" a 10 MHz signal (two binary chips per complex
    chip period).
    """

    def __init__(self) -> None:
        super().__init__(bandwidth_factor=2.0, span=1)

    def waveform(self, sps: int) -> np.ndarray:
        if sps < 1:
            raise ValueError(f"sps must be >= 1, got {sps}")
        t = (np.arange(sps) + 0.5) / sps
        return self._normalize(np.sin(np.pi * t))


class RectPulse(PulseShape):
    """Rectangular (NRZ) chip pulse."""

    def __init__(self) -> None:
        super().__init__(bandwidth_factor=2.0, span=1)

    def waveform(self, sps: int) -> np.ndarray:
        if sps < 1:
            raise ValueError(f"sps must be >= 1, got {sps}")
        return self._normalize(np.ones(sps, dtype=float))


class RootRaisedCosinePulse(PulseShape):
    """Root-raised-cosine pulse with roll-off ``beta`` spanning ``span`` chips.

    Strictly band-limited to ``(1 + beta) * Rchip`` (two-sided), which makes
    it the cleanest shape for validating the theoretical SNR-improvement
    bound: virtually no signal energy falls outside the nominal band, so the
    ideal low-pass filter of Section 5.2 exists in practice.
    """

    def __init__(self, beta: float = 0.35, span: int = 8) -> None:
        if not 0 < beta <= 1:
            raise ValueError(f"beta must be in (0, 1], got {beta}")
        if span < 2 or span % 2 != 0:
            raise ValueError(f"span must be an even integer >= 2, got {span}")
        super().__init__(bandwidth_factor=1.0 + beta, span=span)
        object.__setattr__(self, "beta", beta)

    def waveform(self, sps: int) -> np.ndarray:
        if sps < 1:
            raise ValueError(f"sps must be >= 1, got {sps}")
        beta = self.beta
        n = self.span * sps
        t = (np.arange(n) - (n - 1) / 2.0) / sps  # time in chip periods
        p = np.empty(n, dtype=float)
        for i, ti in enumerate(t):
            if abs(ti) < 1e-9:
                p[i] = 1.0 - beta + 4 * beta / np.pi
            elif beta > 0 and abs(abs(ti) - 1.0 / (4 * beta)) < 1e-9:
                p[i] = (beta / np.sqrt(2)) * (
                    (1 + 2 / np.pi) * np.sin(np.pi / (4 * beta))
                    + (1 - 2 / np.pi) * np.cos(np.pi / (4 * beta))
                )
            else:
                num = np.sin(np.pi * ti * (1 - beta)) + 4 * beta * ti * np.cos(np.pi * ti * (1 + beta))
                den = np.pi * ti * (1 - (4 * beta * ti) ** 2)
                p[i] = num / den
        return self._normalize(p)


_PULSES = {
    "half_sine": HalfSinePulse,
    "halfsine": HalfSinePulse,
    "rect": RectPulse,
    "rectangular": RectPulse,
    "rrc": RootRaisedCosinePulse,
}


def get_pulse(name: "PulseShape | str | dict", **kwargs: object) -> PulseShape:
    """Look up a pulse shape by name or spec dict.

    Accepts an existing :class:`PulseShape` (passes through), a registry
    name (``"half_sine"``, ``"rect"``, ``"rrc"``), or a spec mapping like
    ``{"name": "rrc", "beta": 0.35, "span": 8}`` as produced by
    :func:`pulse_spec`.
    """
    if isinstance(name, PulseShape):
        return name
    if isinstance(name, dict):
        spec = dict(name)
        try:
            name = spec.pop("name")
        except KeyError:
            raise ValueError("pulse spec must contain a 'name' field") from None
        kwargs = {**spec, **kwargs}
    try:
        cls = _PULSES[str(name).lower()]
    except KeyError:
        raise ValueError(f"unknown pulse shape {name!r}; choose from {sorted(_PULSES)}") from None
    try:
        return cls(**kwargs)
    except TypeError:
        raise ValueError(
            f"invalid parameters {sorted(kwargs)} for pulse shape {name!r}"
        ) from None


def pulse_spec(pulse: "PulseShape | str | dict") -> dict:
    """The JSON-able spec of a pulse shape; ``get_pulse`` inverts it."""
    pulse = get_pulse(pulse)
    if isinstance(pulse, RootRaisedCosinePulse):
        return {"name": "rrc", "beta": float(pulse.beta), "span": int(pulse.span)}
    if isinstance(pulse, HalfSinePulse):
        return {"name": "half_sine"}
    if isinstance(pulse, RectPulse):
        return {"name": "rect"}
    raise ValueError(f"pulse shape {type(pulse).__name__} has no registered spec")
