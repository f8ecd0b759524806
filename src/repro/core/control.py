"""Receiver control logic: jammer estimation and filter selection.

Implements Section 4.2: the control logic estimates the received block's
power spectral density, classifies the interference relative to the known
current hop bandwidth ``Bp`` (the receiver derives ``Bp`` from the shared
seed, never from the air), and configures a filter:

* estimated occupancy well beyond ``Bp``  → **low-pass filter** at ``Bp``
  (eq. 4): the jammer is wide-band, everything outside the signal band is
  pure interference;
* strong spectral peaks inside the band  → **excision filter** (eq. 3):
  the jammer is narrow-band, whiten it away;
* neither                                 → **no pre-filter**: jammer with
  comparable bandwidth/power, despreading gain must carry the day.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from repro.dsp.excision import excision_taps_from_psd_batch
from repro.dsp.fir import estimate_num_taps, lowpass_taps
from repro.dsp.spectral import occupied_bandwidth_batch, welch_psd_batch

# ``welch_psd`` and ``occupied_bandwidth`` are re-exported: ``bench/tracing.py``
# names them as control-layer targets, which must resolve on this module.
from repro.dsp.spectral import occupied_bandwidth, welch_psd  # noqa: F401
from repro.utils.units import db_to_linear, linear_to_db
from repro.utils.validation import as_complex_array, ensure_positive

if TYPE_CHECKING:
    from repro.dsp.pulse import PulseShape

__all__ = ["FilterKind", "FilterDecision", "ControlLogic"]


class FilterKind(str, Enum):
    """Which pre-despreading filter the control logic selected."""

    NONE = "none"
    LOWPASS = "lowpass"
    EXCISION = "excision"


@dataclass(frozen=True)
class FilterDecision:
    """The control logic's verdict for one received block.

    ``taps`` is ``None`` for :attr:`FilterKind.NONE`.
    """

    kind: FilterKind
    taps: np.ndarray | None
    #: 99 %-power occupancy estimate of the received block, in Hz
    occupied_bandwidth: float
    #: in-band spectral peak over the robust floor, in dB
    peak_over_floor_db: float
    #: the hop bandwidth the decision was made against
    signal_bandwidth: float


class ControlLogic:
    """Spectral jammer estimation + filter configuration (Section 4.2).

    Parameters
    ----------
    sample_rate:
        Baseband sample rate in Hz.
    wide_ratio:
        Occupancy beyond ``wide_ratio * Bp`` classifies the interference
        as wide-band and engages the low-pass filter.
    peak_margin_db:
        In-band peak-to-floor margin (dB) above which the interference is
        classified as narrow-band and the excision filter engages.  Keeps
        the whitener off for flat (signal-only or matched-jammer) blocks,
        where eq. (10) says filtering would do more harm than good.
    excision_taps:
        Whitening-FIR length K; reduced automatically on short blocks.
    lpf_transition_fraction:
        Low-pass transition width as a fraction of ``Bp``.
    nperseg:
        Welch segment length for the PSD estimate.
    """

    def __init__(
        self,
        sample_rate: float,
        wide_ratio: float = 1.6,
        peak_margin_db: float = 10.0,
        excision_taps: int = 257,
        lpf_transition_fraction: float = 0.2,
        nperseg: int = 128,
        max_lpf_taps: int = 2049,
        pulse: "PulseShape | str | None" = None,
        max_hot_fraction: float = 0.5,
    ) -> None:
        self.sample_rate = ensure_positive(sample_rate, "sample_rate")
        self.wide_ratio = ensure_positive(wide_ratio, "wide_ratio")
        self.peak_margin_db = ensure_positive(peak_margin_db, "peak_margin_db")
        if excision_taps < 9 or excision_taps % 2 == 0:
            raise ValueError("excision_taps must be an odd integer >= 9")
        self.excision_taps = int(excision_taps)
        self.lpf_transition_fraction = ensure_positive(
            lpf_transition_fraction, "lpf_transition_fraction"
        )
        self.nperseg = int(nperseg)
        self.max_lpf_taps = int(max_lpf_taps)
        if not 0 < max_hot_fraction <= 1:
            raise ValueError("max_hot_fraction must be in (0, 1]")
        self.max_hot_fraction = float(max_hot_fraction)
        # The receiver knows its own chip pulse; the expected signal
        # spectrum lets the anomaly detector ignore the pulse's natural
        # in-band roll-off (which would otherwise look like a "peak").
        from repro.dsp.pulse import HalfSinePulse, get_pulse

        self.pulse = get_pulse(pulse) if pulse is not None else HalfSinePulse()
        self._lpf_cache: dict[tuple[float, int], np.ndarray] = {}
        self._shape_cache: dict[tuple[float, int, int], np.ndarray] = {}

    # -- filter designers -----------------------------------------------------

    def lowpass_for(self, bandwidth: float, block_len: int) -> np.ndarray:
        """The eq.-4 low-pass filter at a hop bandwidth (cached).

        Tap count follows the transition-width rule but is capped so the
        filter stays shorter than the block it runs on.
        """
        transition = self.lpf_transition_fraction * bandwidth
        num_taps = estimate_num_taps(transition, self.sample_rate, attenuation_db=60.0)
        cap = max(9, min(self.max_lpf_taps, (block_len // 2) | 1))
        num_taps = min(num_taps, cap)
        if num_taps % 2 == 0:
            num_taps += 1
        key = (float(bandwidth), num_taps)
        taps = self._lpf_cache.get(key)
        if taps is None:
            taps = lowpass_taps(num_taps, bandwidth / 2.0, self.sample_rate)
            self._lpf_cache[key] = taps
        return taps

    def excision_for(self, block: np.ndarray) -> np.ndarray:
        """The eq.-3 whitening filter estimated from a received block.

        The one-row case of :meth:`excision_for_batch`.
        """
        x = as_complex_array(block, "block")
        taps: np.ndarray = self.excision_for_batch(x[None])[0]
        return taps

    def excision_for_batch(self, blocks: np.ndarray) -> np.ndarray:
        """Row-wise :meth:`excision_for` for a ``(R, N)`` block stack.

        Returns ``(R, K)`` taps, one filter per row; all rows share the
        block length and therefore the FIR length K and Welch geometry.
        """
        blocks = np.asarray(blocks)
        if blocks.ndim != 2:
            raise ValueError(f"blocks must be 2-D, got shape {blocks.shape}")
        n = blocks.shape[1]
        k = min(self.excision_taps, max(33, (n // 4) | 1))
        if k % 2 == 0:
            k += 1
        nperseg = min(k, n)
        _freqs, psd = welch_psd_batch(blocks, self.sample_rate, nperseg=nperseg, nfft=k)
        return excision_taps_from_psd_batch(np.fft.ifftshift(psd, axes=-1))

    # -- expected signal spectrum ----------------------------------------------

    def _expected_shape(self, signal_bandwidth: float, freqs: np.ndarray) -> np.ndarray:
        """|pulse spectrum|² of the desired signal on the in-band bins.

        White chips through the pulse filter give a transmit PSD equal to
        the pulse's energy spectrum; normalizing the measured PSD by this
        shape turns the signal's own roll-off into a flat baseline so only
        *interference* stands out.
        """
        sps = max(int(round(2.0 * self.sample_rate / signal_bandwidth)), 1)
        key = (float(signal_bandwidth), freqs.size, sps)
        shape = self._shape_cache.get(key)
        if shape is None:
            p = self.pulse.waveform(sps)
            nfft = max(freqs.size, 4 * p.size)
            spec = np.fft.fftshift(np.abs(np.fft.fft(p, nfft)) ** 2)
            grid = np.fft.fftshift(np.fft.fftfreq(nfft, d=1.0 / self.sample_rate))
            shape = np.interp(freqs, grid, spec)
            shape = np.maximum(shape, 1e-6 * shape.max())
            self._shape_cache[key] = shape
        return shape

    # -- the decision ----------------------------------------------------------

    def decide(self, received: np.ndarray, signal_bandwidth: float) -> FilterDecision:
        """Classify the interference in a block and configure the filter.

        The one-row case of :meth:`decide_batch`.
        """
        x = as_complex_array(received, "received")
        return self.decide_batch(x[None], signal_bandwidth)[0]

    def decide_batch(self, blocks: np.ndarray, signal_bandwidth: float) -> list[FilterDecision]:
        """Classify the interference in each row of an ``(R, N)`` block stack.

        All rows share the hop bandwidth and the block length (callers
        group hop segments by both), so the Welch geometry, the in-band
        mask, the expected signal shape, and the estimation-noise margin
        are common across the batch.  Entry ``i`` of the returned list
        depends on row ``i`` alone: the PSD, occupancy and quantile
        reductions run row by row, and the excision filters for the rows
        that need one are designed through the batched eq.-3 path.
        """
        x = np.asarray(blocks)
        if x.ndim != 2:
            raise ValueError(f"blocks must be 2-D, got shape {x.shape}")
        x = x.astype(np.complex128, copy=False)
        ensure_positive(signal_bandwidth, "signal_bandwidth")
        rows, n = x.shape
        if n < 16:
            return [
                FilterDecision(
                    kind=FilterKind.NONE,
                    taps=None,
                    occupied_bandwidth=0.0,
                    peak_over_floor_db=0.0,
                    signal_bandwidth=float(signal_bandwidth),
                )
                for _ in range(rows)
            ]

        nperseg = min(self.nperseg, n)
        freqs, psd = welch_psd_batch(x, self.sample_rate, nperseg=nperseg)
        occupied = occupied_bandwidth_batch(freqs, psd, fraction=0.99)
        mask = np.abs(freqs) <= signal_bandwidth / 2.0
        in_band = psd[:, mask]
        # The Welch estimate's own variance scales as 1/averages: on a
        # short block the peak-to-floor ratio of a *clean* spectrum can
        # reach 10+ dB purely from estimation noise, so the excision
        # threshold must rise when few segments were averaged.
        step = max(nperseg - nperseg // 2, 1)
        n_averages = max(1, (n - nperseg) // step + 1)
        effective_margin_db = self.peak_margin_db + 10.0 / np.sqrt(n_averages)
        if in_band.shape[1] >= 4:
            # Anomaly spectrum: measured PSD divided by the expected
            # signal shape.  Signal-only blocks are flat here; a
            # narrow-band jammer lifts a minority of bins far above the
            # low-quantile floor.
            ratio = in_band / self._expected_shape(signal_bandwidth, freqs)[mask]
            floor = np.quantile(ratio, 0.25, axis=-1)
            peak = ratio.max(axis=-1)
            hot_fraction = np.mean(
                ratio > floor[:, None] * db_to_linear(effective_margin_db), axis=-1
            )
        else:
            floor = np.median(psd, axis=-1)
            peak = in_band.max(axis=-1) if in_band.shape[1] else floor.copy()
            hot_fraction = np.zeros(rows)
        safe_ratio = np.divide(peak, floor, out=np.ones_like(peak), where=floor > 0)
        peak_over_floor_db = np.where(floor > 0, linear_to_db(safe_ratio), 0.0)

        narrow_jammer = (
            (peak_over_floor_db > effective_margin_db)
            & (hot_fraction > 0.0)
            & (hot_fraction < self.max_hot_fraction)
        )
        wide = (occupied > self.wide_ratio * signal_bandwidth) & ~narrow_jammer

        excision_rows = np.flatnonzero(narrow_jammer)
        excision_taps = (
            self.excision_for_batch(x[excision_rows]) if excision_rows.size else None
        )
        excision_slot = {int(r): j for j, r in enumerate(excision_rows)}
        lowpass_taps_shared: np.ndarray | None = None

        decisions: list[FilterDecision] = []
        for i in range(rows):
            if narrow_jammer[i]:
                kind = FilterKind.EXCISION
                taps = excision_taps[excision_slot[i]]
            elif wide[i]:
                if lowpass_taps_shared is None:
                    lowpass_taps_shared = self.lowpass_for(signal_bandwidth, n)
                kind = FilterKind.LOWPASS
                taps = lowpass_taps_shared
            else:
                kind = FilterKind.NONE
                taps = None
            decisions.append(
                FilterDecision(
                    kind=kind,
                    taps=taps,
                    occupied_bandwidth=float(occupied[i]),
                    peak_over_floor_db=float(peak_over_floor_db[i]),
                    signal_bandwidth=float(signal_bandwidth),
                )
            )
        return decisions
