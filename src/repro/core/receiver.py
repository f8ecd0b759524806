"""The BHSS receiver (Section 4, Figure 6).

Per hop segment (whose bandwidth and duration the receiver *derives from
the shared seed*, never from the air — Section 4.1):

1. the control logic estimates the jammer spectrally and selects the
   low-pass / excision / no filter (Section 4.2);
2. the filter runs before anything else, so the jammer cannot disturb the
   later stages;
3. the matched filter (matched to the current stretch factor α) recovers
   soft chips;
4. the correlator bank despreads chips to symbols.

Frame parsing and CRC checking then decide packet acceptance.  The same
class with ``config.filtering == False`` is the conventional SS receiver
used as the paper's baseline.

:class:`AcquiringReceiver` adds the front-end synchronization of the
paper's implementation (preamble detection, carrier-frequency/phase
estimation, Costas-style fine tracking) for use on impaired channels where
the packet position and oscillator offsets are unknown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.config import BHSSConfig
from repro.core.control import ControlLogic, FilterDecision, FilterKind
from repro.core.transmitter import row_chunks
# ``apply_fir`` is re-exported: ``bench/tracing.py`` attributes the serial
# FIR layer through this module's name for it.
from repro.dsp.fir import apply_fir, apply_fir_batch  # noqa: F401
from repro.dsp.mixing import frequency_shift, phase_rotate
from repro.phy.frame import ParsedFrame
from repro.phy.qpsk import binary_chips_to_complex, complex_chips_to_binary
from repro.sync.costas import CostasLoop
from repro.sync.preamble import detect_preamble_noncoherent, estimate_cfo_from_preamble
from repro.utils.validation import as_complex_array

__all__ = ["BHSSReceiver", "ReceiveResult", "AcquiringReceiver", "AcquisitionResult"]


@dataclass(frozen=True)
class ReceiveResult:
    """Everything the receiver recovered from one packet.

    Attributes
    ----------
    frame:
        The parsed frame (payload + CRC verdict).
    symbols:
        Decided 4-bit symbols for the whole frame.
    decisions:
        Per-hop-segment filter decisions (empty when filtering is off).
    quality:
        Mean normalized despreading correlation (1.0 = clean).
    """

    frame: ParsedFrame
    symbols: np.ndarray
    decisions: tuple[FilterDecision, ...]
    quality: float

    @property
    def accepted(self) -> bool:
        """The paper's packet-success criterion (structure + CRC)."""
        return self.frame.accepted

    @property
    def payload(self) -> bytes:
        """Recovered payload bytes (empty if the frame failed)."""
        return self.frame.payload

    def filter_usage(self) -> dict[str, int]:
        """Histogram of filter kinds chosen across the packet's segments."""
        counts: dict[str, int] = {k.value: 0 for k in FilterKind}
        for d in self.decisions:
            counts[d.kind.value] += 1
        return counts


class BHSSReceiver:
    """Hop-synchronized, filtering BHSS receiver."""

    def __init__(self, config: BHSSConfig, control: ControlLogic | None = None) -> None:
        self.config = config
        self.schedule = config.build_schedule()
        self.modem = config.build_modem()
        self.modulator = config.build_modulator()
        self.control = control or ControlLogic(
            sample_rate=config.sample_rate,
            excision_taps=config.excision_taps,
            lpf_transition_fraction=config.lpf_transition_fraction,
            pulse=config.pulse,
        )
        self.coder = config.build_frame_coder()

    def receive(
        self,
        waveform: np.ndarray,
        payload_len: int | None = None,
        packet_index: int = 0,
        phase_track: bool = False,
    ) -> ReceiveResult:
        """Demodulate one packet whose start is sample-aligned.

        The one-capture case of :meth:`receive_batch`.  ``payload_len``
        sets the expected frame size (defaults to the configured payload
        size — in a real system the length field would be decoded first;
        the fixed-size assumption only pins the frame geometry, not the
        content).  ``phase_track`` enables a chip-rate Costas loop between
        matched filter and despreader, for waveforms with residual carrier
        error.
        """
        return self.receive_batch([waveform], payload_len, [packet_index], phase_track)[0]

    def receive_batch(
        self,
        waveforms: Sequence[np.ndarray],
        payload_len: int | None = None,
        packet_indices: Sequence[int] | None = None,
        phase_track: bool = False,
    ) -> list[ReceiveResult]:
        """Demodulate a sequence of sample-aligned captured packets.

        ``waveforms`` is a sequence of 1-D complex captures (lengths may
        differ — a bandwidth-hopped packet's duration depends on its hop
        draw); ``packet_indices`` aligns each capture with its hop
        substream (defaults to ``0, 1, 2, ...``).  Result ``i`` depends on
        capture ``i`` alone: it is bit-identical to ``receive(waveforms[i],
        payload_len, packet_indices[i], phase_track)``.

        Complete (packet, segment) blocks are grouped by ``(num_symbols,
        sps, bandwidth)`` — the segment's chip offset is a per-row
        scramble-phase input, not a shape — and each group goes through
        one stacked decide → filter → matched-filter → despread chain.
        Segments a truncated capture does not cover decode as zero symbols
        of zero quality, so the packet's mean despreading quality reflects
        the loss (averaging only the surviving segments would read
        biased-high).

        ``phase_track=True`` runs the chip-rate Costas loop between the
        matched filter and the despreader: one loop per packet walks that
        packet's complete segments in schedule order, so the loop state
        carries from segment to segment.
        """
        waveforms = list(waveforms)
        if packet_indices is None:
            packet_indices = range(len(waveforms))
        packet_indices = [int(i) for i in packet_indices]
        if len(packet_indices) != len(waveforms):
            raise ValueError(
                f"got {len(waveforms)} waveforms but {len(packet_indices)} packet indices"
            )
        if not waveforms:
            return []

        xs = [as_complex_array(w, "waveform") for w in waveforms]
        n_payload = self.config.payload_bytes if payload_len is None else payload_len
        frame_symbols = self.config.frame_format.frame_symbols(n_payload)
        num_symbols = self.coder.coded_symbols(frame_symbols)
        cps = self.config.chips_per_symbol
        num_packets = len(xs)

        segment_lists = [self.schedule.segments(num_symbols, k) for k in packet_indices]
        all_symbols = np.empty((num_packets, num_symbols), dtype=np.int64)
        seg_quality: list[list[np.ndarray | None]] = [[None] * len(s) for s in segment_lists]
        seg_decision: list[list[FilterDecision | None]] = [
            [None] * len(s) for s in segment_lists
        ]

        # Group complete (packet, segment) blocks by segment length,
        # stretch factor, and hop bandwidth; blocks past the end of a
        # truncated capture decode as zero symbols of zero quality.
        groups: dict[tuple[int, int, float], list[tuple[int, int, int, int]]] = {}
        for p, segments in enumerate(segment_lists):
            pos = 0
            for s, seg in enumerate(segments):
                n_samples = seg.num_symbols * (cps // 2) * seg.sps
                if pos + n_samples > xs[p].size:
                    all_symbols[p, seg.start_symbol : seg.start_symbol + seg.num_symbols] = 0
                    seg_quality[p][s] = np.zeros(seg.num_symbols)
                else:
                    key = (seg.num_symbols, seg.sps, seg.bandwidth)
                    groups.setdefault(key, []).append((p, s, pos, seg.start_symbol))
                pos += n_samples

        chunks = [
            (key, members)
            for key, all_members in groups.items()
            for members in row_chunks(all_members, key[0] * (cps // 2) * key[1])
        ]
        softs = [
            self._soft_chips(xs, key, members, seg_decision) for key, members in chunks
        ]
        if phase_track:
            self._track_phase(chunks, softs, num_packets)
        for ((seg_symbols, _sps, _bandwidth), members), soft in zip(chunks, softs):
            starts = np.fromiter((start * cps for _p, _s, _off, start in members), dtype=int)
            result = self.modem.despread_batch(soft, start_chip=starts)
            for row, (p, s, _off, start) in enumerate(members):
                all_symbols[p, start : start + seg_symbols] = result.symbols[row]
                seg_quality[p][s] = result.quality[row]

        out: list[ReceiveResult] = []
        for p in range(num_packets):
            decoded = self.coder.decode(all_symbols[p], frame_symbols)
            frame = self.config.frame_format.parse(decoded)
            quality_parts = [q for q in seg_quality[p] if q is not None]
            qualities = (
                np.concatenate(quality_parts) if quality_parts else np.zeros(0)
            )
            quality = float(np.mean(qualities)) if qualities.size else 0.0
            out.append(
                ReceiveResult(
                    frame=frame,
                    symbols=decoded,
                    decisions=tuple(d for d in seg_decision[p] if d is not None),
                    quality=quality,
                )
            )
        return out

    def _soft_chips(
        self,
        xs: list[np.ndarray],
        key: tuple[int, int, float],
        members: list[tuple[int, int, int, int]],
        seg_decision: list[list[FilterDecision | None]],
    ) -> np.ndarray:
        """Decide, filter and matched-filter one group of hop segments.

        Returns the ``(rows, chips)`` soft chips; the filter decisions land
        in ``seg_decision``.  The captures in ``xs`` are never written.
        """
        seg_symbols, sps, bandwidth = key
        cps = self.config.chips_per_symbol
        n_samples = seg_symbols * (cps // 2) * sps
        if len(members) == 1:
            p, _s, off, _start = members[0]
            blocks = xs[p][None, off : off + n_samples]  # a view, not a copy
        else:
            blocks = np.stack([xs[p][off : off + n_samples] for p, _s, off, _start in members])
        if self.config.filtering:
            decisions = self.control.decide_batch(blocks, bandwidth)
            for row, (p, s, _off, _start) in enumerate(members):
                seg_decision[p][s] = decisions[row]
            for kind in (FilterKind.LOWPASS, FilterKind.EXCISION):
                rows = [i for i, d in enumerate(decisions) if d.kind is kind]
                if not rows:
                    continue
                if kind is FilterKind.LOWPASS:
                    taps = decisions[rows[0]].taps  # one design per group
                else:
                    taps = np.stack([decisions[i].taps for i in rows])
                assert taps is not None  # low-pass and excision decisions carry taps
                if len(rows) == len(blocks):
                    # The whole group takes this filter: no gather/scatter
                    # copies, and a one-row view of a capture stays unwritten.
                    blocks = apply_fir_batch(blocks, taps, mode="compensated")
                else:
                    blocks[rows] = apply_fir_batch(blocks[rows], taps, mode="compensated")
        return self.modulator.demodulate_batch(
            blocks, sps, num_chips=seg_symbols * cps, matched=self.config.matched_filter
        )

    @staticmethod
    def _track_phase(
        chunks: list[tuple[tuple[int, int, float], list[tuple[int, int, int, int]]]],
        softs: list[np.ndarray],
        num_packets: int,
    ) -> None:
        """Run one chip-rate Costas loop per packet over its soft chips, in place.

        Each packet's complete segments are visited in schedule order, so
        the loop's phase and frequency state carries across segments.
        """
        where = {
            (p, s): (chunk, row)
            for chunk, (_key, members) in enumerate(chunks)
            for row, (p, s, _off, _start) in enumerate(members)
        }
        loops = [CostasLoop(loop_bandwidth=0.02) for _ in range(num_packets)]
        for p, s in sorted(where):
            chunk, row = where[p, s]
            tracked = loops[p].process(binary_chips_to_complex(softs[chunk][row]))
            softs[chunk][row] = complex_chips_to_binary(tracked.corrected)


@dataclass(frozen=True)
class AcquisitionResult:
    """Synchronization estimates recovered during acquisition."""

    start_sample: int
    cfo_hz: float
    phase_rad: float
    preamble_peak: float
    result: ReceiveResult


class AcquiringReceiver:
    """Packet acquisition for impaired channels.

    Finds the packet with a preamble correlator, estimates and removes the
    carrier-frequency offset (phase-slope method) and the carrier phase
    (correlation angle), then hands off to the hop-synchronized
    :class:`BHSSReceiver` with chip-rate Costas tracking enabled.
    """

    def __init__(self, config: BHSSConfig, threshold: float = 0.35) -> None:
        if not 0 < threshold <= 1:
            raise ValueError("threshold must be in (0, 1]")
        self.config = config
        self.threshold = threshold
        self.inner = BHSSReceiver(config)
        self._tx = None  # lazy reference transmitter for preamble waveforms

    def _reference_preamble(self, packet_index: int, payload_len: int) -> np.ndarray:
        """The known transmit waveform of the preamble + SFD region."""
        from repro.core.transmitter import BHSSTransmitter

        if self._tx is None:
            self._tx = BHSSTransmitter(self.config)
        packet = self._tx.transmit(bytes(payload_len), packet_index)
        # Preamble + SFD occupy the first (preamble_symbols + 2) symbols.
        sync_symbols = self.config.frame_format.preamble_symbols + 2
        cps = self.config.chips_per_symbol
        count = 0
        for seg, n_samp in zip(packet.segments, packet.sample_counts):
            if seg.start_symbol >= sync_symbols:
                break
            count += n_samp
        return packet.waveform[:count]

    def receive(
        self,
        waveform: np.ndarray,
        payload_len: int | None = None,
        packet_index: int = 0,
    ) -> AcquisitionResult | None:
        """Acquire and decode a packet from an unaligned waveform.

        Returns ``None`` when no preamble clears the detection threshold.
        """
        x = as_complex_array(waveform, "waveform")
        n_payload = self.config.payload_bytes if payload_len is None else payload_len
        ref = self._reference_preamble(packet_index, n_payload)
        det = detect_preamble_noncoherent(x, ref, threshold=self.threshold)
        if not det.found:
            return None
        start = det.start
        aligned = x[start:]
        if aligned.size < ref.size:
            return None
        cfo = estimate_cfo_from_preamble(aligned[: ref.size], ref, self.config.sample_rate)
        corrected = frequency_shift(aligned, -cfo, self.config.sample_rate)
        # residual constant phase from the preamble correlation angle
        phase = float(np.angle(np.vdot(ref, corrected[: ref.size])))
        corrected = phase_rotate(corrected, -phase)
        result = self.inner.receive(
            corrected, payload_len=n_payload, packet_index=packet_index, phase_track=True
        )
        return AcquisitionResult(
            start_sample=int(start),
            cfo_hz=float(cfo),
            phase_rad=phase,
            preamble_peak=det.peak,
            result=result,
        )
