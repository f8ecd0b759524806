"""The BHSS transmitter (Section 3, Figure 4).

The conventional DSSS chain — symbols → PN spreading → pulse shaping — is
kept intact; the single change that makes it BHSS is that the pulse shape
duration is rescaled per hop (``g(t) → g(αt)``), which by eq. (1)
compresses the spectrum by the same factor.  The hop factor sequence comes
from the seeded :class:`~repro.hopping.schedule.HopSchedule`, so the
bandwidth changes *during* the packet, faster than a reactive jammer's
reaction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TypeVar

import numpy as np

from repro.core.config import BHSSConfig
from repro.hopping.schedule import HopSegment

__all__ = ["BHSSTransmitter", "TransmittedPacket"]

T = TypeVar("T")

#: Samples per stacked call.  The batched link groups packets whose
#: captures fit in this many samples, and grouped segments are processed in
#: chunks of at most this many samples (each at least one row), so captures,
#: a chunk's arrays and FFT temporaries are bounded in bytes: a hop
#: stretched 64x stacks 64x fewer rows than a wide one.  Row-wise results
#: do not depend on the chunking, so any budget is bit-identical.
CHUNK_SAMPLES = 1 << 18


def row_chunks(members: list[T], segment_samples: int) -> list[list[T]]:
    """``members``, rows of ``segment_samples`` samples each, in stacked chunks."""
    rows = max(1, CHUNK_SAMPLES // segment_samples)
    return [members[i : i + rows] for i in range(0, len(members), rows)]


def budget_groups(lengths: Iterable[int], max_rows: int, first: int = 0) -> Iterator[range]:
    """Contiguous index ranges over ``lengths``, in order, one per stacked call.

    A range takes rows while their lengths sum to at most
    :data:`CHUNK_SAMPLES`, up to ``max_rows`` rows (a cap below 1 counts
    as 1); a row longer than the budget forms a range of its own.  Indices
    count from ``first``.
    """
    max_rows = max(1, max_rows)
    start = stop = first
    filled = 0
    for length in lengths:
        if stop > start and (stop - start == max_rows or filled + length > CHUNK_SAMPLES):
            yield range(start, stop)
            start, filled = stop, 0
        filled += length
        stop += 1
    if stop > start:
        yield range(start, stop)


@dataclass(frozen=True)
class TransmittedPacket:
    """A transmitted waveform plus everything the analysis layer needs.

    Attributes
    ----------
    waveform:
        Complex baseband samples, unit average power.
    symbols:
        The frame's 4-bit symbols (ground truth for BER accounting),
        *before* any FEC expansion.
    air_symbols:
        The symbols actually spread on air (equal to ``symbols`` for the
        uncoded system; longer when a codec is configured).
    segments:
        The hop segments (symbol ranges, bandwidths, stretch factors).
    sample_counts:
        Waveform samples per hop segment (aligned with ``segments``).
    payload:
        The payload bytes carried.
    packet_index:
        Sequence number (selects the per-packet hop substream).
    """

    waveform: np.ndarray
    symbols: np.ndarray
    air_symbols: np.ndarray
    segments: tuple[HopSegment, ...]
    sample_counts: tuple[int, ...]
    payload: bytes
    packet_index: int

    @property
    def num_samples(self) -> int:
        """Total waveform length in samples."""
        return int(self.waveform.size)

    def bandwidth_profile(self) -> list[tuple[int, float]]:
        """``(num_samples, bandwidth)`` pairs — what a sensing jammer observes."""
        return [
            (count, seg.bandwidth)
            for count, seg in zip(self.sample_counts, self.segments)
        ]

    @property
    def duration_symbols(self) -> int:
        """Frame length in symbols."""
        return int(self.symbols.size)


class BHSSTransmitter:
    """Builds BHSS packets from payload bytes.

    With a ``fixed_bandwidth`` config this is exactly a conventional DSSS
    transmitter (one hop covering the whole packet), which is how the
    baselines are generated "using the same code base as BHSS but with
    bandwidth hopping disabled" (Section 6.4).
    """

    def __init__(self, config: BHSSConfig) -> None:
        self.config = config
        self.schedule = config.build_schedule()
        self.modem = config.build_modem()
        self.modulator = config.build_modulator()
        self.coder = config.build_frame_coder()

    def transmit(self, payload: bytes | None = None, packet_index: int = 0) -> TransmittedPacket:
        """Encode, spread, and modulate one packet.

        ``payload`` defaults to a deterministic pattern of the configured
        size (packet index baked in, so consecutive packets differ).  The
        one-packet case of :meth:`transmit_batch`.
        """
        return self.transmit_batch([packet_index], payload)[0]

    def hop_plan(
        self, num_air_symbols: int, packet_index: int
    ) -> tuple[tuple[HopSegment, ...], list[int]]:
        """Packet ``packet_index``'s hop segments and waveform samples per segment.

        Known before synthesis: :meth:`transmit_batch` places segments by
        these counts, and ``LinkSimulator`` sizes its stacked packet groups
        from their sums, so planned and synthesized lengths agree.
        """
        segments = tuple(self.schedule.segments(num_air_symbols, packet_index))
        cps = self.config.chips_per_symbol
        return segments, [seg.num_symbols * (cps // 2) * seg.sps for seg in segments]

    def transmit_batch(
        self, packet_indices: Sequence[int], payload: bytes | None = None
    ) -> list["TransmittedPacket"]:
        """Encode, spread, and modulate one packet per index in ``packet_indices``.

        Each packet depends on its own index alone.  Per-(packet,
        segment) work is grouped by ``(num_symbols, sps)`` only — the chip
        offset of a segment is a per-row scramble-phase input, not a
        shape — and each group is spread and pulse-shaped as one stacked
        operation through
        :meth:`~repro.spread.dsss.SixteenAryDSSS.spread_batch` and
        :meth:`~repro.phy.qpsk.ChipModulator.modulate_batch`.  With the
        paper's eight-bandwidth set this collapses a whole packet chunk
        into roughly one stacked call per distinct stretch factor.
        """
        indices = [int(k) for k in packet_indices]
        if not indices:
            return []
        cps = self.config.chips_per_symbol
        num_air = self.config.air_symbols(None if payload is None else len(payload))

        frames: list[np.ndarray] = []
        air_symbols: list[np.ndarray] = []
        payloads: list[bytes] = []
        segment_lists: list[tuple[HopSegment, ...]] = []
        counts: list[list[int]] = []
        offsets: list[list[int]] = []
        waveforms: list[np.ndarray] = []
        for k in indices:
            if payload is None:
                n = self.config.payload_bytes
                pkt_payload = bytes((k + i) & 0xFF for i in range(n))
            else:
                pkt_payload = payload
            frame = self.config.frame_format.build(pkt_payload)
            symbols = self.coder.encode(frame)
            segments, seg_counts = self.hop_plan(num_air, k)
            seg_offsets = np.concatenate(([0], np.cumsum(seg_counts))).astype(int)
            frames.append(frame)
            air_symbols.append(symbols)
            payloads.append(bytes(pkt_payload))
            segment_lists.append(segments)
            counts.append(seg_counts)
            offsets.append(list(seg_offsets[:-1]))
            waveforms.append(np.empty(int(seg_offsets[-1]), dtype=complex))

        # Group (packet, segment) pairs that share segment length and
        # stretch factor; each group runs as one stacked spread + modulate
        # with per-row scramble phases.
        groups: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        for p, segments in enumerate(segment_lists):
            for s, seg in enumerate(segments):
                key = (seg.num_symbols, seg.sps)
                groups.setdefault(key, []).append((p, s, seg.start_symbol))
        chunked = (
            (key, members)
            for key, all_members in groups.items()
            for members in row_chunks(all_members, key[0] * (cps // 2) * key[1])
        )
        for (num_symbols, sps), members in chunked:
            sym_stack = np.stack(
                [air_symbols[p][start : start + num_symbols] for p, _s, start in members]
            )
            starts = np.fromiter((start * cps for _p, _s, start in members), dtype=int)
            chips = self.modem.spread_batch(sym_stack, start_chip=starts)
            waves = self.modulator.modulate_batch(chips, sps)
            for row, (p, s, _start) in enumerate(members):
                off = offsets[p][s]
                waveforms[p][off : off + counts[p][s]] = waves[row]

        return [
            TransmittedPacket(
                waveform=waveforms[p],
                symbols=frames[p],
                air_symbols=air_symbols[p],
                segments=segment_lists[p],
                sample_counts=tuple(counts[p]),
                payload=payloads[p],
                packet_index=indices[p],
            )
            for p in range(len(indices))
        ]
