"""Explicit TX/RX stages of a BHSS link.

:class:`LinkSimulator` historically ran the whole chain — framing,
spreading, pulse shaping, channel, jammer, medium, front end, receive,
scoring — as one monolithic method.  This module splits the chain into
its two reusable halves:

``TxPath``
    Waveform synthesis: payload → frame → spread chips → shaped hop
    segments → propagation channel.  Fully deterministic (it consumes no
    randomness), which is what lets network-scale runs re-synthesize any
    link's transmission as cross-link interference without perturbing
    the victim link's RNG stream.
``RxPath``
    Demodulation: front-end impairments → hop-synchronized receive →
    truth scoring against the transmitted packet.

The per-packet RNG contract lives *between* the paths and is unchanged:
packet ``k`` draws from ``child_rng(seed, "packet", str(k))``, the
jammer waveform is drawn first (even at ``sjr_db=+inf``, where it is not
injected), then the medium noise.  :func:`draw_jammer_wave` packages
that draw so the link's packet driver (which network links also run)
and the session slot loop share one implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.channel.impairments import Impairments
from repro.core.config import BHSSConfig
from repro.core.receiver import BHSSReceiver, ReceiveResult
from repro.core.transmitter import BHSSTransmitter, TransmittedPacket
from repro.jamming.adaptive.base import VictimAwareJammer
from repro.jamming.base import Jammer, NoJammer
from repro.jamming.reactive import MatchedReactiveJammer
from repro.phy.bits import hamming_distance_bits

__all__ = ["TxPath", "RxPath", "PacketOutcome", "draw_jammer_wave"]

#: bits set in each 4-bit nibble value — the vectorized popcount table.
_NIBBLE_POPCOUNT = (
    np.unpackbits(np.arange(16, dtype=np.uint8)[:, None], axis=1).sum(axis=1).astype(np.int64)
)


@dataclass(frozen=True)
class PacketOutcome:
    """Result of one simulated packet."""

    accepted: bool
    bit_errors: int
    total_bits: int
    receive: ReceiveResult

    @property
    def bit_error_rate(self) -> float:
        """Payload-bit error rate of this packet."""
        return self.bit_errors / self.total_bits if self.total_bits else 0.0


class TxPath:
    """The synthesis half of a link: transmitter plus propagation channel.

    Parameters
    ----------
    config:
        The link configuration; the transmitter (hop schedule, scrambler,
        spreader) derives from it.
    channel:
        Optional propagation channel (e.g.
        :class:`repro.channel.MultipathChannel`) applied to the signal
        path.  The paper's coax testbed corresponds to ``None``.
    """

    def __init__(self, config: BHSSConfig, channel: Any = None) -> None:
        self.config = config
        self.transmitter = BHSSTransmitter(config)
        self.channel = channel

    def synthesize(
        self, packet_index: int = 0, payload: bytes | None = None
    ) -> TransmittedPacket:
        """Build packet ``packet_index``'s frame and baseband waveform."""
        return self.transmitter.transmit(payload, packet_index)

    def propagate(self, waveform: np.ndarray) -> np.ndarray:
        """Apply the propagation channel (identity when unset)."""
        if self.channel is not None:
            return np.asarray(self.channel.apply(waveform))
        return waveform

    def emit(
        self, packet_index: int = 0, payload: bytes | None = None
    ) -> tuple[TransmittedPacket, np.ndarray]:
        """Synthesize and propagate one packet: ``(truth, air waveform)``."""
        packet = self.synthesize(packet_index, payload)
        return packet, self.propagate(packet.waveform)

    def data_rate_bps(self) -> float:
        """Average payload data rate of the configured link in bits/second.

        Computed from the expected hop bandwidth: the PHY carries B/8
        payload-plus-overhead bits per second; the frame overhead fraction
        scales it down to goodput units.
        """
        schedule = self.transmitter.schedule
        bands = self.config.bandwidth_set.as_array()
        if self.config.fixed_bandwidth is not None:
            mean_bw = float(self.config.fixed_bandwidth)
        else:
            mean_bw = float(np.sum(bands * schedule.hop_weights))
        gross = mean_bw / 8.0
        n_payload_sym = 2 * self.config.payload_bytes
        n_frame_sym = self.config.frame_symbols()
        return gross * n_payload_sym / n_frame_sym


class RxPath:
    """The demodulation half of a link: front end, receiver, and scoring.

    Parameters
    ----------
    config:
        The shared link configuration (same seed as the TX side = same
        hop schedule and scrambler).
    impairments:
        Optional front-end impairments applied to the received waveform;
        a non-ideal front end switches the receiver into phase tracking.
    """

    def __init__(self, config: BHSSConfig, impairments: Impairments | None = None) -> None:
        self.config = config
        self.receiver = BHSSReceiver(config)
        self.impairments = impairments

    @property
    def needs_phase_tracking(self) -> bool:
        """Whether the front end forces the phase-tracking receive path."""
        return self.impairments is not None and not self.impairments.is_ideal

    def front_end(self, samples: np.ndarray) -> np.ndarray:
        """Apply the configured front-end impairments (identity if ideal)."""
        if self.impairments is not None and not self.impairments.is_ideal:
            return np.asarray(self.impairments.apply(samples, self.config.sample_rate))
        return samples

    def demodulate(
        self, samples: np.ndarray, payload_len: int, packet_index: int
    ) -> ReceiveResult:
        """Front end + hop-synchronized receive of one packet's samples."""
        received = self.front_end(samples)
        return self.receiver.receive(
            received,
            payload_len=payload_len,
            packet_index=packet_index,
            phase_track=self.needs_phase_tracking,
        )

    def receive_packet(
        self, packet: TransmittedPacket, samples: np.ndarray, packet_index: int
    ) -> PacketOutcome:
        """Demodulate ``samples`` and score them against ``packet``."""
        result = self.demodulate(samples, len(packet.payload), packet_index)
        return self.score(packet, result)

    def score(self, packet: TransmittedPacket, result: ReceiveResult) -> PacketOutcome:
        """Compare one receive result against the transmitted truth."""
        if result.accepted and result.payload == packet.payload:
            bit_errors = 0
            accepted = True
        else:
            accepted = False
            if len(result.payload) == len(packet.payload) and result.payload:
                bit_errors = int(hamming_distance_bits(result.payload, packet.payload))
            else:
                # Frame-level failure: score the payload region symbol by
                # symbol so BER remains meaningful under heavy jamming.
                bit_errors = self.symbol_region_bit_errors(packet.symbols, result.symbols)
        total_bits = 8 * len(packet.payload)
        return PacketOutcome(
            accepted=accepted,
            bit_errors=min(bit_errors, total_bits),
            total_bits=total_bits,
            receive=result,
        )

    def symbol_region_bit_errors(
        self, sent_symbols: np.ndarray, got_symbols: np.ndarray
    ) -> int:
        """Bit errors across the payload symbol region (nibble XOR popcount).

        Vectorized via a 16-entry ``np.unpackbits`` lookup table —
        bit-identical to summing ``bin(d).count("1")`` per symbol, since
        both count set bits of the same 4-bit differences.
        """
        header = self.config.frame_format.header_symbols
        end = min(sent_symbols.size, got_symbols.size) - 4  # exclude CRC symbols
        if end <= header:
            return 0
        diff = (
            sent_symbols[header:end].astype(np.int64)
            ^ got_symbols[header:end].astype(np.int64)
        ) & 0xF
        return int(_NIBBLE_POPCOUNT[diff].sum())


def draw_jammer_wave(
    jammer: Jammer | None,
    packet: TransmittedPacket,
    sjr_db: float,
    gen: np.random.Generator,
) -> np.ndarray | None:
    """Draw the jammer's waveform for one packet, or ``None`` if not injected.

    This is the shared RNG-contract helper of every driver (link packet
    groups, single packets, session slots): a sensing jammer (reactive
    matched, or any :class:`~repro.jamming.adaptive.base.VictimAwareJammer`)
    observes the packet first, and the waveform is drawn even at
    ``sjr_db=+inf``, where it is not injected — the draw keeps the shared
    RNG stream (and any jammer-internal state) advancing exactly as in a
    finite-SJR run, so an SJR sweep that includes inf as its unjammed
    baseline sees the same noise realization at every point.
    """
    if jammer is None or isinstance(jammer, NoJammer):
        return None
    if isinstance(jammer, MatchedReactiveJammer):
        jammer.observe(packet.bandwidth_profile())
    elif isinstance(jammer, VictimAwareJammer):
        jammer.observe_victim(packet.waveform, packet.bandwidth_profile())
    wave = jammer.waveform(packet.num_samples, gen)
    if np.isfinite(sjr_db):
        return np.asarray(wave)
    return None
