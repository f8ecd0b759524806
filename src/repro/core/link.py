"""End-to-end link simulation: transmitter → jammed AWGN medium → receiver.

This is the software equivalent of the paper's Figure-12 testbed: a BHSS
transmitter and receiver joined by the calibrated medium, with any of the
jammer models injected at a configured signal-to-jammer ratio.  The
statistics it reports — packet error rate against the CRC, bit error rate
against the known payload, throughput — are the quantities every
experimental figure of Section 6 is built from.

The synthesis and demodulation halves of the chain live in
:mod:`repro.core.paths` (:class:`TxPath` / :class:`RxPath`);
:class:`LinkSimulator` composes them around the medium and owns the
batching, caching, and fan-out policy.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.channel.impairments import Impairments
from repro.channel.link_medium import Medium, MediumSource
from repro.core.config import BHSSConfig
from repro.core.paths import PacketOutcome, RxPath, TxPath, draw_jammer_wave
from repro.core.receiver import BHSSReceiver
from repro.core.transmitter import BHSSTransmitter, TransmittedPacket, budget_groups
from repro.jamming.base import Jammer
from repro.runtime import ParallelExecutor, ResultCache, canonical, resolve_batch, resolve_cache
from repro.utils.rng import child_rng, make_rng

__all__ = ["LinkSimulator", "PacketOutcome", "LinkStats"]

#: ``(accepted, bit_errors, total_bits, filter usage)`` of a packet chunk.
_Totals = tuple[int, int, int, dict[str, int]]

#: Packet index -> extra medium sources of its capture (network neighbours).
SourceHook = Callable[[int], list[MediumSource]]

#: The waveform a packet keeps once its capture is drawn.
_DROPPED = np.zeros(0, dtype=complex)


def _order_free(jammer: Jammer | None) -> bool:
    """Whether packets may run out of order (no stateful jammer)."""
    return jammer is None or not jammer.is_stateful


def _fold(parts: Iterable[_Totals]) -> _Totals:
    """Sum chunk totals; filter-usage counts add per kind."""
    accepted = bit_errors = total_bits = 0
    usage: dict[str, int] = {}
    for part_accepted, part_bit_errors, part_total_bits, part_usage in parts:
        accepted += part_accepted
        bit_errors += part_bit_errors
        total_bits += part_total_bits
        for kind, count in part_usage.items():
            usage[kind] = usage.get(kind, 0) + count
    return accepted, bit_errors, total_bits, usage


def _spec_view(obj: Any) -> Any:
    """A serializable fingerprint of a link component for cache keys.

    Prefers the component's declarative spec (``spec()`` / ``to_dict()``)
    so that a link built from scenario JSON and one built in code hash to
    the same cache entry; objects without a spec (custom jammers, ad-hoc
    channels) fall back to the structural :func:`canonical` view.
    """
    if obj is None:
        return None
    for attr in ("spec", "to_dict"):
        method = getattr(obj, attr, None)
        if callable(method):
            try:
                return method()
            except NotImplementedError:
                break
    return canonical(obj)


@dataclass(frozen=True)
class LinkStats:
    """Aggregate statistics over a packet batch."""

    num_packets: int
    num_accepted: int
    total_bits: int
    bit_errors: int
    data_rate_bps: float
    filter_usage: dict

    def __post_init__(self) -> None:
        # Defensive copy: the stats must not alias the caller's counter
        # dict (frozen dataclasses are only as immutable as their fields).
        object.__setattr__(self, "filter_usage", dict(self.filter_usage))

    @property
    def packet_error_rate(self) -> float:
        """Fraction of packets whose CRC (or structure) failed."""
        if self.num_packets == 0:
            return 0.0
        return 1.0 - self.num_accepted / self.num_packets

    def to_dict(self) -> dict:
        """Flat JSON-friendly dict of counts and derived rates."""
        lo, hi = self.per_confidence_interval()
        return {
            "num_packets": self.num_packets,
            "num_accepted": self.num_accepted,
            "total_bits": self.total_bits,
            "bit_errors": self.bit_errors,
            "packet_error_rate": self.packet_error_rate,
            "per_ci_low": lo,
            "per_ci_high": hi,
            "bit_error_rate": self.bit_error_rate,
            "data_rate_bps": self.data_rate_bps,
            "throughput_bps": self.throughput_bps,
            "filter_usage": dict(self.filter_usage),
        }

    def row(self) -> dict:
        """The ``per``/``per_lo``/``per_hi``/``ber``/``throughput_bps`` result columns."""
        per_lo, per_hi = self.per_confidence_interval()
        return {
            "per": self.packet_error_rate,
            "per_lo": per_lo,
            "per_hi": per_hi,
            "ber": self.bit_error_rate,
            "throughput_bps": self.throughput_bps,
        }

    def per_confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Wilson score interval for the packet error rate.

        The PER at small packet counts carries real statistical
        uncertainty; the Wilson interval stays sane at the 0/1 edges
        (unlike the normal approximation).  ``z = 1.96`` gives 95 %.
        """
        n = self.num_packets
        if n == 0:
            return (0.0, 1.0)
        p = self.packet_error_rate
        denom = 1.0 + z * z / n
        centre = (p + z * z / (2 * n)) / denom
        half = (z / denom) * float(np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)))
        return (max(0.0, centre - half), min(1.0, centre + half))

    @property
    def bit_error_rate(self) -> float:
        """Raw payload bit error rate across all packets."""
        return self.bit_errors / self.total_bits if self.total_bits else 0.0

    @property
    def throughput_bps(self) -> float:
        """Goodput: data rate times packet success fraction (eq. 17)."""
        return self.data_rate_bps * (1.0 - self.packet_error_rate)


class LinkSimulator:
    """Runs packets through transmitter → medium (+ jammer) → receiver.

    Parameters
    ----------
    config:
        The shared link configuration; transmitter and receiver are both
        derived from it (same seed = synchronized schedule and scrambler).
    impairments:
        Optional front-end impairments applied to the received waveform.
        When set, reception goes through the acquiring/synchronizing path
        implicitly via the receiver's phase tracking; for the benchmark
        sweeps the ideal front end (the default) keeps results about the
        *filtering* mechanism, as in the paper's theory section.
    channel:
        Optional propagation channel (e.g.
        :class:`repro.channel.MultipathChannel`) applied to the *signal*
        path before the jammer and noise are superposed.  The jammer path
        stays flat — the attacker is assumed to position itself for a
        clean shot at the receiver; a faded jammer would only be weaker.
        The paper's coax testbed corresponds to ``None``.
    """

    def __init__(
        self,
        config: BHSSConfig,
        impairments: Impairments | None = None,
        channel: Any = None,
    ) -> None:
        self.config = config
        self.tx_path = TxPath(config, channel=channel)
        self.rx_path = RxPath(config, impairments=impairments)
        self.medium = Medium(config.sample_rate)

    # The component attributes predate the TxPath/RxPath split; they keep
    # working (including assignment — ablations swap the receiver) by
    # delegating to the owning path.

    @property
    def transmitter(self) -> BHSSTransmitter:
        """The synthesis path's transmitter."""
        return self.tx_path.transmitter

    @transmitter.setter
    def transmitter(self, value: BHSSTransmitter) -> None:
        self.tx_path.transmitter = value

    @property
    def receiver(self) -> BHSSReceiver:
        """The demodulation path's receiver."""
        return self.rx_path.receiver

    @receiver.setter
    def receiver(self, value: BHSSReceiver) -> None:
        self.rx_path.receiver = value

    @property
    def channel(self) -> Any:
        """The synthesis path's propagation channel (``None`` = coax)."""
        return self.tx_path.channel

    @channel.setter
    def channel(self, value: Any) -> None:
        self.tx_path.channel = value

    @property
    def impairments(self) -> Impairments | None:
        """The demodulation path's front-end impairments."""
        return self.rx_path.impairments

    @impairments.setter
    def impairments(self, value: Impairments | None) -> None:
        self.rx_path.impairments = value

    # -- single packet ----------------------------------------------------------

    def run_packet(
        self,
        snr_db: float,
        sjr_db: float = float("inf"),
        jammer: Jammer | None = None,
        packet_index: int = 0,
        rng: int | np.random.Generator | None = None,
        payload: bytes | None = None,
        jammer_delay_samples: int = 0,
    ) -> PacketOutcome:
        """Simulate one packet and compare what was decoded to the truth."""
        packet = self.tx_path.synthesize(packet_index, payload)
        samples = self._capture(packet, make_rng(rng), snr_db, sjr_db, jammer, jammer_delay_samples)
        return self.rx_path.receive_packet(packet, samples, packet_index)

    def _capture(
        self,
        packet: TransmittedPacket,
        gen: np.random.Generator,
        snr_db: float,
        sjr_db: float,
        jammer: Jammer | None,
        jammer_delay_samples: int,
        sources: "tuple[MediumSource, ...] | list[MediumSource]" = (),
    ) -> np.ndarray:
        """Draw one packet's received samples: the jammer first, then the noise.

        ``sources`` go before the jammer and consume no randomness.
        """
        tx_wave = self.tx_path.propagate(packet.waveform)
        jam_wave = draw_jammer_wave(jammer, packet, sjr_db, gen)
        return self.medium.combine(
            tx_wave,
            snr_db=snr_db,
            jammer=jam_wave,
            sjr_db=sjr_db,
            jammer_delay_samples=jammer_delay_samples,
            rng=gen,
            sources=sources,
        ).samples

    # -- batches ---------------------------------------------------------------

    def run_packets(
        self,
        num_packets: int,
        snr_db: float,
        sjr_db: float = float("inf"),
        jammer: Jammer | None = None,
        seed: int = 0,
        payload: bytes | None = None,
        jammer_delay_samples: int = 0,
        executor: ParallelExecutor | None = None,
        cache: "ResultCache | str | bool | None" = None,
    ) -> LinkStats:
        """Simulate a batch of packets and aggregate the statistics.

        Every packet ``k`` draws from the independent stream
        ``child_rng(seed, "packet", str(k))``, so the batch can be split
        into contiguous chunks and fanned out over ``executor`` (default:
        the ``REPRO_WORKERS``-configured pool; serial when unset) with
        bit-identical aggregate statistics.  Each chunk runs the stacked
        driver of :meth:`run_packets_batched` under the ``REPRO_BATCH``
        cap.  Stateful jammers (hoppers, sweepers — see
        :attr:`Jammer.is_stateful`) must see packets in order and
        therefore always run as one in-process chunk.

        With ``cache`` (read by :func:`~repro.runtime.cache.resolve_cache`:
        ``None`` is the ``REPRO_CACHE``-configured on-disk cache, disabled
        when unset; ``True`` the default directory; a path or a store) the
        aggregated statistics of memoryless-jammer batches are memoized
        under a stable hash of (config fingerprint, operating point, seed,
        packet budget).  ``cache=False`` forces caching off regardless of
        the environment (used by timing benchmarks).
        """
        ex = executor if executor is not None else ParallelExecutor.from_env()
        batch = resolve_batch()
        point = dict(
            snr_db=snr_db, sjr_db=sjr_db, jammer=jammer, seed=seed, payload=payload,
            jammer_delay_samples=jammer_delay_samples,
        )

        def parts() -> Iterator[_Totals]:
            if ex.parallel and _order_free(jammer) and num_packets >= 2:
                bounds = self._chunk_bounds(num_packets, ex.workers)
                yield from ex.map(lambda se: _fold(self._run_chunk(*se, batch, point)), bounds)
            else:
                yield from self._run_chunk(0, num_packets, batch, point)

        return self._stats(num_packets, point, cache, parts())

    def _stats_cache_key(
        self,
        num_packets: int,
        snr_db: float,
        sjr_db: float,
        jammer: Jammer | None,
        seed: int,
        payload: bytes | None,
        jammer_delay_samples: int,
    ) -> dict:
        """The on-disk cache key of a packet batch's aggregate statistics.

        Shared verbatim between :meth:`run_packets` and
        :meth:`run_packets_batched` — the two run the same driver, so a
        result computed by either serves the other.
        """
        return {
            "kind": "LinkSimulator.run_packets",
            "config": _spec_view(self.config),
            "impairments": _spec_view(self.impairments),
            "channel": _spec_view(self.channel),
            "num_packets": int(num_packets),
            "snr_db": canonical(float(snr_db)),
            "sjr_db": canonical(float(sjr_db)),
            "jammer": _spec_view(jammer),
            "seed": int(seed),
            "payload": canonical(payload),
            "jammer_delay_samples": int(jammer_delay_samples),
        }

    def _stats(
        self,
        num_packets: int,
        point: dict[str, Any],
        cache: "ResultCache | str | bool | None",
        parts: Iterable[_Totals],
    ) -> LinkStats:
        """Sum the lazy per-chunk ``parts`` into :class:`LinkStats`, through the cache.

        ``cache`` goes through :func:`resolve_cache`.  Memoryless-jammer
        batches are looked up first: a hit never consumes ``parts``.
        """
        if num_packets < 1:
            raise ValueError(f"num_packets must be >= 1, got {num_packets}")
        store = resolve_cache(cache) if _order_free(point["jammer"]) else None
        if store is not None:
            key = self._stats_cache_key(num_packets, **point)
            hit = store.get(key)
            if hit is not None:
                return LinkStats(**hit)
        accepted, bit_errors, total_bits, usage = _fold(parts)
        stats = LinkStats(
            num_packets=num_packets,
            num_accepted=accepted,
            total_bits=total_bits,
            bit_errors=bit_errors,
            data_rate_bps=self.data_rate_bps(),
            filter_usage=usage,
        )
        if store is not None:
            store.put(key, asdict(stats))
        return stats

    def run_packets_batched(
        self,
        num_packets: int,
        snr_db: float,
        sjr_db: float = float("inf"),
        jammer: Jammer | None = None,
        seed: int = 0,
        payload: bytes | None = None,
        jammer_delay_samples: int = 0,
        batch_size: int | None = None,
        cache: "ResultCache | str | bool | None" = None,
    ) -> LinkStats:
        """In-process :meth:`run_packets` with an explicit packet cap: same statistics.

        Simulates one contiguous group of packets per stacked call: the
        group's captures fit one sample budget (see :meth:`_packet_groups`)
        and it holds at most ``batch_size`` packets (default: the
        ``REPRO_BATCH``-configured cap, 64 when unset; ``0`` and ``1``
        both mean one).  The :class:`LinkStats` are **bit-identical**
        under every cap, and equal the fold of :meth:`run_packet` over
        the packets.  The contract that makes this exact:

        * packet ``k`` draws from ``child_rng(seed, "packet", str(k))``,
          and everything that consumes randomness — the jammer waveform,
          then the medium noise — runs in a strictly ordered per-packet
          loop (this also preserves stateful jammers' packet-order state
          evolution);
        * only the deterministic DSP (pulse shaping, filtering, matched
          filtering, despreading, spectral estimation) is stacked, through
          batch primitives whose rows do not depend on their neighbours
          (each serial primitive is the one-row call of its batch one).

        One group is alive at a time (see :meth:`_run_batch`), so the
        working set is about one sample budget of captures plus one
        stacked DSP chunk, whatever ``batch_size`` or the packet length.

        The result cache entries are :meth:`run_packets`'s.  Front-end
        impairments apply per packet and switch the stacked receiver to
        phase tracking.
        """
        batch = resolve_batch() if batch_size is None else int(batch_size)
        point = dict(
            snr_db=snr_db, sjr_db=sjr_db, jammer=jammer, seed=seed, payload=payload,
            jammer_delay_samples=jammer_delay_samples,
        )
        return self._stats(num_packets, point, cache, self._run_chunk(0, num_packets, batch, point))

    def _run_chunk(
        self,
        start: int,
        stop: int,
        batch: int,
        point: dict[str, Any],
        sources: SourceHook | None = None,
    ) -> Iterator[_Totals]:
        """Totals of packets ``start..stop-1``, one per planned group, lazily.

        The one multi-packet loop of links and network links alike.
        """
        for indices in self._packet_groups(stop, point["payload"], batch, start):
            yield self._run_batch(indices, **point, sources=sources)

    def _packet_groups(
        self, stop: int, payload: bytes | None, batch: int, start: int = 0
    ) -> Iterator[range]:
        """Contiguous ranges of packets ``start..stop-1``, in order, one per stacked call.

        Capture lengths come from the hop plan, so nothing is synthesized
        here.  Groups are planned lazily, so a cache hit draws no hop plan;
        see :func:`~repro.core.transmitter.budget_groups` for the sizing.
        """
        tx = self.transmitter
        num_air = self.config.air_symbols(None if payload is None else len(payload))
        lengths = (sum(tx.hop_plan(num_air, k)[1]) for k in range(start, stop))
        return budget_groups(lengths, batch, start)

    def _run_batch(
        self,
        indices: range,
        snr_db: float,
        sjr_db: float,
        jammer: Jammer | None,
        seed: int,
        payload: bytes | None,
        jammer_delay_samples: int,
        sources: SourceHook | None = None,
    ) -> _Totals:
        """Aggregate packets ``indices`` (one planned group) through the stacked link.

        Everything a group allocates (its packets, captures and receive
        results) dies when this returns, before the next group is
        synthesized.  A packet's waveform is dropped as soon as its
        capture is drawn: scoring reads only the payload and the symbols.
        """
        packets = self.transmitter.transmit_batch(indices, payload=payload)
        received: list[np.ndarray] = []
        for p, k in enumerate(indices):
            gen = child_rng(seed, "packet", str(k))
            extra = () if sources is None else sources(k)
            samples = self._capture(
                packets[p], gen, snr_db, sjr_db, jammer, jammer_delay_samples, extra
            )
            received.append(self.rx_path.front_end(samples))
            packets[p] = replace(packets[p], waveform=_DROPPED)
        results = self.receiver.receive_batch(
            received,
            payload_len=len(packets[0].payload),
            packet_indices=indices,
            phase_track=self.rx_path.needs_phase_tracking,
        )
        return _fold(
            (int(o.accepted), o.bit_errors, o.total_bits, o.receive.filter_usage())
            for o in map(self.rx_path.score, packets, results)
        )

    @staticmethod
    def _chunk_bounds(num_packets: int, workers: int) -> list[tuple[int, int]]:
        """Contiguous ``(start, stop)`` packet ranges for the pool.

        A few chunks per worker keeps stragglers from serializing the
        tail; chunk boundaries do not affect results (packet seeding is
        per-index), only load balance.
        """
        target = max(1, min(num_packets, 4 * workers))
        edges = np.linspace(0, num_packets, target + 1).astype(int)
        return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]

    def data_rate_bps(self) -> float:
        """Average payload data rate of the configured link in bits/second.

        Computed from the expected hop bandwidth; see
        :meth:`TxPath.data_rate_bps`, which owns the calculation.
        """
        return self.tx_path.data_rate_bps()
