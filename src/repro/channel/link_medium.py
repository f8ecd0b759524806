"""The shared medium: superposition of emitters and thermal noise.

Replaces the paper's SMA-cable + attenuator + T-connector setup
(Figure 12): the received waveform is

    r = signal + sum(source_scaled) + noise

with every non-signal source (jammers, and in network-scale runs the
other links' transmissions) rescaled so its received power sits at a
calibrated ratio to the *nominal* signal power (the attenuators of the
testbed set average power levels, not instantaneous ones), and the noise
scaled so the signal-to-noise ratio (SNR) is exact against the same
reference.  Delays model propagation and — for the reactive jammer — the
reaction time between sensing and jamming.

:meth:`Medium.combine` is the link-level entry point (extra sources,
then one jammer); :meth:`Medium.superpose` is the general N-source form
it delegates to, and the two are bit-identical for one jammer source.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.awgn import complex_awgn
from repro.utils.rng import make_rng
from repro.utils.units import db_to_linear, signal_power
from repro.utils.validation import as_complex_array, ensure_positive

__all__ = ["Medium", "MediumSource", "ReceivedBlock"]


def _validate_delay(value: object, field: str) -> int:
    """An integer sample delay >= 0, or a ``ValueError`` naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{field}: expected an integer sample count, got {value!r}")
    if value < 0:
        raise ValueError(f"{field}: must be >= 0, got {int(value)}")
    return int(value)


@dataclass(frozen=True)
class MediumSource:
    """One non-signal emitter to superpose into a received waveform.

    Attributes
    ----------
    samples:
        The source waveform (any scale; it is rescaled at superposition
        time).  Shorter than the signal = zero-padded at the back, longer
        = truncated, exactly like the classic jammer path.
    power_db:
        Received power of this source relative to the victim link's
        nominal signal power, in dB (``-sjr_db`` in jammer terms: a
        source 10 dB *stronger* than the signal is ``power_db=10``).
    delay_samples:
        Samples by which the source lags the signal start (propagation
        delay, or a reactive jammer's turnaround time).
    label:
        Name used in validation errors (``"links[2]"`` style).
    kind:
        ``"interference"`` (default) or ``"jammer"`` — selects which
        :class:`ReceivedBlock` power bucket the source's realized power
        is reported in; the superposition itself is identical.
    """

    samples: np.ndarray
    power_db: float
    delay_samples: int = 0
    label: str = "source"
    kind: str = "interference"

    def __post_init__(self) -> None:
        if self.kind not in ("interference", "jammer"):
            raise ValueError(
                f"{self.label}.kind: must be 'interference' or 'jammer', got {self.kind!r}"
            )
        if isinstance(self.power_db, bool) or not isinstance(self.power_db, (int, float)):
            raise ValueError(
                f"{self.label}.power_db: expected a number, got {self.power_db!r}"
            )
        object.__setattr__(self, "power_db", float(self.power_db))
        object.__setattr__(
            self,
            "delay_samples",
            _validate_delay(self.delay_samples, f"{self.label}.delay_samples"),
        )


@dataclass(frozen=True)
class ReceivedBlock:
    """A received waveform plus the calibrated component powers.

    The component fields let tests and analysis code verify SNR/SJR
    calibration and compute "genie" quantities (e.g. residual jammer power
    after a filter) that a real receiver could not observe.
    ``interference_power`` is the summed realized power of the
    non-jammer sources (cross-link traffic in a network run).
    """

    samples: np.ndarray
    signal_power: float
    jammer_power: float
    noise_power: float
    interference_power: float = 0.0

    @property
    def sjr_db(self) -> float:
        """Realized signal-to-jammer power ratio in dB (+inf if unjammed)."""
        if self.jammer_power <= 0:
            return float("inf")
        return 10.0 * np.log10(self.signal_power / self.jammer_power)

    @property
    def snr_db(self) -> float:
        """Realized signal-to-noise power ratio in dB."""
        if self.noise_power <= 0:
            return float("inf")
        return 10.0 * np.log10(self.signal_power / self.noise_power)

    @property
    def sir_db(self) -> float:
        """Realized signal-to-(cross-link-)interference ratio in dB."""
        if self.interference_power <= 0:
            return float("inf")
        return 10.0 * np.log10(self.signal_power / self.interference_power)


class Medium:
    """AWGN superposition channel with power calibration.

    Parameters
    ----------
    sample_rate:
        Complex baseband sample rate in samples/second.
    """

    def __init__(self, sample_rate: float) -> None:
        self.sample_rate = ensure_positive(sample_rate, "sample_rate")

    def superpose(
        self,
        signal: np.ndarray,
        snr_db: float,
        sources: "tuple[MediumSource, ...] | list[MediumSource]" = (),
        rng=None,
        reference_power: float | None = None,
    ) -> ReceivedBlock:
        """Superpose the signal, N calibrated sources, and noise.

        Sources are added in sequence order, then the noise — the float
        addition order is part of the bit-identity contract, so a run
        with zero sources is bit-identical to an unjammed
        :meth:`combine`, and one ``kind="jammer"`` source is
        bit-identical to the classic jammed :meth:`combine`.

        Parameters
        ----------
        signal:
            Transmitted waveform (any scale; its mean power defines the
            0 dB reference unless ``reference_power`` is given).
        snr_db:
            Signal-to-noise ratio at the receiver.
        sources:
            :class:`MediumSource` entries, each rescaled so its received
            power is ``power_db`` dB relative to the reference power,
            then delayed/padded/truncated onto the signal's support.
        rng:
            Seed or Generator for the thermal noise.
        reference_power:
            Override for the nominal signal power (used by network runs
            where the reference must not drift with the channel).
        """
        s = as_complex_array(signal, "signal")
        if s.size == 0:
            raise ValueError("cannot transmit an empty signal")
        p_sig = signal_power(s) if reference_power is None else float(reference_power)
        if p_sig <= 0:
            raise ValueError("signal has zero power")
        gen = make_rng(rng)

        # Sums accumulate in place into this private copy; ``aligned`` is added at full
        # length, as an overlap-only add would keep -0.0 where ``x + 0.0`` gives +0.0.
        received = s.copy()
        p_jam_realized = 0.0
        p_interference = 0.0
        for source in sources:
            if not isinstance(source, MediumSource):
                raise ValueError(
                    f"sources: expected MediumSource entries, got {type(source).__name__}"
                )
            j = as_complex_array(source.samples, source.label)
            # Dividing by the inverse ratio (rather than multiplying by
            # db_to_linear(power_db)) matches combine()'s historical
            # `p_sig / db_to_linear(sjr_db)` to the last ulp; the golden
            # vectors pin that form.
            p_target = p_sig / db_to_linear(-source.power_db)
            p_raw = signal_power(j)
            if p_raw > 0 and p_target > 0:
                j = j * np.sqrt(p_target / p_raw)
                aligned = np.zeros(s.size, dtype=complex)
                start = min(source.delay_samples, s.size)
                n_fit = min(j.size, s.size - start)
                aligned[start : start + n_fit] = j[:n_fit]
                received += aligned
                if source.kind == "jammer":
                    p_jam_realized += p_target
                else:
                    p_interference += p_target
        p_noise = p_sig / db_to_linear(snr_db)
        if p_noise > 0:
            received += complex_awgn(s.size, p_noise, gen)
        return ReceivedBlock(
            samples=received,
            signal_power=p_sig,
            jammer_power=p_jam_realized,
            noise_power=p_noise,
            interference_power=p_interference,
        )

    def combine(
        self,
        signal: np.ndarray,
        snr_db: float,
        jammer: np.ndarray | None = None,
        sjr_db: float = 0.0,
        jammer_delay_samples: int = 0,
        rng=None,
        reference_power: float | None = None,
        sources: "tuple[MediumSource, ...] | list[MediumSource]" = (),
    ) -> ReceivedBlock:
        """Superpose signal, extra sources, one jammer, and noise at calibrated ratios.

        The single-jammer case of :meth:`superpose`, kept as the link-level
        entry point; the two are bit-identical.  ``sources`` (a network
        link's coupled neighbours) go before the jammer.

        Parameters
        ----------
        signal:
            Transmitted waveform (any scale; its mean power defines the
            0 dB reference unless ``reference_power`` is given).
        snr_db:
            Signal-to-noise ratio at the receiver.
        jammer:
            Jammer waveform, or ``None`` for an unjammed channel.  It is
            rescaled to hit ``sjr_db``; if shorter than the signal it is
            zero-padded at the front by ``jammer_delay_samples`` and at the
            back as needed (a late-starting reactive jammer), if longer it
            is truncated.
        sjr_db:
            Signal-to-jammer ratio (negative = jammer stronger).
        jammer_delay_samples:
            Samples by which the jammer waveform lags the signal start —
            the reaction time of Section 2 expressed in samples.  Must be
            a non-negative integer; a negative value raises a
            field-named ``ValueError`` whether or not a jammer is given.
        rng:
            Seed or Generator for the thermal noise.
        sources:
            :class:`MediumSource` entries superposed before the jammer,
            as in :meth:`superpose`.
        """
        delay = _validate_delay(jammer_delay_samples, "jammer_delay_samples")
        if jammer is not None:
            sources = (
                *sources,
                MediumSource(
                    samples=as_complex_array(jammer, "jammer"),
                    power_db=-float(sjr_db),
                    delay_samples=delay,
                    label="jammer",
                    kind="jammer",
                ),
            )
        return self.superpose(
            signal,
            snr_db,
            sources=sources,
            rng=rng,
            reference_power=reference_power,
        )
