"""DSSS spreading and despreading.

Two modems are provided:

* :class:`SixteenAryDSSS` — the paper's PHY: 4-bit symbols map to one of
  sixteen 32-chip quasi-orthogonal sequences (802.15.4 style, spreading
  factor 8 = 9 dB).  Despreading is a bank of 16 correlators; the largest
  correlation decides the symbol.  A seeded PN scrambler overlays the
  public table so the on-air chips are unpredictable to the jammer.
* :class:`BPSKDSSS` — the textbook binary DSSS used by the theory section
  (eq. 5-8): each bit is multiplied by an L-chip PN sequence.  Used by the
  tests to measure the processing gain directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.spread.chiptables import CHIPS_PER_SYMBOL, NUM_SYMBOLS, chip_table_pm
from repro.spread.pn import random_pn_sequence
from repro.utils.rng import derive_seed

__all__ = ["SixteenAryDSSS", "DespreadResult", "BPSKDSSS"]

#: The +-1 chip table every :class:`SixteenAryDSSS` shares; read-only, so
#: no modem can change another's chips.
_CHIP_TABLE_PM = chip_table_pm()
_CHIP_TABLE_PM.setflags(write=False)


@dataclass(frozen=True)
class DespreadResult:
    """Output of 16-ary despreading.

    Attributes
    ----------
    symbols:
        Decided 4-bit symbol values (0-15).
    scores:
        Correlation score matrix, shape ``(num_symbols, 16)`` — row ``i``
        holds the correlator-bank outputs for symbol slot ``i``.
    quality:
        Winning correlation normalized by the chip energy, one value per
        symbol; near 1.0 for clean reception, near 0 under heavy jamming.
    """

    symbols: np.ndarray
    scores: np.ndarray
    quality: np.ndarray


class SixteenAryDSSS:
    """802.15.4-style 16-ary DSSS spreader/despreader.

    Parameters
    ----------
    seed:
        Root seed for the PN scrambler.  ``None`` disables scrambling
        (chips follow the public table exactly).  Transmitter and receiver
        must use the same value — this is the pre-shared secret of the
        paper's system model.
    scramble_length:
        Period, in chips, of the scrambling sequence.  Defaults to a long
        period so the overlay does not visibly repeat within a packet.
    """

    chips_per_symbol = CHIPS_PER_SYMBOL
    num_symbols = NUM_SYMBOLS
    #: number of chips per information bit: 32 chips / 4 bits
    spreading_factor = CHIPS_PER_SYMBOL // 4

    def __init__(self, seed: int | None = None, scramble_length: int = 1 << 16) -> None:
        self._table = _CHIP_TABLE_PM
        if seed is None:
            self._scrambler = None
        else:
            if scramble_length < CHIPS_PER_SYMBOL:
                raise ValueError(
                    f"scramble_length must be >= {CHIPS_PER_SYMBOL}, got {scramble_length}"
                )
            self._scrambler = random_pn_sequence(
                scramble_length, derive_seed(seed, "dsss-scrambler")
            )

    @property
    def processing_gain_db(self) -> float:
        """Processing gain of the spreading operation (~9 dB)."""
        return 10.0 * np.log10(self.spreading_factor)

    def _scramble_mask(self, start_chips, count: int, rows: int) -> np.ndarray | None:
        """Scramble mask for a batch: shared (1-D) or per-row (2-D).

        A scalar ``start_chips`` gives the shared ``(count,)`` mask that
        broadcasts over the batch; an array gives one mask row per batch
        row, so segments at different chip offsets can share one stacked
        call.
        """
        if self._scrambler is None:
            return None
        starts = np.asarray(start_chips, dtype=int)
        if starts.ndim and starts.shape != (rows,):
            raise ValueError(
                f"start_chip batch {starts.shape} does not match row count {rows}"
            )
        offsets = starts[:, None] if starts.ndim == 1 else starts
        return self._scrambler[(offsets + np.arange(count)) % self._scrambler.size]

    def spread(self, symbols: np.ndarray, start_chip: int = 0) -> np.ndarray:
        """Map 4-bit symbols to +-1 chips (scrambled if a seed was given).

        ``start_chip`` is the absolute chip index of the first output chip,
        used to keep the scrambler phase aligned when a packet is spread in
        segments (the BHSS transmitter spreads one hop at a time).  The
        one-row case of :meth:`spread_batch`.
        """
        syms = np.asarray(symbols, dtype=int)
        if syms.ndim != 1:
            raise ValueError(f"symbols must be 1-D, got shape {syms.shape}")
        chips: np.ndarray = self.spread_batch(syms[None], start_chip)[0]
        return chips

    def despread(self, soft_chips: np.ndarray, start_chip: int = 0) -> DespreadResult:
        """Correlate soft chip values against the 16-sequence bank.

        ``soft_chips`` are real-valued chip estimates (any scale); length
        must be a multiple of 32.  Scrambling is removed first when the
        modem was built with a seed.  The one-row case of
        :meth:`despread_batch`.
        """
        soft = np.asarray(soft_chips, dtype=float)
        if soft.ndim != 1:
            raise ValueError(f"soft_chips must be 1-D, got shape {soft.shape}")
        rows = self.despread_batch(soft[None], start_chip)
        return DespreadResult(
            symbols=rows.symbols[0], scores=rows.scores[0], quality=rows.quality[0]
        )

    def spread_batch(self, symbols: np.ndarray, start_chip=0) -> np.ndarray:
        """Map each row of a ``(R, n_sym)`` symbol stack to +-1 chips.

        ``start_chip`` is either a scalar shared by all rows or an ``(R,)``
        array of per-row chip offsets (so segments from different points of
        the hop schedule can share one stacked call).  Row ``i`` of the
        ``(R, n_sym * 32)`` output depends on ``symbols[i]`` and its chip
        offset alone — table lookup and scramble overlay are elementwise.
        """
        syms = np.asarray(symbols, dtype=int)
        if syms.ndim != 2:
            raise ValueError(f"symbols must be 2-D, got shape {syms.shape}")
        if syms.size and (syms.min() < 0 or syms.max() >= NUM_SYMBOLS):
            raise ValueError("symbols must be in 0..15")
        if syms.shape[0] == 0:
            # Zero-row batches cannot reshape with an inferred axis; the
            # chip table and scramble mask are float64, so the non-empty
            # output dtype is known without touching them.
            return np.zeros((0, syms.shape[1] * CHIPS_PER_SYMBOL), dtype=np.float64)
        chips = self._table[syms].reshape(syms.shape[0], -1)
        mask = self._scramble_mask(start_chip, chips.shape[1], chips.shape[0])
        if mask is not None:
            chips = chips * mask
        return chips

    def despread_batch(self, soft_chips: np.ndarray, start_chip=0) -> DespreadResult:
        """Despread each row of a ``(R, n_chips)`` stack.

        ``start_chip`` is a shared scalar or an ``(R,)`` array of per-row
        chip offsets, as in :meth:`spread_batch`.  Returns a
        :class:`DespreadResult` whose fields carry a leading batch axis:
        ``symbols`` is ``(R, n_sym)``, ``scores`` is ``(R, n_sym, 16)``,
        ``quality`` is ``(R, n_sym)``.  Each row depends on its own chips
        alone: the stacked correlator matmul evaluates per-row dot
        products, and the chip-energy reduction runs over the last axis.
        """
        soft = np.asarray(soft_chips, dtype=float)
        if soft.ndim != 2:
            raise ValueError(f"soft_chips must be 2-D, got shape {soft.shape}")
        if soft.shape[1] % CHIPS_PER_SYMBOL != 0:
            raise ValueError(
                f"soft_chips row length {soft.shape[1]} is not a multiple of {CHIPS_PER_SYMBOL}"
            )
        if soft.shape[0] == 0:
            # Zero-row batches cannot reshape with an inferred axis; build
            # the empty result with the dtypes the non-empty path yields.
            n_sym = soft.shape[1] // CHIPS_PER_SYMBOL
            return DespreadResult(
                symbols=np.zeros((0, n_sym), dtype=np.intp),
                scores=np.zeros((0, n_sym, NUM_SYMBOLS), dtype=np.float64),
                quality=np.zeros((0, n_sym), dtype=np.float64),
            )
        mask = self._scramble_mask(start_chip, soft.shape[1], soft.shape[0])
        if mask is not None:
            soft = soft * mask
        blocks = soft.reshape(soft.shape[0], -1, CHIPS_PER_SYMBOL)
        scores = blocks @ self._table.T  # (R, n_sym, 16)
        symbols = np.argmax(scores, axis=-1)
        peak = np.take_along_axis(scores, symbols[:, :, None], axis=-1)[:, :, 0]
        energy = np.sqrt(np.sum(blocks**2, axis=-1) * CHIPS_PER_SYMBOL)
        quality = np.divide(peak, energy, out=np.zeros_like(peak), where=energy > 0)
        return DespreadResult(symbols=symbols, scores=scores, quality=quality)


class BPSKDSSS:
    """Textbook binary DSSS: each bit is spread by an L-chip PN sequence.

    This is the ``p(k)`` model of the paper's analysis (Section 5): white
    +-1 chips, L chips per information bit, correlation receiver.  The PN
    stream is a long seeded sequence, not a repeated short code, so the
    spread signal is white over any analysis window.
    """

    def __init__(self, spreading_factor: int, seed: int = 0) -> None:
        if spreading_factor < 1:
            raise ValueError(f"spreading_factor must be >= 1, got {spreading_factor}")
        self.spreading_factor = int(spreading_factor)
        self._seed = seed

    @property
    def processing_gain_db(self) -> float:
        """Processing gain L in dB."""
        return 10.0 * np.log10(self.spreading_factor)

    def _pn(self, start_chip: int, count: int) -> np.ndarray:
        # Deterministic random access into a conceptually infinite PN
        # stream: regenerate the needed span from the seed.  Spans are
        # requested sequentially in practice, so generation cost is linear.
        full = random_pn_sequence(start_chip + count, derive_seed(self._seed, "bpsk-pn"))
        return full[start_chip:]

    def spread(self, bits: np.ndarray, start_chip: int = 0) -> np.ndarray:
        """Spread +-1 (or 0/1) bits into +-1 chips."""
        b = np.asarray(bits)
        if b.ndim != 1:
            raise ValueError("bits must be 1-D")
        levels = np.where(b > 0, 1.0, -1.0) if b.dtype != np.float64 else np.sign(b)
        levels = np.where(levels == 0, 1.0, levels)
        chips = np.repeat(levels, self.spreading_factor)
        return chips * self._pn(start_chip, chips.size)

    def despread(self, soft_chips: np.ndarray, start_chip: int = 0) -> np.ndarray:
        """Correlate chips back to soft bit decisions (sign = bit)."""
        soft = np.asarray(soft_chips, dtype=float)
        if soft.size % self.spreading_factor != 0:
            raise ValueError(
                f"length {soft.size} not a multiple of L={self.spreading_factor}"
            )
        soft = soft * self._pn(start_chip, soft.size)
        return soft.reshape(-1, self.spreading_factor).sum(axis=1)
