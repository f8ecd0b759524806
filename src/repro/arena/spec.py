"""Serializable jammer-tournament (arena) specifications.

An arena file looks like::

    {
      "name": "arena-small",
      "description": "2 jammers x 1 pattern x 2 hop ranges",
      "config": {"payload_bytes": 4, "seed": 7},
      "jammers": {
        "none": {"type": "none"},
        "reactive": {"type": "reactive", "reaction_samples": 4096,
                     "initial_bandwidth": 10000000.0}
      },
      "patterns": ["linear"],
      "hop_ranges": [1, 7],
      "snr_db": 15.0,
      "sjr_db": -8.0,
      "packets": 6,
      "seed": 0
    }

The tournament grid is the cross product **jammer strategy x hop pattern
x hop range**.  A hop-range entry ``k`` keeps the ``k`` *widest*
bandwidths of the base config's set in play (for the paper's octave set,
hop range 2^(k-1)); ``k = 1`` pins the link to the widest bandwidth —
the static-band / DSSS baseline every adaptive attacker is measured
against.  Jammer specs inherit the config's sample rate through the
registry, exactly as scenario files do.

Validation failures raise :class:`ArenaError` naming the offending field
(``"jammers['foo']: ..."`` style).  Cells are enumerated jammers-sorted-
by-label x patterns x hop ranges, so the cell order — and with it the
checkpoint index space — is a deterministic function of the spec content,
not of JSON key order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.core.config import BHSSConfig
from repro.hopping.bands import BandwidthSet
from repro.hopping.patterns import PATTERN_NAMES
from repro.jamming.base import Jammer
from repro.jamming.registry import jammer_from_spec
from repro.utils.spec import SpecError, SpecFile, require_int, require_number

__all__ = ["ArenaError", "ArenaSpec", "NO_JAMMER"]

#: the jammer spec meaning "the unjammed baseline column"
NO_JAMMER: dict[str, Any] = {"type": "none"}


class ArenaError(SpecError):
    """An arena spec failed validation; the message names the field."""


@dataclass(frozen=True)
class ArenaSpec(SpecFile):
    """A jammer-strategy x hop-pattern x hop-range tournament grid.

    Attributes
    ----------
    name:
        Identifier used in reports, file names and cache keys.
    config:
        Base link configuration; every cell derives from it by overriding
        the pattern and restricting the bandwidth set to the cell's hop
        range.
    jammers:
        Label -> registry jammer spec.  Stored sorted by label; include a
        ``{"type": "none"}`` entry to give the jammer-advantage metric
        its unjammed baseline.
    patterns:
        Hop patterns in play (named: linear/exponential/parabolic).
    hop_ranges:
        Band counts in play: entry ``k`` hops over the ``k`` widest
        bandwidths of the base set (``1`` = static band, no hopping).
    snr_db, sjr_db:
        The common operating point of every cell — equal SJR across
        cells is what makes the resilience matrix comparable.
    packets:
        Packet budget per cell.
    seed:
        Run seed (root of the per-packet RNG substreams) shared by every
        cell, so cells differ only in configuration, never in noise.
    description:
        Free-text note carried through the JSON file.
    """

    name: str
    config: BHSSConfig = field(default_factory=BHSSConfig.paper_default)
    jammers: tuple[tuple[str, dict], ...] = (("none", NO_JAMMER),)
    patterns: tuple[str, ...] = ("linear",)
    hop_ranges: tuple[int, ...] = (1, 7)
    snr_db: float = 15.0
    sjr_db: float = -10.0
    packets: int = 8
    seed: int = 0
    description: str = ""

    KIND = "arena"
    Error = ArenaError
    FIELDS = frozenset({
        "name", "description", "config", "jammers", "patterns",
        "hop_ranges", "snr_db", "sjr_db", "packets", "seed",
    })

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ArenaError("name: must be a non-empty string")
        if not isinstance(self.config, BHSSConfig):
            raise ArenaError("config: must be a BHSSConfig (use from_dict for specs)")
        jammers = tuple(self.jammers)
        if not jammers:
            raise ArenaError("jammers: at least one jammer is required")
        labels = []
        cleaned = []
        for entry in jammers:
            if not (isinstance(entry, tuple) and len(entry) == 2):
                raise ArenaError("jammers: entries must be (label, spec) pairs")
            label, spec = entry
            if not isinstance(label, str) or not label:
                raise ArenaError("jammers: labels must be non-empty strings")
            if not isinstance(spec, dict):
                raise ArenaError(f"jammers[{label!r}]: must be a registry spec mapping")
            labels.append(label)
            cleaned.append((label, dict(spec)))
        if len(set(labels)) != len(labels):
            dupes = sorted({n for n in labels if labels.count(n) > 1})
            raise ArenaError(f"jammers: duplicate label(s): {dupes}")
        object.__setattr__(self, "jammers", tuple(sorted(cleaned, key=lambda kv: kv[0])))
        patterns = tuple(self.patterns)
        if not patterns:
            raise ArenaError("patterns: at least one pattern is required")
        for p in patterns:
            if not isinstance(p, str) or p.lower() not in PATTERN_NAMES:
                raise ArenaError(
                    f"patterns: {p!r} is not a named pattern; use one of {PATTERN_NAMES}"
                )
        if len(set(patterns)) != len(patterns):
            raise ArenaError("patterns: entries must be distinct")
        object.__setattr__(self, "patterns", tuple(p.lower() for p in patterns))
        ranges = tuple(self.hop_ranges)
        if not ranges:
            raise ArenaError("hop_ranges: at least one entry is required")
        limit = len(self.config.bandwidth_set)
        for k in ranges:
            require_int(k, "hop_ranges", ArenaError, minimum=1)
            if k > limit:
                raise ArenaError(
                    f"hop_ranges: {k} exceeds the {limit}-bandwidth base set"
                )
        if len(set(ranges)) != len(ranges):
            raise ArenaError("hop_ranges: entries must be distinct")
        object.__setattr__(self, "hop_ranges", tuple(int(k) for k in ranges))
        object.__setattr__(self, "snr_db", require_number(self.snr_db, "snr_db", ArenaError))
        object.__setattr__(self, "sjr_db", require_number(self.sjr_db, "sjr_db", ArenaError))
        require_int(self.packets, "packets", ArenaError, minimum=1)
        require_int(self.seed, "seed", ArenaError)
        if not isinstance(self.description, str):
            raise ArenaError("description: must be a string")

    # -- grid enumeration -----------------------------------------------------

    def cells(self) -> list[tuple[str, dict, str, int]]:
        """Every ``(jammer_label, jammer_spec, pattern, num_bands)`` cell.

        The order — jammers sorted by label, then patterns, then hop
        ranges, each in spec order — indexes the checkpoint space, so it
        depends only on the spec content.
        """
        return [
            (label, dict(spec), pattern, num_bands)
            for label, spec in self.jammers
            for pattern in self.patterns
            for num_bands in self.hop_ranges
        ]

    @property
    def num_cells(self) -> int:
        """Grid size: jammers x patterns x hop ranges."""
        return len(self.jammers) * len(self.patterns) * len(self.hop_ranges)

    @property
    def jammer_labels(self) -> tuple[str, ...]:
        """Jammer column labels, sorted."""
        return tuple(label for label, _ in self.jammers)

    @property
    def baseline_label(self) -> str | None:
        """The unjammed column's label (first ``"none"``-type jammer)."""
        for label, spec in self.jammers:
            if str(spec.get("type", "")).lower() == "none":
                return label
        return None

    def cell_config(self, pattern: str, num_bands: int) -> BHSSConfig:
        """The link configuration of one ``(pattern, num_bands)`` cell.

        Keeps the ``num_bands`` widest bandwidths of the base set;
        ``num_bands = 1`` pins the link to the widest bandwidth (hopping
        disabled — the static-band baseline).
        """
        num_bands = require_int(num_bands, "num_bands", ArenaError, minimum=1)
        base = self.config.bandwidth_set
        if num_bands > len(base):
            raise ArenaError(f"num_bands: {num_bands} exceeds the {len(base)}-bandwidth base set")
        widest = tuple(sorted(base.bandwidths, reverse=True)[:num_bands])
        subset = BandwidthSet(widest, base.sample_rate)
        if num_bands == 1:
            return replace(
                self.config,
                bandwidth_set=subset,
                pattern="linear",
                fixed_bandwidth=float(widest[0]),
            )
        return replace(
            self.config, bandwidth_set=subset, pattern=pattern, fixed_bandwidth=None
        )

    def build_cell(self, index: int) -> tuple[BHSSConfig, Jammer, str, str, int]:
        """Build cell ``index``: ``(config, jammer, label, pattern, num_bands)``."""
        cells = self.cells()
        if not 0 <= index < len(cells):
            raise ArenaError(f"cell index {index} outside 0..{len(cells) - 1}")
        label, jspec, pattern, num_bands = cells[index]
        config = self.cell_config(pattern, num_bands)
        try:
            jammer = jammer_from_spec(jspec, sample_rate=config.sample_rate)
        except ValueError as exc:
            raise ArenaError(f"jammers[{label!r}]: {exc}") from None
        return config, jammer, label, pattern, num_bands

    def validate(self) -> "ArenaSpec":
        """Deep-check every cell (configs + jammer specs); returns self."""
        for index in range(self.num_cells):
            self.build_cell(index)
        return self

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        """Lossless JSON-able spec; :meth:`from_dict` inverts it."""
        out: dict[str, Any] = {
            "name": self.name,
            "config": self.config.to_dict(),
            "jammers": {label: dict(spec) for label, spec in self.jammers},
            "patterns": list(self.patterns),
            "hop_ranges": list(self.hop_ranges),
            "snr_db": float(self.snr_db),
            "sjr_db": float(self.sjr_db),
            "packets": int(self.packets),
            "seed": int(self.seed),
        }
        if self.description:
            out["description"] = self.description
        return out

    @classmethod
    def from_dict(cls, data: object, source: str | None = None) -> "ArenaSpec":
        """Rebuild and validate an arena spec from :meth:`to_dict` output.

        ``source`` (e.g. a file path) prefixes error messages.  Every
        cell is deep-validated, so a bad jammer field fails here, not
        mid-tournament.
        """
        return cls._read(data, source, cls._parse)

    @classmethod
    def _parse(cls, data: dict) -> "ArenaSpec":
        try:
            config = BHSSConfig.from_dict(data.get("config", {}))
        except ValueError as exc:
            raise ArenaError(f"config: {exc}") from None
        raw_jammers = data.get("jammers")
        if not isinstance(raw_jammers, dict) or not raw_jammers:
            raise ArenaError("jammers: must be a non-empty {label: spec} mapping")
        jammers = []
        for label, spec in raw_jammers.items():
            if not isinstance(label, str) or not label:
                raise ArenaError("jammers: labels must be non-empty strings")
            if not isinstance(spec, dict):
                raise ArenaError(f"jammers[{label!r}]: must be a registry spec mapping")
            jammers.append((label, dict(spec)))
        kwargs: dict[str, Any] = {
            "name": data["name"],
            "config": config,
            "jammers": tuple(jammers),
            "description": data.get("description", ""),
        }
        for key in ("snr_db", "sjr_db", "packets", "seed"):
            if key in data:
                kwargs[key] = data[key]
        for key in ("patterns", "hop_ranges"):
            if key in data:
                value = data[key]
                if not isinstance(value, (list, tuple)):
                    raise ArenaError(f"{key}: must be a list")
                kwargs[key] = tuple(value)
        return cls(**kwargs).validate()
