"""Serializable N-link network specifications.

A network file looks like::

    {
      "name": "mesh4",
      "description": "4 uncoordinated BHSS links, ring coupling, 2 jammers",
      "links": [
        {"name": "a", "config": {"seed": 1}, "seed": 101, "snr_db": 15.0,
         "sjr_db": -10.0, "jammer": {"type": "tone"}},
        {"name": "b", "config": {"seed": 2}, "seed": 102}
      ],
      "coupling_db": [[null, -18.0], [-18.0, null]],
      "delay_samples": [[0, 25], [25, 0]],
      "packets": 10
    }

``links[i]`` describes one transmitter/receiver pair: its PHY
configuration (hop pattern, pre-shared schedule seed — the
:class:`~repro.core.config.BHSSConfig` spec layout), its *run* seed (the
root of the per-packet ``child_rng(seed, "packet", k)`` substreams), its
operating point, and its personal jammer.  ``coupling_db[i][j]`` is the
received power of link ``j``'s transmission at link ``i``'s receiver in
dB relative to link ``i``'s nominal signal power (``null`` = no
coupling; the diagonal must be ``null``).  ``delay_samples[i][j]`` is
the cross-link propagation delay in samples.

Validation failures raise :class:`NetworkError` naming the offending
field (``"links[2].seed: ..."`` style).  Per-link run seeds must be
pairwise distinct — that is what guarantees, by construction, that no
two links ever share an RNG substream.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.core.config import BHSSConfig
from repro.jamming.base import Jammer
from repro.jamming.registry import jammer_from_spec
from repro.utils.spec import SpecError, SpecFile, require_int, require_number

__all__ = ["LinkSpec", "NetworkError", "NetworkSpec"]

#: the jammer spec meaning "this link is not attacked"
NO_JAMMER: dict[str, Any] = {"type": "none"}


class NetworkError(SpecError):
    """A network spec failed validation; the message names the field."""


@dataclass(frozen=True)
class LinkSpec:
    """One transmitter/receiver pair of a shared-spectrum network.

    Attributes
    ----------
    name:
        Identifier used in per-link results and error messages.
    config:
        The link's PHY configuration (its ``seed`` is the pre-shared hop
        schedule seed; uncoordinated links should use distinct ones).
    seed:
        Run seed — the root of the per-packet RNG substreams, exactly as
        :meth:`LinkSimulator.run_packets`'s ``seed``.  Must be unique
        across the network's links.
    snr_db, sjr_db:
        The link's operating point against its own noise floor / jammer.
    jammer:
        Registry spec of the jammer attacking this link
        (``{"type": "none"}`` = unjammed; see
        :mod:`repro.jamming.registry`).
    jammer_delay_samples:
        Reaction delay of this link's jammer in samples.
    """

    name: str
    config: BHSSConfig = field(default_factory=BHSSConfig.paper_default)
    seed: int = 0
    snr_db: float = 15.0
    sjr_db: float = -10.0
    jammer: dict = field(default_factory=lambda: dict(NO_JAMMER))
    jammer_delay_samples: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise NetworkError("link name: must be a non-empty string")
        path = f"link {self.name!r}"
        if not isinstance(self.config, BHSSConfig):
            raise NetworkError(f"{path}.config: must be a BHSSConfig (use from_dict for specs)")
        require_int(self.seed, f"{path}.seed", NetworkError)
        for name in ("snr_db", "sjr_db"):
            value = require_number(getattr(self, name), f"{path}.{name}", NetworkError)
            object.__setattr__(self, name, value)
        if not isinstance(self.jammer, dict):
            raise NetworkError(f"{path}.jammer: must be a registry spec mapping")
        require_int(
            self.jammer_delay_samples, f"{path}.jammer_delay_samples", NetworkError, minimum=0
        )

    @property
    def jammed(self) -> bool:
        """Whether this link carries a real jammer spec."""
        return str(self.jammer.get("type", "none")).lower() != "none"

    def build_jammer(self) -> Jammer:
        """The link's jammer instance (fresh state every call)."""
        try:
            return jammer_from_spec(self.jammer, sample_rate=self.config.sample_rate)
        except ValueError as exc:
            raise NetworkError(f"link {self.name!r}.jammer: {exc}") from None

    def without_jammer(self) -> "LinkSpec":
        """A copy of this link with its jammer removed."""
        return replace(self, jammer=dict(NO_JAMMER))

    def to_dict(self) -> dict:
        """Lossless JSON-able spec; :meth:`from_dict` inverts it."""
        return {
            "name": self.name,
            "config": self.config.to_dict(),
            "seed": int(self.seed),
            "snr_db": float(self.snr_db),
            "sjr_db": float(self.sjr_db),
            "jammer": self.jammer,
            "jammer_delay_samples": int(self.jammer_delay_samples),
        }

    @classmethod
    def from_dict(cls, data: object, path: str = "link") -> "LinkSpec":
        """Rebuild and validate a link spec from :meth:`to_dict` output."""
        if not isinstance(data, dict):
            raise NetworkError(f"{path}: must be a mapping, got {type(data).__name__}")
        known = {
            "name", "config", "seed", "snr_db", "sjr_db",
            "jammer", "jammer_delay_samples",
        }
        unknown = set(data) - known
        if unknown:
            raise NetworkError(f"{path}: unknown field(s): {sorted(unknown)}")
        if "name" not in data:
            raise NetworkError(f"{path}.name: field is required")
        try:
            config = BHSSConfig.from_dict(data.get("config", {}))
        except ValueError as exc:
            raise NetworkError(f"{path}.config: {exc}") from None
        kwargs: dict[str, Any] = {"name": data["name"], "config": config}
        for key in ("seed", "snr_db", "sjr_db", "jammer", "jammer_delay_samples"):
            if key in data:
                kwargs[key] = data[key]
        return cls(**kwargs)


def _validated_matrix(
    raw: object,
    n: int,
    path: str,
    entry: Any,
) -> tuple[tuple[Any, ...], ...]:
    """An ``n x n`` matrix with per-entry validation via ``entry(v, path)``."""
    if not isinstance(raw, (list, tuple)) or len(raw) != n:
        raise NetworkError(f"{path}: must be a {n}x{n} matrix (one row per link)")
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, (list, tuple)) or len(row) != n:
            raise NetworkError(f"{path}[{i}]: must be a row of {n} entries")
        rows.append(tuple(entry(v, f"{path}[{i}][{j}]", i == j) for j, v in enumerate(row)))
    return tuple(rows)


def _coupling_entry(value: object, path: str, diagonal: bool) -> float | None:
    if diagonal:
        if value is not None:
            raise NetworkError(f"{path}: diagonal must be null (a link does not jam itself)")
        return None
    if value is None:
        return None
    return require_number(value, path, NetworkError)


def _delay_entry(value: object, path: str, diagonal: bool) -> int:
    out = require_int(value, path, NetworkError, minimum=0)
    if diagonal and out != 0:
        raise NetworkError(f"{path}: diagonal delay must be 0")
    return out


@dataclass(frozen=True)
class NetworkSpec(SpecFile):
    """N BHSS links superposed in one shared-spectrum medium.

    Attributes
    ----------
    name:
        Identifier used in reports, file names and cache keys.
    links:
        The per-link specs.  Link names and run seeds must be unique,
        and every link must share one medium sample rate.
    coupling_db:
        Cross-link interference matrix: ``coupling_db[i][j]`` is the
        received power of link ``j``'s transmission at link ``i``'s
        receiver in dB relative to link ``i``'s nominal signal power
        (``None`` = no coupling).  ``None`` for the whole matrix means
        fully isolated links.
    delay_samples:
        Optional cross-link propagation delay matrix in samples
        (defaults to zero everywhere).
    packets:
        Packet budget per link.
    description:
        Free-text note carried through the JSON file.
    """

    name: str
    links: tuple[LinkSpec, ...] = ()
    coupling_db: "tuple[tuple[float | None, ...], ...] | None" = None
    delay_samples: "tuple[tuple[int, ...], ...] | None" = None
    packets: int = 20
    description: str = ""

    KIND = "network"
    Error = NetworkError
    FIELDS = frozenset({"name", "description", "links", "coupling_db", "delay_samples", "packets"})

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise NetworkError("name: must be a non-empty string")
        links = tuple(self.links)
        object.__setattr__(self, "links", links)
        if not links:
            raise NetworkError("links: at least one link is required")
        for i, link in enumerate(links):
            if not isinstance(link, LinkSpec):
                raise NetworkError(f"links[{i}]: must be a LinkSpec (use from_dict for specs)")
        names = [link.name for link in links]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise NetworkError(f"links: duplicate link name(s): {dupes}")
        seeds: dict[int, str] = {}
        for i, link in enumerate(links):
            if link.seed in seeds:
                raise NetworkError(
                    f"links[{i}].seed: {link.seed} duplicates link {seeds[link.seed]!r}'s — "
                    "per-link run seeds must be distinct so RNG substreams never collide"
                )
            seeds[link.seed] = link.name
        rates = {link.config.sample_rate for link in links}
        if len(rates) > 1:
            raise NetworkError(
                "links: every link must share one medium sample rate, got "
                f"{sorted(rates)}"
            )
        n = len(links)
        if self.coupling_db is not None:
            object.__setattr__(
                self,
                "coupling_db",
                _validated_matrix(self.coupling_db, n, "coupling_db", _coupling_entry),
            )
        if self.delay_samples is not None:
            object.__setattr__(
                self,
                "delay_samples",
                _validated_matrix(self.delay_samples, n, "delay_samples", _delay_entry),
            )
        require_int(self.packets, "packets", NetworkError, minimum=1)
        if not isinstance(self.description, str):
            raise NetworkError("description: must be a string")

    # -- topology queries -----------------------------------------------------

    @property
    def num_links(self) -> int:
        """Number of links in the network."""
        return len(self.links)

    @property
    def num_jammers(self) -> int:
        """Number of links carrying a real (non-``"none"``) jammer."""
        return sum(1 for link in self.links if link.jammed)

    def interferers(self, index: int) -> tuple[int, ...]:
        """Indices of the links coupled into link ``index``'s receiver."""
        if self.coupling_db is None:
            return ()
        row = self.coupling_db[index]
        return tuple(j for j, value in enumerate(row) if value is not None)

    def cross_delay(self, index: int, other: int) -> int:
        """Propagation delay of link ``other``'s signal at link ``index``."""
        if self.delay_samples is None:
            return 0
        return int(self.delay_samples[index][other])

    def with_active_jammers(self, count: int) -> "NetworkSpec":
        """A copy where only the first ``count`` jammed links stay jammed.

        The knob of the fairness-vs-jammer-count sweep: link order,
        seeds, coupling, and operating points are untouched, so the only
        difference between two counts is which jammers transmit.
        """
        count = require_int(count, "count", NetworkError, minimum=0)
        kept = 0
        links = []
        for link in self.links:
            if link.jammed:
                kept += 1
                links.append(link if kept <= count else link.without_jammer())
            else:
                links.append(link)
        return replace(self, links=tuple(links))

    def validate(self) -> "NetworkSpec":
        """Deep-check the jammer specs (builds each once); returns self."""
        for link in self.links:
            link.build_jammer()
        return self

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        """Lossless JSON-able spec; :meth:`from_dict` inverts it."""
        out: dict[str, Any] = {
            "name": self.name,
            "links": [link.to_dict() for link in self.links],
            "packets": int(self.packets),
        }
        if self.coupling_db is not None:
            out["coupling_db"] = [list(row) for row in self.coupling_db]
        if self.delay_samples is not None:
            out["delay_samples"] = [list(row) for row in self.delay_samples]
        if self.description:
            out["description"] = self.description
        return out

    @classmethod
    def from_dict(cls, data: object, source: str | None = None) -> "NetworkSpec":
        """Rebuild and validate a network spec from :meth:`to_dict` output.

        ``source`` (e.g. a file path) prefixes error messages.  Jammer
        specs are deep-validated, so a bad field fails here, not
        mid-run.
        """
        return cls._read(data, source, cls._parse)

    @classmethod
    def _parse(cls, data: dict) -> "NetworkSpec":
        raw_links = data.get("links")
        if not isinstance(raw_links, list) or not raw_links:
            raise NetworkError("links: must be a non-empty list of link specs")
        links = tuple(
            LinkSpec.from_dict(entry, path=f"links[{i}]") for i, entry in enumerate(raw_links)
        )
        kwargs: dict[str, Any] = {
            "name": data["name"],
            "links": links,
            "coupling_db": data.get("coupling_db"),
            "delay_samples": data.get("delay_samples"),
            "description": data.get("description", ""),
        }
        if "packets" in data:
            kwargs["packets"] = data["packets"]
        return cls(**kwargs).validate()
