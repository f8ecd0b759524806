"""The :class:`Scenario` dataclass and its JSON round trip.

A scenario file looks like::

    {
      "name": "narrowband-noise",
      "description": "parabolic BHSS vs a 0.625 MHz noise jammer",
      "config": {"pattern": "parabolic", "seed": 42, "payload_bytes": 8},
      "jammer": {"type": "noise", "bandwidth": 625000.0},
      "channel": null,
      "impairments": null,
      "grid": {"snr_db": [15.0], "sjr_db": [0.0, -5.0, -10.0]},
      "packets": 20,
      "seed": 7
    }

``config`` fields are optional and default to the paper's system
(:meth:`BHSSConfig.from_dict`); a jammer spec may omit ``sample_rate`` and
inherit the link's.  Validation failures raise :class:`ScenarioError`
naming the offending field (``"jammer.bandwith: ..."`` style), so a typo
in a fleet of JSON files is a one-line diagnosis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.channel.registry import channel_from_spec, impairments_from_spec
from repro.core.config import BHSSConfig
from repro.jamming.base import Jammer
from repro.jamming.registry import jammer_from_spec
from repro.utils.spec import SpecError, SpecFile, grid_values, require_int

if TYPE_CHECKING:
    from repro.analysis.sweep import SweepResult
    from repro.channel.impairments import Impairments
    from repro.runtime import ParallelExecutor, ResultCache

__all__ = ["Scenario", "ScenarioError"]


class ScenarioError(SpecError):
    """A scenario spec failed validation; the message names the field."""


@dataclass(frozen=True)
class Scenario(SpecFile):
    """A complete, serializable evaluation scenario.

    Attributes
    ----------
    name:
        Identifier used in reports, file names and cache keys.
    config:
        The BHSS link configuration under test.
    jammer:
        Registry spec of the attacker (``{"type": "noise", ...}``; see
        :mod:`repro.jamming.registry`).  ``sample_rate`` may be omitted.
    snr_db, sjr_db:
        Operating-point grid: the scenario evaluates the cross product.
    packets:
        Packet budget per grid point.
    seed:
        Run seed for the packet batch (the *link's* pre-shared seed lives
        in ``config.seed``).
    channel:
        Optional propagation-channel spec (``{"type": "multipath", ...}``).
    impairments:
        Optional front-end impairment spec
        (:meth:`~repro.channel.impairments.Impairments.to_dict` layout).
    description:
        Free-text note carried through the JSON file.
    """

    name: str
    config: BHSSConfig = field(default_factory=BHSSConfig.paper_default)
    jammer: dict = field(default_factory=lambda: {"type": "none"})
    snr_db: tuple[float, ...] = (15.0,)
    sjr_db: tuple[float, ...] = (-10.0,)
    packets: int = 20
    seed: int = 0
    channel: dict | None = None
    impairments: dict | None = None
    description: str = ""

    KIND = "scenario"
    Error = ScenarioError
    FIELDS = frozenset({
        "name", "description", "config", "jammer", "channel",
        "impairments", "grid", "packets", "seed", "backend",
    })

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ScenarioError("name: must be a non-empty string")
        if not isinstance(self.config, BHSSConfig):
            raise ScenarioError("config: must be a BHSSConfig (use from_dict for specs)")
        if not isinstance(self.jammer, dict):
            raise ScenarioError("jammer: must be a registry spec mapping")
        object.__setattr__(self, "snr_db", grid_values(self.snr_db, "grid.snr_db", ScenarioError))
        object.__setattr__(self, "sjr_db", grid_values(self.sjr_db, "grid.sjr_db", ScenarioError))
        require_int(self.packets, "packets", ScenarioError, minimum=1)
        require_int(self.seed, "seed", ScenarioError)

    # -- construction ---------------------------------------------------------

    def build(self) -> tuple["LinkSimulator", Jammer]:
        """A ready link simulator and jammer built from the specs."""
        from repro.core.link import LinkSimulator

        jammer, channel, impairments = self._components()
        link = LinkSimulator(self.config, impairments=impairments, channel=channel)
        return link, jammer

    def _components(self) -> tuple[Jammer, Any, "Impairments | None"]:
        """The jammer, channel and impairments, each from its registry."""
        try:
            jammer = jammer_from_spec(self.jammer, sample_rate=self.config.sample_rate)
        except ValueError as exc:
            raise ScenarioError(f"jammer: {exc}") from None
        try:
            channel = channel_from_spec(self.channel)
        except ValueError as exc:
            raise ScenarioError(f"channel: {exc}") from None
        try:
            impairments = impairments_from_spec(self.impairments)
        except ValueError as exc:
            raise ScenarioError(f"impairments: {exc}") from None
        return jammer, channel, impairments

    def validate(self) -> "Scenario":
        """Check the component specs through their registries (builds no link); returns self."""
        self._components()
        return self

    def points(self) -> list[tuple[float, float]]:
        """The (snr_db, sjr_db) grid points, SNR-major order."""
        return [(snr, sjr) for snr in self.snr_db for sjr in self.sjr_db]

    def run(
        self,
        executor: "ParallelExecutor | None" = None,
        cache: "ResultCache | str | bool | None" = None,
    ) -> "SweepResult":
        """Evaluate the grid; see :func:`repro.scenario.runner.run_scenario`."""
        from repro.scenario.runner import run_scenario

        return run_scenario(self, executor=executor, cache=cache)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        """Lossless JSON-able spec; :meth:`from_dict` inverts it."""
        out: dict = {
            "name": self.name,
            "config": self.config.to_dict(),
            "jammer": self.jammer,
            "grid": {"snr_db": list(self.snr_db), "sjr_db": list(self.sjr_db)},
            "packets": int(self.packets),
            "seed": int(self.seed),
        }
        if self.description:
            out["description"] = self.description
        if self.channel is not None:
            out["channel"] = self.channel
        if self.impairments is not None:
            out["impairments"] = self.impairments
        return out

    @classmethod
    def from_dict(cls, data: object, source: str | None = None) -> "Scenario":
        """Rebuild and validate a scenario from :meth:`to_dict` output.

        ``source`` (e.g. a file path) prefixes error messages.  Component
        specs are deep-validated: the jammer, channel and impairments
        specs are checked through their registries so a bad field fails
        here, not mid-sweep; the link itself is built only by
        :meth:`build`, once per grid point.
        """
        scenario = cls._read(data, source, cls._parse)
        if isinstance(data, dict) and "backend" in data:
            prefix = f"{source}: " if source else ""
            warnings.warn(
                f"{prefix}scenario field 'backend' is deprecated and ignored",
                DeprecationWarning,
                stacklevel=2,
            )
        return scenario

    @classmethod
    def _parse(cls, data: dict) -> "Scenario":
        # Older files may pin "numpy", once the default compute backend
        # and now the only DSP chain; nothing else loads.
        if data.get("backend", "numpy") != "numpy":
            raise ScenarioError(
                f"backend: the field is no longer supported and only the "
                f"value 'numpy' is accepted, got {data['backend']!r}"
            )
        grid = cls._grid(data)
        try:
            config = BHSSConfig.from_dict(data.get("config", {}))
        except ValueError as exc:
            raise ScenarioError(f"config: {exc}") from None
        description = data.get("description", "")
        if not isinstance(description, str):
            raise ScenarioError("description: must be a string")
        kwargs: dict = {
            "name": data["name"],
            "config": config,
            "jammer": data.get("jammer", {"type": "none"}),
            "channel": data.get("channel"),
            "impairments": data.get("impairments"),
            "description": description,
            **grid,
        }
        for key in ("packets", "seed"):
            if key in data:
                kwargs[key] = data[key]
        return cls(**kwargs).validate()
