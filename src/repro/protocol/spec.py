"""Serializable session specs: :class:`SessionSpec` and traffic shape.

A session file looks like::

    {
      "name": "follower-session",
      "description": "seed-synchronized session vs a learning follower",
      "config": {"pattern": "parabolic", "seed": 42, "payload_bytes": 16},
      "jammer": {"type": "follower", "initial_bandwidth": 10000000.0},
      "seed_generator": {"type": "counter", "key": 7},
      "traffic": {"num_messages": 2, "message_bytes": 24, "seed": 3},
      "grid": {"snr_db": [15.0], "sjr_db": [-6.0, -10.0]},
      "packets_per_epoch": 6,
      "seed": 5
    }

Validation failures raise :class:`SessionError` naming the offending
field, exactly like the scenario/network/arena spec families, so session
files flow through ``repro-bhss scenario validate`` and the cache,
checkpoint and pool machinery unchanged.

The re-sync knobs default from the environment — ``REPRO_SYNC_RETRIES``
(re-sync rounds before degrading to the static widest band, default 3)
and ``REPRO_SYNC_TIMEOUT`` (handshake attempts per round, default 4) —
and are resolved to concrete integers at construction time, so the spec
a pool worker rebuilds carries the same budget the parent resolved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import BHSSConfig
from repro.jamming.registry import jammer_from_spec
from repro.protocol.hopseed import seed_generator_from_spec
from repro.protocol.packetizer import HEADER_BYTES, MIN_MTU
from repro.utils.rng import child_rng
from repro.utils.spec import SpecError, SpecFile, grid_values, require_int, require_number
from repro.utils.validation import env_int

if TYPE_CHECKING:
    from repro.analysis.sweep import SweepResult
    from repro.runtime import ParallelExecutor, ResultCache

__all__ = [
    "SessionError",
    "MessageTrafficSpec",
    "SessionSpec",
    "default_sync_retries",
    "default_sync_timeout",
    "HANDSHAKE_CHUNK_BYTES",
]

#: a handshake chunk carries the epoch (4 bytes) + seed commitment (4 bytes)
HANDSHAKE_CHUNK_BYTES = 8


class SessionError(SpecError):
    """A session spec failed validation; the message names the field."""


def default_sync_retries() -> int:
    """The ``REPRO_SYNC_RETRIES`` re-sync round budget (default 3)."""
    return env_int("REPRO_SYNC_RETRIES", 3, 1, SessionError)


def default_sync_timeout() -> int:
    """The ``REPRO_SYNC_TIMEOUT`` handshake attempts per round (default 4)."""
    return env_int("REPRO_SYNC_TIMEOUT", 4, 1, SessionError)


@dataclass(frozen=True)
class MessageTrafficSpec:
    """Deterministic message workload of a session.

    ``num_messages`` pseudo-random messages of ``message_bytes`` each,
    drawn from the ``child_rng(seed, "message", i)`` substreams — a pure
    function of the spec, so transmitter, receiver, pool workers and the
    chaos tests all agree on the exact bytes in flight.
    """

    num_messages: int = 4
    message_bytes: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        require_int(self.num_messages, "traffic.num_messages", SessionError, minimum=1)
        if self.num_messages > 256:
            raise SessionError(
                f"traffic.num_messages: at most 256 (one id byte), got {self.num_messages}"
            )
        require_int(self.message_bytes, "traffic.message_bytes", SessionError, minimum=1)
        require_int(self.seed, "traffic.seed", SessionError)

    def messages(self) -> list[bytes]:
        """The session's message payloads, in transmission order."""
        return [
            child_rng(self.seed, "message", str(i))
            .integers(0, 256, size=self.message_bytes)
            .astype(np.uint8)
            .tobytes()
            for i in range(self.num_messages)
        ]

    def to_dict(self) -> dict:
        """Lossless JSON-able spec; :meth:`from_dict` inverts it."""
        return {
            "num_messages": int(self.num_messages),
            "message_bytes": int(self.message_bytes),
            "seed": int(self.seed),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MessageTrafficSpec":
        """Rebuild and validate a traffic spec from :meth:`to_dict` output."""
        if not isinstance(data, dict):
            raise SessionError(f"traffic: must be a mapping, got {type(data).__name__}")
        known = {"num_messages", "message_bytes", "seed"}
        unknown = set(data) - known
        if unknown:
            raise SessionError(f"traffic: unknown field(s): {sorted(unknown)}")
        kwargs = {k: data[k] for k in known if k in data}
        return cls(**kwargs)


@dataclass(frozen=True)
class SessionSpec(SpecFile):
    """A complete, serializable seed-synchronized session.

    Attributes
    ----------
    name:
        Identifier used in reports, file names and cache keys.
    config:
        The BHSS link configuration; ``config.payload_bytes`` is the
        session MTU and ``config.seed`` the pre-shared rendezvous seed.
    traffic:
        The deterministic message workload
        (:class:`MessageTrafficSpec`).
    jammer:
        Registry spec of the attacker (``{"type": "follower", ...}``).
    seed_generator:
        Registry spec of the shared hop-seed stream
        (:mod:`repro.protocol.hopseed`).
    snr_db, sjr_db:
        Operating-point grid; the session runs once per point.
    seed:
        Run seed: medium noise, handshake substreams, whitening key.
    packets_per_epoch:
        Data packets per hop-seed epoch.
    crc_fail_threshold:
        Consecutive-CRC-failure desync watchdog threshold.
    min_epoch_utilization:
        Hop-utilization watchdog: an epoch delivering a smaller accepted
        fraction than this is declared desynced.
    resync_retries:
        Re-sync rounds before degrading to the static widest band
        (``None`` = the ``REPRO_SYNC_RETRIES`` knob, default 3).
    sync_timeout:
        Handshake attempts per re-sync round (``None`` = the
        ``REPRO_SYNC_TIMEOUT`` knob, default 4).
    backoff_base:
        Idle slots before re-sync round ``r`` are
        ``backoff_base << r`` (deterministic exponential backoff).
    max_slots:
        Overall slot budget; 0 sizes it automatically from the traffic.
    description:
        Free-text note carried through the JSON file.
    """

    name: str
    config: BHSSConfig = field(default_factory=BHSSConfig.paper_default)
    traffic: MessageTrafficSpec = field(default_factory=MessageTrafficSpec)
    jammer: dict = field(default_factory=lambda: {"type": "none"})
    seed_generator: dict = field(default_factory=lambda: {"type": "counter", "key": 0})
    snr_db: tuple[float, ...] = (15.0,)
    sjr_db: tuple[float, ...] = (-10.0,)
    seed: int = 0
    packets_per_epoch: int = 8
    crc_fail_threshold: int = 4
    min_epoch_utilization: float = 0.25
    resync_retries: int | None = None
    sync_timeout: int | None = None
    backoff_base: int = 2
    max_slots: int = 0
    description: str = ""

    KIND = "session"
    Error = SessionError
    FIELDS = frozenset({
        "name", "description", "config", "traffic", "jammer", "seed_generator",
        "grid", "seed", "packets_per_epoch", "crc_fail_threshold",
        "min_epoch_utilization", "resync_retries", "sync_timeout",
        "backoff_base", "max_slots",
    })

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise SessionError("name: must be a non-empty string")
        if not isinstance(self.config, BHSSConfig):
            raise SessionError("config: must be a BHSSConfig (use from_dict for specs)")
        if not isinstance(self.traffic, MessageTrafficSpec):
            raise SessionError("traffic: must be a MessageTrafficSpec")
        if not isinstance(self.jammer, dict):
            raise SessionError("jammer: must be a registry spec mapping")
        if not isinstance(self.seed_generator, dict):
            raise SessionError("seed_generator: must be a registry spec mapping")
        object.__setattr__(self, "snr_db", grid_values(self.snr_db, "grid.snr_db", SessionError))
        object.__setattr__(self, "sjr_db", grid_values(self.sjr_db, "grid.sjr_db", SessionError))
        require_int(self.seed, "seed", SessionError)
        require_int(self.packets_per_epoch, "packets_per_epoch", SessionError, minimum=1)
        require_int(self.crc_fail_threshold, "crc_fail_threshold", SessionError, minimum=1)
        utilization = require_number(
            self.min_epoch_utilization, "min_epoch_utilization", SessionError
        )
        if not 0.0 <= utilization <= 1.0:
            raise SessionError(
                f"min_epoch_utilization: must be in [0, 1], got {utilization!r}"
            )
        object.__setattr__(self, "min_epoch_utilization", utilization)
        retries = self.resync_retries
        object.__setattr__(
            self,
            "resync_retries",
            default_sync_retries() if retries is None
            else require_int(retries, "resync_retries", SessionError, minimum=1),
        )
        timeout = self.sync_timeout
        object.__setattr__(
            self,
            "sync_timeout",
            default_sync_timeout() if timeout is None
            else require_int(timeout, "sync_timeout", SessionError, minimum=1),
        )
        require_int(self.backoff_base, "backoff_base", SessionError, minimum=1)
        require_int(self.max_slots, "max_slots", SessionError, minimum=0)
        if not isinstance(self.description, str):
            raise SessionError("description: must be a string")
        mtu = self.config.payload_bytes
        minimum_mtu = max(MIN_MTU, HEADER_BYTES + HANDSHAKE_CHUNK_BYTES)
        if mtu < minimum_mtu:
            raise SessionError(
                f"config.payload_bytes: session MTU must be >= {minimum_mtu} bytes "
                f"(5-byte fragment header + {HANDSHAKE_CHUNK_BYTES}-byte handshake), got {mtu}"
            )

    # -- construction ---------------------------------------------------------

    def validate(self) -> "SessionSpec":
        """Deep-check the component specs (builds them once); returns self."""
        try:
            jammer_from_spec(self.jammer, sample_rate=self.config.sample_rate)
        except ValueError as exc:
            raise SessionError(f"jammer: {exc}") from None
        try:
            seed_generator_from_spec(self.seed_generator)
        except ValueError as exc:
            raise SessionError(f"seed_generator: {exc}") from None
        return self

    def points(self) -> list[tuple[float, float]]:
        """The (snr_db, sjr_db) grid points, SNR-major order."""
        return [(snr, sjr) for snr in self.snr_db for sjr in self.sjr_db]

    def slot_budget(self) -> int:
        """The effective slot budget (auto-sized when ``max_slots`` is 0).

        The automatic budget gives every fragment several transmission
        opportunities plus headroom for handshakes and backoff, so a
        benign session always finishes well inside it.
        """
        if self.max_slots:
            return self.max_slots
        fragments = self.num_fragments()
        return 8 * fragments + 24 * int(self.resync_retries or 1) + 64

    def num_fragments(self) -> int:
        """Total DATA fragments the traffic splits into at this MTU."""
        capacity = self.config.payload_bytes - HEADER_BYTES
        body = self.traffic.message_bytes + 4
        per_message = max(1, -(-body // capacity))
        return per_message * self.traffic.num_messages

    def run(
        self,
        executor: "ParallelExecutor | None" = None,
        cache: "ResultCache | str | bool | None" = None,
    ) -> "SweepResult":
        """Evaluate the grid; see :func:`repro.protocol.runner.run_session`."""
        from repro.protocol.runner import run_session

        return run_session(self, executor=executor, cache=cache)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        """Lossless JSON-able spec; :meth:`from_dict` inverts it."""
        out: dict = {
            "name": self.name,
            "config": self.config.to_dict(),
            "traffic": self.traffic.to_dict(),
            "jammer": self.jammer,
            "seed_generator": self.seed_generator,
            "grid": {"snr_db": list(self.snr_db), "sjr_db": list(self.sjr_db)},
            "seed": int(self.seed),
            "packets_per_epoch": int(self.packets_per_epoch),
            "crc_fail_threshold": int(self.crc_fail_threshold),
            "min_epoch_utilization": float(self.min_epoch_utilization),
            "resync_retries": int(self.resync_retries or 0),
            "sync_timeout": int(self.sync_timeout or 0),
            "backoff_base": int(self.backoff_base),
            "max_slots": int(self.max_slots),
        }
        if self.description:
            out["description"] = self.description
        return out

    @classmethod
    def from_dict(cls, data: object, source: str | None = None) -> "SessionSpec":
        """Rebuild and validate a session spec from :meth:`to_dict` output.

        ``source`` (e.g. a file path) prefixes error messages.  Component
        specs are deep-validated so a bad field fails here, not mid-run.
        """
        return cls._read(data, source, cls._parse)

    @classmethod
    def _parse(cls, data: dict) -> "SessionSpec":
        grid = cls._grid(data)
        try:
            config = BHSSConfig.from_dict(data.get("config", {}))
        except ValueError as exc:
            raise SessionError(f"config: {exc}") from None
        kwargs: dict = {
            "name": data["name"],
            "config": config,
            "traffic": MessageTrafficSpec.from_dict(data.get("traffic", {})),
            "jammer": data.get("jammer", {"type": "none"}),
            "seed_generator": data.get("seed_generator", {"type": "counter", "key": 0}),
            "description": data.get("description", ""),
            **grid,
        }
        for key in (
            "seed", "packets_per_epoch", "crc_fail_threshold",
            "min_epoch_utilization", "resync_retries", "sync_timeout",
            "backoff_base", "max_slots",
        ):
            if key in data:
                kwargs[key] = data[key]
        return cls(**kwargs).validate()
