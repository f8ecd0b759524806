"""The base of the scenario, network, arena and session spec files, and their field readers.

:class:`SpecFile` gives every kind the same ``save``, ``load``,
``with_overrides``, opening checks and ``"<source>: "`` error prefix;
each kind keeps its fields and its own ``from_dict``.  Every kind's
error subclasses :class:`SpecError`.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from typing import Any, Callable, ClassVar, TypeVar, cast

from repro.utils.validation import read_spec_file

__all__ = ["SpecError", "SpecFile", "grid_values", "require_int", "require_number"]

S = TypeVar("S", bound="SpecFile")


class SpecError(ValueError):
    """A spec failed validation; the message names the field."""


def require_int(
    value: object, path: str, error: type[SpecError], minimum: int | None = None
) -> int:
    """``value`` as an ``int`` (not a ``bool``), at least ``minimum``; else raise ``error``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise error(f"{path}: must be >= {minimum}, got {value}")
    return int(value)


def require_number(value: object, path: str, error: type[SpecError]) -> float:
    """``value`` as a ``float`` (an ``int`` or ``float``, not a ``bool``); else raise ``error``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{path}: expected a number, got {value!r}")
    return float(value)


def grid_values(values: object, path: str, error: type[SpecError]) -> tuple[float, ...]:
    """A non-empty list of numbers as a tuple of floats; else raise ``error``."""
    if not isinstance(values, (list, tuple)) or not values:
        raise error(f"{path}: must be a non-empty list of numbers")
    out = []
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise error(f"{path}[{i}]: expected a number, got {v!r}")
        out.append(float(v))
    return tuple(out)


class SpecFile:
    """File I/O and the shared checks of a frozen-dataclass spec kind.

    A kind sets ``KIND`` (its noun in messages and its payload key),
    ``Error`` (its :class:`SpecError` subclass) and ``FIELDS`` (the
    top-level keys its files may carry), and defines ``to_dict`` and
    ``from_dict``; its ``from_dict`` hands the kind-specific parse to
    :meth:`_read`.
    """

    KIND: ClassVar[str]
    Error: ClassVar[type[SpecError]]
    FIELDS: ClassVar[frozenset[str]]

    def to_dict(self) -> dict:
        """Lossless JSON-able spec; each kind defines it."""
        raise NotImplementedError

    @classmethod
    def from_dict(cls: type[S], data: object, source: str | None = None) -> S:
        """Rebuild and validate a spec from :meth:`to_dict` output; each kind defines it."""
        raise NotImplementedError

    @classmethod
    def _read(cls, data: object, source: str | None, parse: Callable[[dict], S]) -> S:
        """``parse(data)`` after the opening checks; errors carry ``"<source>: "``."""
        try:
            if not isinstance(data, dict):
                raise cls.Error(f"{cls.KIND} spec must be a mapping, got {type(data).__name__}")
            unknown = set(data) - cls.FIELDS
            if unknown:
                raise cls.Error(f"unknown {cls.KIND} field(s): {sorted(unknown)}")
            if "name" not in data:
                raise cls.Error("name: field is required")
            return parse(data)
        except cls.Error as exc:
            if source:
                raise cls.Error(f"{source}: {exc}") from None
            raise

    @classmethod
    def _grid(cls, data: dict) -> dict:
        """The ``grid`` mapping, holding at most ``snr_db`` and ``sjr_db``."""
        grid = data.get("grid", {})
        if not isinstance(grid, dict):
            raise cls.Error("grid: must be a mapping with snr_db/sjr_db lists")
        unknown = set(grid) - {"snr_db", "sjr_db"}
        if unknown:
            raise cls.Error(f"unknown grid field(s): {sorted(unknown)}")
        return grid

    def with_overrides(self: S, **changes: Any) -> S:
        """A copy with dataclass fields replaced (validation re-runs)."""
        return replace(cast(Any, self), **changes)

    def save(self, path: str) -> str:
        """Write the spec as pretty-printed JSON; returns the path."""
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    @classmethod
    def load(cls: type[S], path: str) -> S:
        """Read and validate a spec JSON file; errors name the path."""
        return cls.from_dict(read_spec_file(path, cls.KIND, cls.Error), source=path)
