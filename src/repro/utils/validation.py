"""Lightweight argument validation helpers.

These raise early, with messages that name the offending parameter, so that
configuration mistakes (a negative bandwidth, an even filter length where an
odd one is required, ...) surface at object construction instead of as NaNs
deep inside a simulation run.
"""

from __future__ import annotations

import json
import os
from typing import Any

import numpy as np

__all__ = [
    "ensure_positive",
    "ensure_non_negative",
    "ensure_in_range",
    "ensure_odd",
    "ensure_power_of_two",
    "ensure_probability_vector",
    "as_complex_array",
    "as_float_array",
    "read_spec_file",
    "env_int",
]


def ensure_positive(value: float, name: str) -> float:
    """Return ``value`` if strictly positive, else raise ``ValueError``."""
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def ensure_non_negative(value: float, name: str) -> float:
    """Return ``value`` if >= 0, else raise ``ValueError``."""
    if not np.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be a non-negative finite number, got {value!r}")
    return float(value)


def ensure_in_range(value: float, low: float, high: float, name: str) -> float:
    """Return ``value`` if ``low <= value <= high``, else raise."""
    if not np.isfinite(value) or value < low or value > high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    return float(value)


def ensure_odd(value: int, name: str) -> int:
    """Return ``value`` if it is an odd integer, else raise ``ValueError``."""
    ivalue = int(value)
    if ivalue != value or ivalue % 2 == 0:
        raise ValueError(f"{name} must be an odd integer, got {value!r}")
    return ivalue


def ensure_power_of_two(value: int, name: str) -> int:
    """Return ``value`` if it is a positive power of two, else raise."""
    ivalue = int(value)
    if ivalue != value or ivalue <= 0 or (ivalue & (ivalue - 1)) != 0:
        raise ValueError(f"{name} must be a positive power of two, got {value!r}")
    return ivalue


def ensure_probability_vector(weights, name: str) -> np.ndarray:
    """Validate and normalize a vector of non-negative weights.

    Returns the weights scaled to sum to exactly 1.  Raises if any weight is
    negative, non-finite, or if the vector is empty or sums to zero.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D vector, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.any(w < 0):
        raise ValueError(f"{name} contains negative entries")
    total = w.sum()
    if total <= 0:
        raise ValueError(f"{name} must have positive total weight")
    return w / total


def as_complex_array(x, name: str = "signal") -> np.ndarray:
    """Coerce input to a 1-D complex128 array."""
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    return arr.astype(np.complex128, copy=False)


def as_float_array(x, name: str = "values") -> np.ndarray:
    """Coerce input to a 1-D float64 array."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    return arr


def read_spec_file(path: str, noun: str, error: type[Exception]) -> Any:
    """Parse the JSON spec file at ``path``.

    A file that cannot be read raises ``error("<path>: cannot read <noun>
    file (...)")``; one that is not JSON raises ``error("<path>: invalid
    JSON (...)")``.  Every spec loader and the CLI read files through here.
    """
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"{path}: cannot read {noun} file ({exc})") from None
    except ValueError as exc:
        raise error(f"{path}: invalid JSON ({exc})") from None


def env_int(name: str, default: int, minimum: int, error: type[Exception] = ValueError) -> int:
    """The integer environment variable ``name``; ``default`` when unset or blank.

    A value that is not an integer raises ``error("<name> must be an
    integer, got ...")``; one below ``minimum`` raises ``error("<name>
    must be >= <minimum>, got ...")``.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw)
    except ValueError:
        raise error(f"{name} must be an integer, got {raw!r}") from None
    if value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")
    return value
