"""String-keyed jammer registry: specs in, attackers out.

Every jammer in the library carries a JSON-able construction spec
(:meth:`repro.jamming.base.Jammer.spec`) whose ``"type"`` field names the
class in this registry.  :func:`jammer_from_spec` inverts it, which turns
attacker models into plain data: a scenario file, a cache key, or a remote
worker can all describe "a 2.5 MHz noise jammer" identically without
shipping Python objects.

The registry is open — :func:`register_jammer` admits user-defined
attackers, after which their specs flow through scenarios and caches like
the built-in ones.
"""

from __future__ import annotations

import functools
import inspect

import numpy as np

from repro.jamming.adaptive import (
    FollowerJammer,
    LatentReactiveJammer,
    MultiToneJammer,
    RepeaterJammer,
)
from repro.jamming.base import Jammer, NoJammer
from repro.jamming.comb import CombJammer
from repro.jamming.hopping_jammer import HoppingJammer
from repro.jamming.misc import PulsedJammer, SweepJammer, ToneJammer
from repro.jamming.noise import BandlimitedNoiseJammer
from repro.jamming.reactive import MatchedReactiveJammer

__all__ = [
    "JAMMER_REGISTRY",
    "register_jammer",
    "jammer_from_spec",
    "jammer_names",
    "verify_spec_roundtrip",
]

#: registry key -> jammer class; keys are the ``"type"`` values of specs.
JAMMER_REGISTRY: dict[str, type[Jammer]] = {
    "none": NoJammer,
    "noise": BandlimitedNoiseJammer,
    "tone": ToneJammer,
    "sweep": SweepJammer,
    "pulsed": PulsedJammer,
    "comb": CombJammer,
    "hopping": HoppingJammer,
    "reactive": MatchedReactiveJammer,
    "latent-reactive": LatentReactiveJammer,
    "repeater": RepeaterJammer,
    "multitone": MultiToneJammer,
    "follower": FollowerJammer,
}


def jammer_names() -> list[str]:
    """Registered jammer type names, sorted."""
    return sorted(JAMMER_REGISTRY)


def register_jammer(name: str, cls: type[Jammer]) -> None:
    """Admit a jammer class under a new registry key.

    The class's ``spec()`` must return ``{"type": name, ...}`` for specs
    to round-trip; re-registering an existing key is rejected so library
    names stay stable.
    """
    key = str(name).lower()
    if key in JAMMER_REGISTRY:
        raise ValueError(f"jammer type {key!r} is already registered")
    if not (isinstance(cls, type) and issubclass(cls, Jammer)):
        raise TypeError("cls must be a Jammer subclass")
    JAMMER_REGISTRY[key] = cls


@functools.cache
def _accepted_parameters(cls: type[Jammer]) -> frozenset[str]:
    return frozenset(inspect.signature(cls.__init__).parameters) - {"self"}


def _inject_sample_rate(params: dict, sample_rate: float) -> None:
    """Recursively default ``sample_rate`` into nested ``"inner"`` specs.

    Wrapper jammers (pulsed-in-pulsed, and any future composite) carry
    their wrapped jammer as an ``"inner"`` spec mapping; every level that
    accepts a ``sample_rate`` inherits the link's rate unless the spec
    pins its own.  Recursing (rather than patching one level) is what
    lets arbitrarily nested wrappers ride a scenario's rate.
    """
    inner = params.get("inner")
    if not isinstance(inner, dict):
        return
    inner = dict(inner)
    params["inner"] = inner
    inner_type = inner.get("type")
    if isinstance(inner_type, str) and inner_type.lower() in JAMMER_REGISTRY:
        inner_cls = JAMMER_REGISTRY[inner_type.lower()]
        if "sample_rate" in _accepted_parameters(inner_cls):
            inner.setdefault("sample_rate", float(sample_rate))
    _inject_sample_rate(inner, sample_rate)


def jammer_from_spec(spec: dict | Jammer, sample_rate: float | None = None) -> Jammer:
    """Build a jammer from a registry spec mapping.

    ``spec`` must carry a registered ``"type"``; the remaining fields are
    the constructor parameters, validated by name so typos fail with the
    offending field spelled out.  ``sample_rate`` is injected as a default
    wherever the class accepts one, so scenario specs can omit it and
    inherit the link's rate.  An existing :class:`Jammer` passes through.
    """
    if isinstance(spec, Jammer):
        return spec
    if not isinstance(spec, dict):
        raise ValueError(f"jammer spec must be a mapping, got {type(spec).__name__}")
    if "type" not in spec:
        raise ValueError("jammer spec must contain a 'type' field")
    name = spec["type"]
    if not isinstance(name, str) or name.lower() not in JAMMER_REGISTRY:
        raise ValueError(
            f"unknown jammer type {name!r}; registered types: {jammer_names()}"
        )
    cls = JAMMER_REGISTRY[name.lower()]
    params = {k: v for k, v in spec.items() if k != "type"}
    accepted = _accepted_parameters(cls)
    unknown = set(params) - accepted
    if unknown:
        raise ValueError(
            f"jammer spec field(s) {sorted(unknown)} not recognized for type {name!r}; "
            f"accepted: {sorted(accepted)}"
        )
    if sample_rate is not None:
        if "sample_rate" in accepted:
            params.setdefault("sample_rate", float(sample_rate))
        _inject_sample_rate(params, sample_rate)
    try:
        return cls.from_spec({"type": name, **params})
    except TypeError as exc:
        raise ValueError(f"jammer spec for type {name!r} is incomplete: {exc}") from None


def _spec_values_equal(a: object, b: object) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(np.asarray(a), np.asarray(b)))
    return bool(a == b)


def verify_spec_roundtrip(jammer: Jammer, sample_rate: float | None = None) -> dict:
    """Audit that a jammer's ``spec()`` loses no constructor field.

    Rebuilds the jammer from its own spec and fails with a *field-named*
    error when (a) the rebuilt instance's spec drifts from the original,
    or (b) a constructor parameter absent from the spec has a different
    value on the rebuilt instance — the signature of a field silently
    dropped by ``spec()``.  Returns the validated spec on success.
    """
    spec = jammer.spec()
    rebuilt = jammer_from_spec(spec, sample_rate=sample_rate)
    rebuilt_spec = rebuilt.spec()
    if rebuilt_spec != spec:
        drifted = sorted(
            k
            for k in set(spec) | set(rebuilt_spec)
            if not _spec_values_equal(spec.get(k), rebuilt_spec.get(k))
        )
        raise ValueError(
            f"{type(jammer).__name__}.spec() does not round-trip; "
            f"field(s) {drifted} drift on rebuild"
        )
    for name in sorted(_accepted_parameters(type(jammer)) - set(spec)):
        if not (hasattr(jammer, name) and hasattr(rebuilt, name)):
            continue
        if not _spec_values_equal(getattr(jammer, name), getattr(rebuilt, name)):
            raise ValueError(
                f"{type(jammer).__name__}.spec() silently drops constructor "
                f"field {name!r} (value {getattr(jammer, name)!r} lost on rebuild)"
            )
    return spec
