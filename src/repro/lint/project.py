"""Whole-tree project rules: registries, env knobs, mypy baseline.

These checkers cross-reference things no single file shows: the scenario
registries against their spec protocol, ``REPRO_*`` literals against the
documentation, and the mypy override list in ``pyproject.toml`` against
its frozen baseline.
"""

from __future__ import annotations

import ast
import inspect
import os
import re
from typing import Iterator

from repro.lint.engine import Finding, ProjectContext, Rule

__all__ = [
    "RegistryRoundtripRule",
    "KnobDocsRule",
    "MypyBaselineRule",
    "collect_code_knobs",
    "documented_knobs",
    "STRICT_MODULES",
    "frozen_baseline",
    "pyproject_baseline",
]

_KNOB_RE = re.compile(r"^REPRO_[A-Z][A-Z0-9_]*$")
_DOC_KNOB_RE = re.compile(r"\b(REPRO_[A-Z][A-Z0-9_]*)\b")

#: packages that must stay mypy-strict — never allowed in the baseline
STRICT_MODULES = (
    "repro.arena",
    "repro.core",
    "repro.dsp",
    "repro.network",
    "repro.protocol",
    "repro.scenario",
    "repro.utils.rng",
)

#: docs that must collectively document every code knob
KNOB_DOCS = ("docs/API.md", "EXPERIMENTS.md")
#: docs that must never mention a knob the code does not read
KNOB_DOC_SURFACES = ("docs/API.md", "EXPERIMENTS.md", "README.md")


class RegistryRoundtripRule(Rule):
    """Registered scenario components satisfy the spec round-trip protocol.

    A jammer/channel class reachable from a scenario file must be
    rebuildable *from* a scenario file: jammers override ``spec()`` and
    inherit/override ``from_spec``; channels expose ``spec()`` and
    ``apply()``; impairments keep their ``to_dict``/``from_dict`` pair;
    named hop patterns survive ``pattern_spec`` -> ``pattern_from_spec``;
    hop-seed generators survive ``verify_seed_generator_roundtrip``; and
    the session/traffic spec dataclasses survive a ``to_dict`` ->
    ``from_dict`` -> ``to_dict`` round-trip.
    """

    id = "registry-roundtrip"
    description = "registry classes must round-trip spec()/from_spec (scenario contract)"

    def check_project(self, ctx: ProjectContext) -> Iterator[Finding]:
        from repro.channel.impairments import Impairments
        from repro.channel.registry import CHANNEL_REGISTRY
        from repro.hopping.patterns import PATTERN_NAMES, pattern_from_spec, pattern_spec
        from repro.jamming.base import Jammer
        from repro.jamming.registry import JAMMER_REGISTRY
        from repro.protocol.hopseed import (
            SEED_GENERATOR_REGISTRY,
            verify_seed_generator_roundtrip,
        )
        from repro.protocol.spec import MessageTrafficSpec, SessionSpec

        for name, cls in sorted(JAMMER_REGISTRY.items()):
            path, line = _class_location(ctx, cls)
            if cls.spec is Jammer.spec:
                yield Finding(
                    path, line, 0, self.id,
                    f"jammer {name!r} ({cls.__name__}) does not override spec(); its "
                    "instances cannot be serialized into scenarios or cache keys",
                )
            if not callable(getattr(cls, "from_spec", None)):
                yield Finding(
                    path, line, 0, self.id,
                    f"jammer {name!r} ({cls.__name__}) has no from_spec()",
                )
        for name, cls in sorted(CHANNEL_REGISTRY.items()):
            path, line = _class_location(ctx, cls)
            for method in ("spec", "apply"):
                if not callable(getattr(cls, method, None)):
                    yield Finding(
                        path, line, 0, self.id,
                        f"channel {name!r} ({cls.__name__}) has no {method}()",
                    )
        path, line = _class_location(ctx, Impairments)
        for method in ("to_dict", "from_dict"):
            if not callable(getattr(Impairments, method, None)):
                yield Finding(
                    path, line, 0, self.id, f"Impairments has no {method}()",
                )
        for name in PATTERN_NAMES:
            if pattern_from_spec(pattern_spec(name)) != name:
                yield Finding(
                    "src/repro/hopping/patterns.py", 1, 0, self.id,
                    f"hop pattern {name!r} does not survive pattern_spec round-trip",
                )
        for name, cls in sorted(SEED_GENERATOR_REGISTRY.items()):
            path, line = _class_location(ctx, cls)
            try:
                verify_seed_generator_roundtrip(cls())
            except (TypeError, ValueError) as exc:
                yield Finding(
                    path, line, 0, self.id,
                    f"seed generator {name!r} ({cls.__name__}) fails its spec "
                    f"round-trip audit: {exc}",
                )
        for spec_cls in (MessageTrafficSpec, SessionSpec):
            path, line = _class_location(ctx, spec_cls)
            try:
                instance = spec_cls(name="lint-roundtrip") if spec_cls is SessionSpec else spec_cls()
                first = instance.to_dict()
                second = type(instance).from_dict(first).to_dict()
            except ValueError as exc:
                yield Finding(
                    path, line, 0, self.id,
                    f"{spec_cls.__name__} default instance fails its dict round-trip: {exc}",
                )
                continue
            if first != second:
                drifted = sorted(
                    k for k in set(first) | set(second) if first.get(k) != second.get(k)
                )
                yield Finding(
                    path, line, 0, self.id,
                    f"{spec_cls.__name__}.to_dict() does not round-trip through "
                    f"from_dict(); field(s) {drifted} drift",
                )


class KnobDocsRule(Rule):
    """``REPRO_*`` environment knobs: code and docs must agree.

    Every knob the code reads must be documented (collectively across
    ``docs/API.md`` and ``EXPERIMENTS.md``), and no doc may advertise a
    knob the code no longer reads.  This replaces the ad-hoc hardcoded
    set in the docs-consistency tests with the scanned ground truth.
    """

    id = "knob-docs"
    description = "REPRO_* env vars read in code and documented knobs must match"

    def check_project(self, ctx: ProjectContext) -> Iterator[Finding]:
        code = collect_code_knobs(ctx)
        documented: set[str] = set()
        for doc in KNOB_DOCS:
            text = ctx.read(doc)
            if text is not None:
                documented |= documented_knobs(text)
        for knob, (path, line) in sorted(code.items()):
            if knob not in documented:
                yield Finding(
                    path, line, 0, self.id,
                    f"env knob {knob} is read here but documented in none of "
                    f"{list(KNOB_DOCS)}",
                )
        for doc in KNOB_DOC_SURFACES:
            text = ctx.read(doc)
            if text is None:
                continue
            for lineno, line_text in enumerate(text.splitlines(), start=1):
                for match in _DOC_KNOB_RE.finditer(line_text):
                    if match.group(1) not in code:
                        yield Finding(
                            doc, lineno, match.start(), self.id,
                            f"doc mentions env knob {match.group(1)}, which no code reads",
                        )


class MypyBaselineRule(Rule):
    """The mypy strictness baseline is frozen and can only shrink.

    ``pyproject.toml`` carries the ``ignore_errors`` override list for
    not-yet-strict packages; this rule compares it against the committed
    snapshot (``repro/lint/mypy_baseline.txt``).  Adding a module to the
    override list without touching the snapshot — or sneaking a strict
    package (``core``/``dsp``/``scenario``/``utils.rng``) into either —
    is a lint failure, so the typing debt is visible in every diff.
    """

    id = "mypy-baseline"
    description = "pyproject mypy ignore_errors overrides must match the frozen baseline"

    def check_project(self, ctx: ProjectContext) -> Iterator[Finding]:
        try:
            import tomllib
        except ImportError:  # python 3.10: stdlib has no TOML reader; CI (3.11+) enforces
            return
        text = ctx.read("pyproject.toml")
        if text is None:
            yield Finding("pyproject.toml", 1, 0, self.id, "pyproject.toml not found")
            return
        config = tomllib.loads(text)
        current = pyproject_baseline(config)
        frozen = frozen_baseline()
        for module in sorted(current - frozen):
            yield Finding(
                "pyproject.toml", _toml_line(text, module), 0, self.id,
                f"mypy baseline grew: {module!r} is ignore_errors in pyproject.toml but "
                "not in repro/lint/mypy_baseline.txt — annotate it instead, or (last "
                "resort) add it to the frozen baseline in the same reviewed diff",
            )
        for module in sorted(frozen - current):
            yield Finding(
                "src/repro/lint/mypy_baseline.txt", 1, 0, self.id,
                f"stale frozen baseline entry {module!r}: pyproject.toml no longer "
                "ignores it — delete the line so the baseline only shrinks",
            )
        for module in sorted(current):
            if any(_pattern_covers(module, s) for s in STRICT_MODULES):
                yield Finding(
                    "pyproject.toml", _toml_line(text, module), 0, self.id,
                    f"strict package {module!r} must not be in the mypy ignore baseline",
                )


# -- shared helpers -----------------------------------------------------------


def collect_code_knobs(ctx: ProjectContext) -> dict[str, tuple[str, int]]:
    """``REPRO_*`` string literals in scanned sources -> first (path, line).

    Only library sources count (``src/``); fixture strings in tests and
    docs examples are not knob reads.
    """
    knobs: dict[str, tuple[str, int]] = {}
    for src in ctx.sources:
        if not src.relpath.startswith("src/"):
            continue
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if _KNOB_RE.match(node.value) and node.value not in knobs:
                    knobs[node.value] = (src.relpath, node.lineno)
    return knobs


def documented_knobs(text: str) -> set[str]:
    """Every ``REPRO_*`` name mentioned in a documentation text."""
    return set(_DOC_KNOB_RE.findall(text))


def frozen_baseline() -> set[str]:
    """The committed mypy baseline module list (comments/blank lines skipped)."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "mypy_baseline.txt")
    with open(path, encoding="utf-8") as fh:
        return {
            line.strip()
            for line in fh
            if line.strip() and not line.strip().startswith("#")
        }


def pyproject_baseline(config: dict) -> set[str]:
    """Modules listed with ``ignore_errors = true`` in mypy overrides."""
    overrides = config.get("tool", {}).get("mypy", {}).get("overrides", [])
    modules: set[str] = set()
    for entry in overrides:
        if not entry.get("ignore_errors"):
            continue
        listed = entry.get("module", [])
        if isinstance(listed, str):
            listed = [listed]
        modules.update(listed)
    return modules


def _pattern_covers(pattern: str, strict: str) -> bool:
    """Whether a mypy module pattern reaches into a strict package.

    A plain pattern names exactly one module; ``pkg.*`` names the package
    and its whole subtree.  Either way, touching ``strict`` itself or any
    module below it is a violation.
    """
    if pattern.endswith(".*"):
        base = pattern[:-2]
        return (
            base == strict
            or base.startswith(strict + ".")
            or strict.startswith(base + ".")
        )
    return pattern == strict or pattern.startswith(strict + ".")


def _toml_line(text: str, needle: str) -> int:
    """First pyproject line quoting ``needle`` (for annotation targets)."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if f'"{needle}"' in line or f"'{needle}'" in line:
            return lineno
    return 1


def _class_location(ctx: ProjectContext, cls: type) -> tuple[str, int]:
    try:
        path = inspect.getsourcefile(cls)
        _, line = inspect.getsourcelines(cls)
    except (OSError, TypeError):
        return "src/repro", 1
    rel = os.path.relpath(path or "src/repro", os.path.abspath(ctx.root))
    return rel.replace(os.sep, "/"), line
