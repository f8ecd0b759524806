"""Per-file AST checkers: RNG, dtype, mutable-state rules.

Each rule documents the project invariant it guards and points the
finding message at the sanctioned alternative, so a failure reads as a
fix recipe rather than a style complaint.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from repro.lint.engine import Finding, Rule, SourceFile

__all__ = [
    "RngDisciplineRule",
    "DtypeDisciplineRule",
    "MutableDefaultRule",
    "HiddenGlobalRule",
    "dotted_name",
]


def dotted_name(node: ast.expr) -> str | None:
    """Resolve ``np.random.default_rng``-style attribute chains to a string."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class RngDisciplineRule(Rule):
    """All entropy flows through :mod:`repro.utils.rng` substreams.

    Bit-identical serial == parallel == batched execution — and the
    paper's unpredictability argument itself — both die the moment a
    component draws from ``np.random`` global state or spins up its own
    ``default_rng()``.  Outside ``utils/rng.py``, every Generator must
    come from ``make_rng``/``child_rng`` (or be threaded in as an
    argument), so each subsystem owns an independent, seeded substream.
    """

    id = "rng-discipline"
    description = (
        "no np.random.* or default_rng() calls outside utils/rng.py; "
        "thread Generators via make_rng/child_rng substreams"
    )

    ALLOWED_SUFFIXES = ("utils/rng.py",)

    def check_source(self, src: SourceFile) -> Iterator[Finding]:
        if src.relpath.endswith(self.ALLOWED_SUFFIXES):
            return
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if name in ("default_rng", "np.random.default_rng", "numpy.random.default_rng"):
                yield Finding(
                    src.relpath, node.lineno, node.col_offset, self.id,
                    "bare default_rng() creates an untracked stream; use "
                    "repro.utils.rng.make_rng/child_rng so the draw is a seeded substream",
                )
            elif name.startswith(("np.random.", "numpy.random.")):
                attr = name.rsplit(".", 1)[1]
                if attr in ("Generator", "SeedSequence", "BitGenerator", "PCG64"):
                    continue  # type references (isinstance checks) are fine
                yield Finding(
                    src.relpath, node.lineno, node.col_offset, self.id,
                    f"{name}() draws from numpy global state, which is invisible to the "
                    "substream contract; route it through repro.utils.rng",
                )


class DtypeDisciplineRule(Rule):
    """Signal-chain allocations must state their dtype explicitly.

    ``np.zeros(n)`` silently allocates float64 and one stray buffer
    upcasts the whole complex chain; the batched engine's bit-for-bit
    equality with the serial path depends on every array keeping the
    dtype the serial path used.  Scope: the waveform-producing packages
    (``dsp``, ``phy``, ``channel``, ``jamming``, ``spread``).
    """

    id = "dtype-discipline"
    description = (
        "np.zeros/ones/empty/full in the signal chain must pass an explicit dtype"
    )

    PACKAGES = ("dsp", "phy", "channel", "jamming", "spread")
    #: allocator -> index of the positional dtype argument
    ALLOCATORS: ClassVar[dict[str, int]] = {"zeros": 1, "ones": 1, "empty": 1, "full": 2}

    def check_source(self, src: SourceFile) -> Iterator[Finding]:
        if not src.in_package(*self.PACKAGES):
            return
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if len(parts) != 2 or parts[0] not in ("np", "numpy"):
                continue
            if parts[1] not in self.ALLOCATORS:
                continue
            dtype_pos = self.ALLOCATORS[parts[1]]
            has_dtype = any(kw.arg == "dtype" for kw in node.keywords) or (
                len(node.args) > dtype_pos
            )
            if not has_dtype:
                yield Finding(
                    src.relpath, node.lineno, node.col_offset, self.id,
                    f"{name}() without dtype= allocates float64 by default; state the "
                    "chain dtype explicitly so promotions are visible in review",
                )


#: call targets that produce fresh mutable objects (unsafe as defaults)
_MUTABLE_CALLS = {
    "list", "dict", "set", "bytearray", "defaultdict", "OrderedDict", "Counter",
    "np.array", "np.zeros", "np.ones", "np.empty", "np.full", "np.asarray",
    "numpy.array", "numpy.zeros", "numpy.ones", "numpy.empty", "numpy.full",
    "numpy.asarray",
}
#: calls that return immutable values and are safe to evaluate once
_IMMUTABLE_CALLS = {
    "int", "float", "bool", "complex", "str", "bytes", "tuple", "frozenset",
}


def _mutable_value(node: ast.expr) -> str | None:
    """Why ``node`` is a mutable default, or ``None`` when it is safe."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return "a mutable literal"
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is None:
            return None
        if name in _MUTABLE_CALLS:
            return f"a {name}() call"
        if name.split(".")[-1] in ("field",) or name in _IMMUTABLE_CALLS:
            return None
        return None
    return None


class MutableDefaultRule(Rule):
    """No mutable default arguments, on functions or dataclass fields.

    A mutable default is evaluated once and shared by every call (and by
    every dataclass instance), which is exactly the hidden cross-run
    state the determinism contract forbids.  Use ``None`` + construction
    in the body, or ``dataclasses.field(default_factory=...)``.
    """

    id = "mutable-default"
    description = (
        "function and dataclass defaults must not be mutable; "
        "use None or field(default_factory=...)"
    )

    def check_source(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]
                for d in defaults:
                    why = _mutable_value(d)
                    if why:
                        yield Finding(
                            src.relpath, d.lineno, d.col_offset, self.id,
                            f"default of {node.name}() is {why}, shared across calls; "
                            "use None and build it in the body",
                        )
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    value = None
                    target: ast.expr | None = None
                    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                        value, target = stmt.value, stmt.target
                    elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                        value, target = stmt.value, stmt.targets[0]
                    if value is None:
                        continue
                    # UPPER_CASE class attributes are declared constants
                    # (rule tables, registries) — instance fields are the
                    # lowercase ones dataclasses turn into per-object state.
                    if isinstance(target, ast.Name):
                        bare = target.id.lstrip("_")
                        if bare and bare == bare.upper():
                            continue
                    why = _mutable_value(value)
                    if why:
                        yield Finding(
                            src.relpath, value.lineno, value.col_offset, self.id,
                            f"class attribute default in {node.name} is {why}, shared "
                            "by every instance; use field(default_factory=...)",
                        )


class HiddenGlobalRule(Rule):
    """Module-level mutable state must be an explicit UPPER_CASE registry.

    Lowercase module globals holding lists/dicts/sets are invisible
    shared state: a worker that mutates one diverges from the serial
    path with no seed anywhere in sight.  The sanctioned pattern is an
    UPPER_CASE name (registries like ``JAMMER_REGISTRY``), which marks
    the object as an import-time constant surface.
    """

    id = "hidden-global"
    description = (
        "module-level mutable containers must be UPPER_CASE registry constants"
    )

    def check_source(self, src: SourceFile) -> Iterator[Finding]:
        for stmt in src.tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or _mutable_value(value) is None:
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                name = target.id
                bare = name.lstrip("_")
                if name.startswith("__") or not bare or bare == bare.upper():
                    continue
                yield Finding(
                    src.relpath, stmt.lineno, stmt.col_offset, self.id,
                    f"module global {name!r} is mutable shared state; make it an "
                    "UPPER_CASE constant registry or move it into a class/function",
                )
