"""The lint rule engine: source loading, suppression, rule dispatch.

Two kinds of rules plug into the engine:

* **source rules** inspect one parsed file at a time (AST visitors);
* **project rules** see the whole scanned tree plus the repository root,
  so they can cross-reference registries, docs and ``pyproject.toml``.

Findings are plain data (:class:`Finding`), sorted and deduplicated by
the engine; rendering lives in :mod:`repro.lint.report`.

Suppression
-----------
A finding on line *L* is dropped when line *L* of the source carries a
``# repro-lint: ignore[rule-id]`` comment (comma-separated rule ids, or
no bracket to ignore every rule on the line).  The comment must sit on
the first physical line of the flagged statement.  A file whose first
five lines contain ``# repro-lint: skip-file`` is not scanned at all.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = [
    "Finding",
    "SourceFile",
    "Rule",
    "LintReport",
    "ProjectContext",
    "all_rules",
    "run_lint",
    "iter_python_files",
]

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*ignore(?:\[([A-Za-z0-9_,\- ]+)\])?")
_SKIP_FILE_RE = re.compile(r"#\s*repro-lint:\s*skip-file")

#: sentinel for "every rule suppressed on this line"
ALL_RULES = "*"


@dataclass(frozen=True, order=True)
class Finding:
    """One static-analysis finding, pointing at ``path:line:col``.

    ``path`` is repository-relative with forward slashes, so reports are
    stable across machines and usable as GitHub annotation targets.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def to_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


class SourceFile:
    """A parsed Python source file plus its suppression table."""

    def __init__(self, path: str, relpath: str, text: str) -> None:
        self.path = path
        self.relpath = relpath.replace(os.sep, "/")
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=path)
        self.suppressions = self._parse_suppressions(self.lines)
        self.skip = any(_SKIP_FILE_RE.search(line) for line in self.lines[:5])

    @staticmethod
    def _parse_suppressions(lines: list[str]) -> dict[int, set[str]]:
        table: dict[int, set[str]] = {}
        for lineno, line in enumerate(lines, start=1):
            match = _SUPPRESS_RE.search(line)
            if not match:
                continue
            rules = match.group(1)
            if rules is None:
                table[lineno] = {ALL_RULES}
            else:
                table[lineno] = {r.strip() for r in rules.split(",") if r.strip()}
        return table

    def suppressed(self, line: int, rule: str) -> bool:
        rules = self.suppressions.get(line, set())
        return ALL_RULES in rules or rule in rules

    def in_package(self, *names: str) -> bool:
        """Whether this file lives under ``repro/<name>/`` for any name."""
        parts = self.relpath.split("/")
        for name in names:
            if name in parts:
                return True
        return False

    def module_name(self) -> str:
        """Best-effort dotted module path (``repro.dsp.fir`` style)."""
        rel = self.relpath
        for prefix in ("src/",):
            if rel.startswith(prefix):
                rel = rel[len(prefix):]
        rel = rel[:-3] if rel.endswith(".py") else rel
        if rel.endswith("/__init__"):
            rel = rel[: -len("/__init__")]
        return rel.replace("/", ".")


@dataclass
class ProjectContext:
    """Everything a project rule may cross-reference."""

    root: str
    sources: list[SourceFile] = field(default_factory=list)

    def read(self, relpath: str) -> str | None:
        """The text of a repo file, or ``None`` when it does not exist."""
        path = os.path.join(self.root, relpath)
        if not os.path.exists(path):
            return None
        with open(path, encoding="utf-8") as fh:
            return fh.read()

    def source_by_suffix(self, suffix: str) -> SourceFile | None:
        for src in self.sources:
            if src.relpath.endswith(suffix):
                return src
        return None


class Rule:
    """Base class: a named, documented checker.

    Subclasses override :meth:`check_source` (per-file AST checks) and/or
    :meth:`check_project` (whole-tree checks).  Both default to silence so
    a rule implements only the layer it needs.
    """

    id: str = "base"
    description: str = ""

    def check_source(self, src: SourceFile) -> Iterator[Finding]:
        return iter(())

    def check_project(self, ctx: ProjectContext) -> Iterator[Finding]:
        return iter(())


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: list[Finding]
    files_scanned: int
    rules_run: list[str]
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.errors

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return counts


def all_rules() -> list[Rule]:
    """Every registered checker, in reporting order."""
    from repro.lint.project import (
        KnobDocsRule,
        MypyBaselineRule,
        RegistryRoundtripRule,
    )
    from repro.lint.rules import (
        DtypeDisciplineRule,
        HiddenGlobalRule,
        MutableDefaultRule,
        RngDisciplineRule,
    )

    return [
        RngDisciplineRule(),
        DtypeDisciplineRule(),
        MutableDefaultRule(),
        HiddenGlobalRule(),
        RegistryRoundtripRule(),
        KnobDocsRule(),
        MypyBaselineRule(),
    ]


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into ``.py`` file paths, sorted, skipping caches."""
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in ("__pycache__", ".git", ".ruff_cache")
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        yield os.path.join(dirpath, name)
        else:
            yield path


def _load_sources(paths: Iterable[str], root: str, errors: list[str]) -> list[SourceFile]:
    sources = []
    for path in iter_python_files(paths):
        relpath = os.path.relpath(os.path.abspath(path), os.path.abspath(root))
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            src = SourceFile(path, relpath, text)
        except (OSError, SyntaxError, ValueError) as exc:
            errors.append(f"{path}: cannot scan ({exc})")
            continue
        if not src.skip:
            sources.append(src)
    return sources


def run_lint(
    paths: Iterable[str] = ("src",),
    *,
    root: str = ".",
    rules: Iterable[str] | None = None,
) -> LintReport:
    """Run the checkers over ``paths`` (files or directories).

    Parameters
    ----------
    paths:
        Files and/or directories to scan, relative to the caller's cwd
        (or absolute).
    root:
        Repository root — the anchor for report-relative paths and for
        project rules that read ``pyproject.toml`` and the docs.
    rules:
        Subset of rule ids to run (default: all).  Unknown ids raise
        ``ValueError`` so CI configs fail loudly, not silently.
    """
    available = {rule.id: rule for rule in all_rules()}
    if rules is None:
        selected = list(available.values())
    else:
        wanted = list(rules)
        unknown = sorted(set(wanted) - set(available))
        if unknown:
            raise ValueError(
                f"unknown lint rule(s) {unknown}; available: {sorted(available)}"
            )
        selected = [available[r] for r in wanted]

    errors: list[str] = []
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        raise FileNotFoundError(f"lint path(s) do not exist: {missing}")
    sources = _load_sources(paths, root, errors)
    ctx = ProjectContext(root=root, sources=sources)

    findings: list[Finding] = []
    for rule in selected:
        for src in sources:
            for f in rule.check_source(src):
                if not src.suppressed(f.line, f.rule):
                    findings.append(f)
        for f in rule.check_project(ctx):
            src = next((s for s in sources if s.relpath == f.path), None)
            if src is not None and src.suppressed(f.line, f.rule):
                continue
            findings.append(f)

    return LintReport(
        findings=sorted(set(findings)),
        files_scanned=len(sources),
        rules_run=[r.id for r in selected],
        errors=errors,
    )
