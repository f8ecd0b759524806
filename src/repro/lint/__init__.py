"""`repro-lint`: project-invariant static analysis for the BHSS stack.

The repo's core contract — bit-identical determinism across the serial,
parallel and batched execution paths at every seed — is enforced at run
time by the equivalence-test wall.  This package enforces the *causes*
of that contract at analysis time, before any packet is simulated:

* every random draw flows through the :mod:`repro.utils.rng` substream
  discipline (no ``np.random.*`` global state, no stray ``default_rng``),
* the signal chain allocates arrays with explicit dtypes (no silent
  float64/complex128 promotion),
* registered scenario components round-trip ``spec()``/``from_spec``,
* ``REPRO_*`` environment knobs in code and docs agree, and
* config dataclasses carry no mutable defaults or hidden module globals.

Run it as ``repro-bhss lint`` (see :mod:`repro.cli`), or programmatically
via :func:`run_lint`.  Findings support line-level suppression with
``# repro-lint: ignore[rule-id]`` comments.
"""

from __future__ import annotations

from repro.lint.engine import (
    Finding,
    LintReport,
    Rule,
    SourceFile,
    all_rules,
    run_lint,
)
from repro.lint.report import format_findings

__all__ = [
    "Finding",
    "LintReport",
    "Rule",
    "SourceFile",
    "all_rules",
    "run_lint",
    "format_findings",
]
