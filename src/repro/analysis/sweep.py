"""Parameter-sweep utilities shared by the benchmark harnesses.

Every experimental figure of the paper is a sweep (over bandwidth ratios,
jammer bandwidths, Eb/N0, hop patterns); these helpers keep the benchmark
files declarative: define the grid, get back a tidy list of records that
the table formatter and the CSV writer both consume.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.runtime import (
    ParallelExecutor,
    SweepCheckpoint,
    SweepTiming,
    canonical,
    run_grid,
    stable_hash,
)

__all__ = ["SweepResult", "run_sweep", "write_csv", "env_scale"]


@dataclass
class SweepResult:
    """A tidy table of sweep records.

    ``columns`` fixes the field order; ``rows`` holds one dict per grid
    point.  ``timing`` carries the sweep's wall-time telemetry when the
    result came out of :func:`run_sweep` (it does not participate in
    equality — two sweeps with identical rows are the same result).
    """

    columns: tuple[str, ...]
    rows: list[dict] = field(default_factory=list)
    timing: SweepTiming | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_records(
        cls, columns: Sequence[str], records: Iterable[dict], timing: SweepTiming | None = None
    ) -> "SweepResult":
        """A result holding ``records`` (each may carry extra keys) in order."""
        out = cls(columns=tuple(columns), timing=timing)
        for record in records:
            out.add(**record)
        return out

    def add(self, **record) -> None:
        """Append one record (must cover every column)."""
        missing = set(self.columns) - set(record)
        if missing:
            raise ValueError(f"record missing columns: {sorted(missing)}")
        self.rows.append({c: record[c] for c in self.columns})

    def column(self, name: str) -> list:
        """Extract one column as a list (in insertion order)."""
        if name not in self.columns:
            raise KeyError(f"unknown column {name!r}")
        return [r[name] for r in self.rows]

    def filtered(self, **conditions) -> "SweepResult":
        """Records matching all equality conditions, as a new result."""
        rows = [r for r in self.rows if all(r.get(k) == v for k, v in conditions.items())]
        out = SweepResult(columns=self.columns)
        out.rows = rows
        return out

    def as_table_rows(self) -> list[list]:
        """Rows in column order, for the ASCII table formatter."""
        return [[r[c] for c in self.columns] for r in self.rows]


def _grid_key(columns: Sequence[str], points: list) -> str:
    """Canonical checkpoint key of a raw-grid sweep.

    Hashes the column names and the grid points; grids made of plain data
    (numbers, strings, tuples) hash directly, anything else needs an
    explicit ``checkpoint_key``.  Points whose canonical form falls back
    to ``repr`` are rejected rather than hashed: repr embeds the object
    id, so the key would change every run and resume would silently
    never match.
    """
    doc = canonical({"columns": [str(c) for c in columns], "grid": points})
    if _contains_repr_fallback(doc):
        raise ValueError(
            "checkpointing this grid requires checkpoint_key=... "
            "(its points are not canonically serializable)"
        )
    return stable_hash(doc)


def _contains_repr_fallback(doc: object) -> bool:
    if isinstance(doc, dict):
        return "__repr__" in doc or any(_contains_repr_fallback(v) for v in doc.values())
    if isinstance(doc, list):
        return any(_contains_repr_fallback(v) for v in doc)
    return False


def run_sweep(
    columns,
    grid: Iterable | None = None,
    evaluate: Callable[..., dict] | None = None,
    *,
    unpack: bool = True,
    executor: ParallelExecutor | None = None,
    cache=None,
    checkpoint: "SweepCheckpoint | str | bool | None" = None,
    checkpoint_key: str | None = None,
) -> SweepResult:
    """Evaluate a function over a grid of points — or a whole scenario.

    Passing a :class:`~repro.scenario.spec.Scenario` as the first argument
    dispatches to :func:`~repro.scenario.runner.run_scenario`: the
    scenario carries its own grid and evaluator, so ``grid``/``evaluate``
    must be omitted (``cache`` applies only on this path).

    Otherwise ``grid`` yields scalars or tuples; with ``unpack=True`` (the
    default) tuple points are splatted into ``evaluate(*point)``.  Grids
    whose *scalar* points happen to be tuples — e.g. ``(lo, hi)`` bracket
    values — must pass ``unpack=False`` to receive each point as one
    argument; the historical behavior silently splatted them.

    ``executor`` fans the grid points out over a process pool (default:
    the ``REPRO_WORKERS``-configured executor; serial when unset).
    Results are merged in grid order, so a parallel sweep is bit-identical
    to a serial one whenever ``evaluate`` is a pure function of its point
    — which holds for evaluators that build their links/jammers per call
    (shared *stateful* objects mutated across points are outside the
    guarantee).  The sweep's wall-time telemetry is attached as
    ``result.timing``.

    ``checkpoint`` enables crash-safe resume (``None`` defers to
    ``REPRO_CHECKPOINT``, ``False`` forces it off, a string / ``True``
    names the directory): completed points persist incrementally and a
    rerun of the same sweep recomputes only unfinished ones,
    bit-identically.  Records must be JSON-serializable on this path.
    The checkpoint is keyed by a canonical hash of (columns, grid) —
    pass ``checkpoint_key`` to pin it explicitly (required for grids of
    non-plain-data points, and recommended when the evaluator changes
    meaning between runs).
    """
    from repro.scenario.spec import Scenario

    if isinstance(columns, Scenario):
        if grid is not None or evaluate is not None:
            raise ValueError("a Scenario carries its own grid and evaluator")
        if checkpoint_key is not None:
            raise ValueError("a Scenario derives its own checkpoint key")
        from repro.scenario.runner import run_scenario

        return run_scenario(columns, executor=executor, cache=cache, checkpoint=checkpoint)
    if grid is None or evaluate is None:
        raise ValueError("run_sweep requires grid and evaluate (or a Scenario)")
    if cache is not None:
        raise ValueError("cache applies only to Scenario sweeps")
    points = list(grid)

    def call(point):
        if unpack and isinstance(point, tuple):
            return evaluate(*point)
        return evaluate(point)

    records, timing = run_grid(
        call,
        points,
        key=lambda: checkpoint_key if checkpoint_key is not None else _grid_key(columns, points),
        executor=executor,
        checkpoint=checkpoint,
    )
    return SweepResult.from_records(columns, records, timing)


def write_csv(result: SweepResult, path: str) -> str:
    """Write a sweep result to CSV; returns the path."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(result.columns))
        writer.writeheader()
        writer.writerows(result.rows)
    return path


def env_scale(name: str = "REPRO_SCALE", default: float = 1.0) -> float:
    """Experiment-size multiplier from the environment.

    Benchmarks default to economical sizes (tens of packets per point);
    ``REPRO_SCALE=10`` rescales packet counts toward the paper's 10 000
    packets per point for final-quality numbers.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value
