"""Tournament execution over the fault-tolerant parallel runtime.

:func:`run_tournament` fans an :class:`ArenaSpec`'s cells out over the
:class:`~repro.runtime.executor.ParallelExecutor` through
:func:`~repro.runtime.grid.run_spec`, like every other spec kind: the
arena's ``to_dict()`` is the payload and a task ships only its cell
index, workers rebuild link and jammer from the spec, memoize each cell
under a content hash of its exact configuration, and checkpoint
completed cells incrementally so an interrupted tournament resumes
bit-identically.

The output is a **resilience matrix** — BER / PER / throughput per
(jammer, pattern, hop range) cell — plus the ``jammer-advantage``
summary: per jammer strategy, the mean PER degradation it inflicts
relative to the unjammed baseline column at the same grid coordinates.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from repro.arena.spec import ArenaError, ArenaSpec
from repro.core.link import LinkSimulator, LinkStats
from repro.runtime import (
    ParallelExecutor,
    ResultCache,
    SweepTiming,
    cached_record,
    run_spec,
)

if TYPE_CHECKING:
    from repro.analysis.sweep import SweepResult

__all__ = [
    "TOURNAMENT_COLUMNS",
    "TournamentResult",
    "evaluate_arena_cell",
    "run_tournament",
]

#: column order of a per-cell tournament result table.
TOURNAMENT_COLUMNS = (
    "jammer", "pattern", "num_bands", "hop_range",
    "per", "per_lo", "per_hi", "ber", "throughput_bps",
)


def evaluate_arena_cell(payload: dict, index: int) -> dict:
    """Evaluate one cell of a tournament grid.

    The spec-grid runner :func:`run_tournament` maps: ``payload`` is plain
    data — ``{"arena": ArenaSpec.to_dict(), "cache": None | False |
    <root path>}`` — and link + jammer are rebuilt from it, so the call
    is a pure function of its arguments with no fork-inherited state.
    The memo key is the *content* of the cell (derived config, jammer
    spec, operating point), not its grid position, so duplicate cells —
    e.g. the static-band column repeated across patterns — hit the same
    entry.  The record carries the raw :class:`LinkStats` counters under
    ``"stats"``, so callers (and the equivalence wall) can rebuild the
    exact stats from a record or cache entry.
    """
    spec = ArenaSpec.from_dict(payload["arena"])
    config, jammer, label, pattern, num_bands = spec.build_cell(int(index))

    def compute() -> dict:
        stats = LinkSimulator(config).run_packets_batched(
            spec.packets,
            snr_db=spec.snr_db,
            sjr_db=spec.sjr_db,
            jammer=jammer,
            seed=spec.seed,
            cache=False,  # the cell-level memo is the single cache layer
        )
        return {
            "jammer": label,
            "pattern": pattern,
            "num_bands": int(num_bands),
            "hop_range": float(config.bandwidth_set.hop_range),
            **stats.row(),
            "stats": asdict(stats),
        }

    key = {
        "kind": "arena.cell",
        "config": config.to_dict(),
        "jammer": jammer.spec(),
        "snr_db": float(spec.snr_db),
        "sjr_db": float(spec.sjr_db),
        "packets": int(spec.packets),
        "seed": int(spec.seed),
    }
    record = cached_record(payload.get("cache"), key, compute)
    # Grid coordinates are not part of the content key: restamp them so
    # a cache hit from a sibling cell reports its own.
    record.update({"jammer": label, "pattern": pattern, "num_bands": int(num_bands)})
    return record


@dataclass
class TournamentResult:
    """Per-cell records plus the tournament-level summaries.

    ``records`` holds one :func:`evaluate_arena_cell` record per cell in
    :meth:`ArenaSpec.cells` order; ``timing`` carries the fan-out
    telemetry (it does not participate in equality).
    """

    spec: ArenaSpec
    records: list[dict] = field(default_factory=list)
    timing: SweepTiming | None = field(default=None, repr=False, compare=False)

    def cell_stats(self, jammer: str, pattern: str, num_bands: int) -> LinkStats:
        """Reconstruct the exact :class:`LinkStats` of one cell."""
        for record in self.records:
            if (
                record["jammer"] == jammer
                and record["pattern"] == pattern
                and record["num_bands"] == num_bands
            ):
                return LinkStats(**record["stats"])
        raise KeyError(f"no cell ({jammer!r}, {pattern!r}, {num_bands}) in this result")

    def resilience_matrix(self, metric: str = "ber") -> dict[tuple[str, str, int], float]:
        """``(jammer, pattern, num_bands) -> metric`` over the whole grid."""
        if metric not in ("per", "ber", "throughput_bps"):
            raise ValueError(f"metric must be per/ber/throughput_bps, got {metric!r}")
        return {
            (r["jammer"], r["pattern"], r["num_bands"]): float(r[metric])
            for r in self.records
        }

    def jammer_advantage(self, metric: str = "per") -> dict[str, float]:
        """Mean per-cell degradation each jammer inflicts vs the baseline.

        For every non-baseline jammer label, averages ``metric(jammed
        cell) - metric(baseline cell)`` over the (pattern, hop range)
        grid — the attacker's advantage in PER (or BER) points at equal
        SJR.  Requires a ``{"type": "none"}`` jammer in the spec as the
        baseline column.
        """
        baseline = self.spec.baseline_label
        if baseline is None:
            raise ArenaError(
                "jammer advantage needs an unjammed baseline: add a "
                '{"type": "none"} entry to the arena\'s jammers'
            )
        matrix = self.resilience_matrix(metric)
        out: dict[str, float] = {}
        coords = [(p, k) for p in self.spec.patterns for k in self.spec.hop_ranges]
        for label in self.spec.jammer_labels:
            if label == baseline:
                continue
            deltas = [
                matrix[(label, p, k)] - matrix[(baseline, p, k)] for p, k in coords
            ]
            out[label] = float(sum(deltas) / len(deltas))
        return out

    def aggregates(self) -> dict:
        """The tournament-level summary row."""
        n = len(self.records)
        return {
            "num_cells": n,
            "mean_per": float(sum(r["per"] for r in self.records)) / n,
            "mean_ber": float(sum(r["ber"] for r in self.records)) / n,
            "jammer_advantage": (
                self.jammer_advantage() if self.spec.baseline_label is not None else {}
            ),
        }

    def to_sweep_result(self) -> "SweepResult":
        """The per-cell resilience matrix as a tidy :class:`SweepResult`."""
        from repro.analysis.sweep import SweepResult

        return SweepResult.from_records(TOURNAMENT_COLUMNS, self.records, self.timing)


def run_tournament(
    spec: ArenaSpec,
    *,
    executor: ParallelExecutor | None = None,
    cache: "ResultCache | str | bool | None" = None,
    checkpoint: "str | bool | None" = None,
) -> TournamentResult:
    """Evaluate every cell of a tournament into a :class:`TournamentResult`.

    ``executor`` defaults to the ``REPRO_WORKERS``-configured pool
    (serial when unset); cells are merged in grid order either way, and a
    parallel run is bit-identical to a serial one.  ``cache`` and
    ``checkpoint`` follow the :func:`repro.scenario.runner.run_scenario`
    conventions (``REPRO_CACHE`` / ``REPRO_CHECKPOINT`` when ``None``,
    ``False`` forces off); completed cells are persisted incrementally
    under the arena's canonical spec hash, so a rerun of the *same*
    tournament recomputes only unfinished cells.
    """
    records, timing = run_spec(
        evaluate_arena_cell, spec, range(spec.num_cells), packets=spec.packets,
        executor=executor, cache=cache, checkpoint=checkpoint,
    )
    return TournamentResult(spec=spec, records=records, timing=timing)
