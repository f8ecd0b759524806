"""Spec-driven scenario execution.

:func:`run_scenario` evaluates a :class:`~repro.scenario.spec.Scenario`'s
operating-point grid into a tidy
:class:`~repro.analysis.sweep.SweepResult`.  The fan-out goes through
:meth:`~repro.runtime.executor.ParallelExecutor.map_spec` with the
scenario's ``to_dict()`` payload and ``(snr_db, sjr_db)`` tuples as items,
and each grid point rebuilds its link and jammer from the spec.  Because every grid
point gets a *fresh* link and jammer, even stateful jammers (hoppers,
sweepers) are order-free at the sweep level, and a parallel run is
bit-identical to a serial one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.runtime import ParallelExecutor, ResultCache, SweepCheckpoint, run_spec

if TYPE_CHECKING:
    from repro.analysis.sweep import SweepResult
    from repro.scenario.spec import Scenario

__all__ = ["SCENARIO_COLUMNS", "evaluate_scenario_point", "run_scenario"]

#: column order of every scenario sweep result.
SCENARIO_COLUMNS = ("snr_db", "sjr_db", "per", "per_lo", "per_hi", "ber", "throughput_bps")


def evaluate_scenario_point(payload: dict, point: tuple) -> dict:
    """Evaluate one ``(snr_db, sjr_db)`` grid point of a scenario.

    This is the spec-grid runner :func:`run_scenario` maps: ``payload`` is
    plain data — ``{"scenario": Scenario.to_dict(), "cache": None | False
    | <root path>}`` — and the link and jammer are rebuilt from it, so the
    call is a pure function of its arguments with no fork-inherited state.
    The cache sits at the link layer, keyed by the link's own batch key.
    """
    from repro.scenario.spec import Scenario

    scenario = Scenario.from_dict(payload["scenario"])
    link, jammer = scenario.build()
    snr_db, sjr_db = point
    # In-process, under the REPRO_BATCH packet cap: the pool fans out grid
    # points, not the packets of one point.
    stats = link.run_packets_batched(
        scenario.packets,
        snr_db=float(snr_db),
        sjr_db=float(sjr_db),
        jammer=jammer,
        seed=scenario.seed,
        cache=payload.get("cache"),
    )
    return {"snr_db": float(snr_db), "sjr_db": float(sjr_db), **stats.row()}


def run_scenario(
    scenario: "Scenario",
    *,
    executor: ParallelExecutor | None = None,
    cache: "ResultCache | str | bool | None" = None,
    checkpoint: "SweepCheckpoint | str | bool | None" = None,
) -> "SweepResult":
    """Evaluate a scenario's grid into a :class:`SweepResult`.

    A thin adapter over :func:`~repro.runtime.grid.run_spec`.
    ``executor`` defaults to the ``REPRO_WORKERS``-configured pool (serial
    when unset); grid points are merged in grid order either way.
    ``cache`` follows :func:`~repro.runtime.cache.resolve_cache`:
    ``None`` defers to ``REPRO_CACHE``, ``False`` forces caching off,
    ``True`` selects the default directory, and a :class:`ResultCache`
    (or directory path) enables that store — cache keys derive from the
    scenario's own specs, so identical scenario JSON hits the same
    entries from any process.

    ``checkpoint`` enables crash-safe resume: ``None`` defers to
    ``REPRO_CHECKPOINT``, ``False`` forces it off, a string (or ``True``)
    selects the checkpoint directory.  Completed grid points are
    persisted incrementally under the scenario's canonical spec hash; a
    rerun of the *same* scenario recomputes only unfinished points and —
    because records round-trip through JSON bit-exactly — produces a
    result bit-identical to an uninterrupted run.  The checkpoint file is
    removed once the sweep completes.
    """
    from repro.analysis.sweep import SweepResult

    records, timing = run_spec(
        evaluate_scenario_point, scenario, scenario.points(), packets=scenario.packets,
        executor=executor, cache=cache, checkpoint=checkpoint,
    )
    return SweepResult.from_records(SCENARIO_COLUMNS, records, timing)
