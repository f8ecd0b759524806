"""Spec-driven scenario execution.

:func:`run_scenario` evaluates a :class:`~repro.scenario.spec.Scenario`'s
operating-point grid into a tidy
:class:`~repro.analysis.sweep.SweepResult`.  The fan-out goes through the
executor's spec transport: the only things shipped to workers are the
scenario's ``to_dict()`` payload and ``(snr_db, sjr_db)`` tuples, and each
worker rebuilds its link and jammer from the spec.  Because every grid
point gets a *fresh* link and jammer, even stateful jammers (hoppers,
sweepers) are order-free at the sweep level, and a parallel run is
bit-identical to a serial one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.runtime import (
    ParallelExecutor,
    ResultCache,
    SweepCheckpoint,
    SweepTiming,
    make_checkpoint,
    resolve_batch,
    stable_hash,
)

if TYPE_CHECKING:
    from repro.analysis.sweep import SweepResult
    from repro.scenario.spec import Scenario

__all__ = ["SCENARIO_COLUMNS", "evaluate_scenario_point", "run_scenario"]

#: column order of every scenario sweep result.
SCENARIO_COLUMNS = ("snr_db", "sjr_db", "per", "per_lo", "per_hi", "ber", "throughput_bps")


def _cache_token(cache: "ResultCache | str | bool | None") -> "str | bool | None":
    """Flatten a cache argument to picklable data for the spec payload."""
    if cache is None or cache is False:
        return cache
    if isinstance(cache, ResultCache):
        return cache.root
    return str(cache)


def evaluate_scenario_point(payload: dict, point: tuple) -> dict:
    """Evaluate one ``(snr_db, sjr_db)`` grid point of a scenario.

    This is the module-level runner of the spec transport: ``payload`` is
    plain data — ``{"scenario": Scenario.to_dict(), "cache": None | False
    | <root path>}`` — and the link and jammer are rebuilt from it, so the
    call is a pure function of its arguments with no fork-inherited state.
    """
    from repro.backend import use_backend
    from repro.scenario.spec import Scenario

    scenario = Scenario.from_dict(payload["scenario"])
    token = payload.get("cache")
    cache = ResultCache(token) if isinstance(token, str) else token
    link, jammer = scenario.build()
    snr_db, sjr_db = point
    # The vectorized path is bit-identical to the serial one per seed, so
    # scenarios always go through it; REPRO_BATCH=0 selects serial.
    # The scenario's pinned backend (if any) rides in the spec payload, so
    # pool workers apply the same selection as a serial run would.
    with use_backend(scenario.backend):
        stats = link.run_packets_batched(
            scenario.packets,
            snr_db=float(snr_db),
            sjr_db=float(sjr_db),
            jammer=jammer,
            seed=scenario.seed,
            cache=cache,
        )
    per_lo, per_hi = stats.per_confidence_interval()
    return {
        "snr_db": float(snr_db),
        "sjr_db": float(sjr_db),
        "per": stats.packet_error_rate,
        "per_lo": per_lo,
        "per_hi": per_hi,
        "ber": stats.bit_error_rate,
        "throughput_bps": stats.throughput_bps,
    }


def run_scenario(
    scenario: "Scenario",
    *,
    executor: ParallelExecutor | None = None,
    cache: "ResultCache | str | bool | None" = None,
    checkpoint: "SweepCheckpoint | str | bool | None" = None,
) -> "SweepResult":
    """Evaluate a scenario's grid into a :class:`SweepResult`.

    ``executor`` defaults to the ``REPRO_WORKERS``-configured pool (serial
    when unset); grid points are merged in grid order either way.
    ``cache`` follows the :meth:`LinkSimulator.run_packets` convention:
    ``None`` defers to ``REPRO_CACHE``, ``False`` forces caching off, and
    a :class:`ResultCache` (or directory path) enables that store — cache
    keys derive from the scenario's own specs, so identical scenario JSON
    hits the same entries from any process.

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

    ex = executor if executor is not None else ParallelExecutor.from_env()
    spec_dict = scenario.to_dict()
    payload = {"scenario": spec_dict, "cache": _cache_token(cache)}
    points = list(scenario.points())
    total = len(points)
    ckpt = make_checkpoint(checkpoint, stable_hash(spec_dict), total)
    loaded: dict[int, Any] = {} if ckpt is None else ckpt.load()
    pending = [i for i in range(total) if not isinstance(loaded.get(i), dict)]
    records: list[dict[str, float] | None] = [
        loaded[i] if i not in pending else None for i in range(total)
    ]
    seconds = [0.0] * total
    wall = 0.0
    workers = 1
    retries = 0
    if pending:
        on_result: Callable[[int, object], None] | None = None
        if ckpt is not None:
            active = ckpt

            def _persist(local_index: int, value: object) -> None:
                active.record(pending[local_index], value)

            on_result = _persist
        try:
            report = ex.map_spec(
                evaluate_scenario_point,
                payload,
                [points[i] for i in pending],
                on_result=on_result,
            )
        except BaseException:
            # Keep whatever finished: an interrupted sweep resumes from here.
            if ckpt is not None:
                ckpt.flush()
            raise
        for index, value, secs in zip(pending, report.values, report.seconds):
            records[index] = value
            seconds[index] = secs
        wall = report.wall_seconds
        workers = report.workers
        retries = report.retries
    if ckpt is not None:
        ckpt.complete()
    result = SweepResult(columns=SCENARIO_COLUMNS)
    for record in records:
        assert record is not None  # every index is either loaded or pending
        result.add(**record)
    result.timing = SweepTiming(
        wall_seconds=wall,
        point_seconds=tuple(seconds),
        workers=workers,
        packets=scenario.packets * total,
        batch_size=resolve_batch(),
        retries=retries,
    )
    return result
