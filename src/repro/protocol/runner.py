"""Spec-driven session execution.

:func:`run_session` evaluates a :class:`~repro.protocol.spec.SessionSpec`'s
operating-point grid into a tidy
:class:`~repro.analysis.sweep.SweepResult`, going through the same spec
transport as scenario/network/arena runs: workers receive only the
session's ``to_dict()`` payload plus ``(snr_db, sjr_db)`` tuples and
rebuild everything locally.  Each grid point gets a *fresh*
:class:`~repro.protocol.session.SessionManager` (fresh jammer, fresh
reassembler), so stateful jammers are order-free at the sweep level and a
pooled run is bit-identical to a serial one.

Protocol faults (``REPRO_FAULTS=drop-handshake:p,desync:p``) *change the
result* — unlike crash/hang, which only exercise recovery — so the
active protocol-fault plan is folded into the cache key: a faulted run
never aliases a fault-free entry.
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
from repro.runtime.faults import FaultPlan

if TYPE_CHECKING:
    from repro.analysis.sweep import SweepResult
    from repro.protocol.spec import SessionSpec

__all__ = ["SESSION_COLUMNS", "evaluate_session_point", "run_session"]

#: column order of every session sweep result.
SESSION_COLUMNS = (
    "snr_db",
    "sjr_db",
    "delivery_ratio",
    "goodput_bps",
    "data_per",
    "data_tx",
    "handshake_tx",
    "desync_count",
    "resync_count",
    "mean_resync_latency",
    "degraded",
)


def _cache_token(cache: "ResultCache | str | bool | None") -> "str | bool | None":
    """Flatten a cache argument to picklable data for the spec payload."""
    if cache is None or cache is False:
        return cache
    if isinstance(cache, ResultCache):
        return cache.root
    return str(cache)


def _protocol_fault_key(plan: "FaultPlan | None") -> dict:
    """The cache-key fields of the active protocol-level fault plan.

    Only the protocol kinds matter: crash/hang/corrupt-cache faults are
    recovery drills that leave results bit-identical, but drop-handshake
    and desync alter the session outcome and must key the cache.
    """
    if plan is None or (plan.drop_handshake <= 0.0 and plan.desync <= 0.0):
        return {}
    return {
        "drop_handshake": plan.drop_handshake,
        "desync": plan.desync,
        "fault_seed": plan.seed,
    }


def evaluate_session_point(payload: dict, point: tuple) -> dict:
    """Evaluate one ``(snr_db, sjr_db)`` grid point of a session.

    ``payload`` is plain data — ``{"session": SessionSpec.to_dict(),
    "cache": None | False | <root path>}`` — and everything (spec,
    jammer, hop-seed generator, fault plan) is rebuilt inside the worker,
    so the call is a pure function of its arguments and the inherited
    ``REPRO_FAULTS`` environment.
    """
    from repro.protocol.session import simulate_session
    from repro.protocol.spec import SessionSpec

    spec = SessionSpec.from_dict(payload["session"])
    token = payload.get("cache")
    if token is None:
        store = ResultCache.from_env()
    elif isinstance(token, str):
        store = ResultCache(token)
    else:
        store = token if isinstance(token, ResultCache) else None
    snr_db, sjr_db = point
    faults = FaultPlan.from_env()
    key: dict[str, Any] | None = None
    if store is not None:
        key = {
            "kind": "session-point",
            "session": payload["session"],
            "snr_db": float(snr_db),
            "sjr_db": float(sjr_db),
            **_protocol_fault_key(faults),
        }
        hit = store.get(key)
        if isinstance(hit, dict):
            return hit
    stats = simulate_session(spec, float(snr_db), float(sjr_db), faults=faults)
    record = {
        "snr_db": float(snr_db),
        "sjr_db": float(sjr_db),
        "delivery_ratio": stats.delivery_ratio,
        "goodput_bps": stats.goodput_bps,
        "data_per": stats.data_per,
        "data_tx": float(stats.data_tx),
        "handshake_tx": float(stats.handshake_tx),
        "desync_count": float(stats.desync_count),
        "resync_count": float(stats.resync_count),
        "mean_resync_latency": stats.mean_resync_latency,
        "degraded": 1.0 if stats.degraded else 0.0,
    }
    if store is not None and key is not None:
        store.put(key, record)
    return record


def run_session(
    spec: "SessionSpec",
    *,
    executor: ParallelExecutor | None = None,
    cache: "ResultCache | str | bool | None" = None,
    checkpoint: "SweepCheckpoint | str | bool | None" = None,
) -> "SweepResult":
    """Evaluate a session spec's grid into a :class:`SweepResult`.

    The knobs mirror :func:`repro.scenario.runner.run_scenario` exactly:
    ``executor`` defaults to the ``REPRO_WORKERS`` pool (serial when
    unset), ``cache`` defers to ``REPRO_CACHE`` (protocol-fault plans are
    part of the key), and ``checkpoint`` defers to ``REPRO_CHECKPOINT``
    for crash-safe incremental resume under the spec's canonical hash.
    Rows land in grid order regardless of completion order, so serial
    and pooled runs emit bit-identical CSVs.
    """
    from repro.analysis.sweep import SweepResult

    ex = executor if executor is not None else ParallelExecutor.from_env()
    spec_dict = spec.to_dict()
    payload = {"session": spec_dict, "cache": _cache_token(cache)}
    points = list(spec.points())
    total = len(points)
    ckpt = make_checkpoint(checkpoint, stable_hash({"session": spec_dict}), total)
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
                evaluate_session_point,
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
    result = SweepResult(columns=SESSION_COLUMNS)
    for record in records:
        assert record is not None  # every index is either loaded or pending
        result.add(**record)
    result.timing = SweepTiming(
        wall_seconds=wall,
        point_seconds=tuple(seconds),
        workers=workers,
        packets=spec.num_fragments() * total,
        batch_size=resolve_batch(),
        retries=retries,
    )
    return result
