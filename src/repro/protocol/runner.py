"""Spec-driven session execution.

:func:`run_session` evaluates a :class:`~repro.protocol.spec.SessionSpec`'s
operating-point grid into a tidy
:class:`~repro.analysis.sweep.SweepResult` through
:func:`~repro.runtime.grid.run_spec`, like every other spec kind: the
session's ``to_dict()`` is the payload, a task ships only its index into
the ``(snr_db, sjr_db)`` grid, and each point rebuilds everything
locally.  Each grid point gets a *fresh*
:class:`~repro.protocol.session.SessionManager` (fresh jammer, fresh
reassembler), so stateful jammers are order-free at the sweep level and a
pooled run is bit-identical to a serial one.

Protocol faults (``REPRO_FAULTS=drop-handshake:p,desync:p``) *change the
result* — unlike crash/hang, which only exercise recovery — so the
active protocol-fault plan is folded into the cache key: a faulted run
never aliases a fault-free entry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.runtime import (
    ParallelExecutor,
    ResultCache,
    SweepCheckpoint,
    cached_record,
    run_spec,
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
    snr_db, sjr_db = point
    faults = FaultPlan.from_env()

    def compute() -> dict:
        stats = simulate_session(spec, float(snr_db), float(sjr_db), faults=faults)
        return {
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

    key = {
        "kind": "session-point",
        "session": payload["session"],
        "snr_db": float(snr_db),
        "sjr_db": float(sjr_db),
        **_protocol_fault_key(faults),
    }
    return cached_record(payload.get("cache"), key, compute)


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

    records, timing = run_spec(
        evaluate_session_point, spec, spec.points(), packets=spec.num_fragments(),
        executor=executor, cache=cache, checkpoint=checkpoint,
    )
    return SweepResult.from_records(SESSION_COLUMNS, records, timing)
