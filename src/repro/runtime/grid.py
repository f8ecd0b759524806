"""The one grid driver behind every sweep, scenario, network, arena and session run.

:func:`run_grid` evaluates a list of grid items in order and owns the
steps every runner shares: the checkpoint (load, incremental record,
flush on interrupt, removal on completion), the pending-index
computation, the ordered executor map, the in-order merge of
checkpointed and fresh records, and the :class:`SweepTiming`.

Spec grids go through :func:`run_spec`, which ships a spec file's
``to_dict()`` as the payload and names the checkpoint after it; they run
``runner(payload, item)`` through
:meth:`ParallelExecutor.map_spec`; the driver adds the flattened
``cache`` argument to the payload, so workers resolve the same store
with :func:`~repro.runtime.cache.resolve_cache`.  Closure grids (raw
:func:`~repro.analysis.sweep.run_sweep` calls) pass ``payload=None`` and
call :meth:`ParallelExecutor.map_timed` directly.  Both fork the pool,
so a task ships only its index.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.runtime.cache import ResultCache, resolve_cache, stable_hash
from repro.runtime.checkpoint import SweepCheckpoint, make_checkpoint, resolve_checkpoint_dir
from repro.runtime.executor import ParallelExecutor, resolve_batch
from repro.runtime.instrument import SweepTiming

if TYPE_CHECKING:
    from repro.utils.spec import SpecFile

__all__ = ["run_grid", "run_spec"]


def run_spec(
    runner: Callable,
    spec: "SpecFile",
    items: Sequence,
    *,
    packets: int,
    executor: ParallelExecutor | None = None,
    cache: "ResultCache | str | bool | None" = None,
    checkpoint: "SweepCheckpoint | str | bool | None" = None,
) -> tuple[list, SweepTiming]:
    """:func:`run_grid` of ``runner(payload, item)`` over a spec file's ``items``.

    The payload is ``{spec.KIND: spec.to_dict()}`` and names the
    checkpoint by its hash; a scenario's checkpoint hashes the bare spec
    dict, as scenario checkpoints always have.
    """
    spec_dict = spec.to_dict()
    payload = {spec.KIND: spec_dict}
    key = spec_dict if spec.KIND == "scenario" else payload
    return run_grid(
        runner, items, key=lambda: stable_hash(key), payload=payload,
        executor=executor, cache=cache, checkpoint=checkpoint, packets=packets,
    )


def run_grid(
    runner: Callable,
    items: Sequence,
    *,
    key: "str | Callable[[], str]",
    payload: dict | None = None,
    executor: ParallelExecutor | None = None,
    cache: "ResultCache | str | bool | None" = None,
    checkpoint: "SweepCheckpoint | str | bool | None" = None,
    packets: int | None = None,
) -> tuple[list, SweepTiming]:
    """Evaluate ``items`` in order; returns ``(records, timing)``.

    ``runner`` is called as ``runner(payload_with_cache, item)`` through
    :meth:`ParallelExecutor.map_spec`, or as ``runner(item)`` when
    ``payload`` is ``None`` (closure grids have no cache).  ``executor``
    defaults to the ``REPRO_WORKERS`` pool; records land in item order
    either way.

    ``checkpoint`` follows :func:`make_checkpoint` (``None`` defers to
    ``REPRO_CHECKPOINT``).  ``key`` names the checkpoint; a callable key
    is only evaluated when checkpointing is on.  Records already in the
    checkpoint are not recomputed, each fresh record is persisted as it
    lands, and an interrupted run flushes what finished before
    re-raising.  Records must be JSON-serializable dicts on this path.

    ``packets`` is the packet (or slot) count per item; spec grids
    report it and the ``REPRO_BATCH`` cap in the timing.
    """
    ex = executor if executor is not None else ParallelExecutor.from_env()
    total = len(items)
    ckpt: SweepCheckpoint | None = None
    if checkpoint is not False and (
        checkpoint is not None or resolve_checkpoint_dir() is not None
    ):
        ckpt = make_checkpoint(checkpoint, key() if callable(key) else key, total)
    loaded: dict[int, Any] = {} if ckpt is None else ckpt.load()
    pending = [i for i in range(total) if not isinstance(loaded.get(i), dict)]
    records: list = [loaded.get(i) for i in range(total)]
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
        todo = [items[i] for i in pending]
        try:
            if payload is None:
                report = ex.map_timed(runner, todo, on_result=on_result)
            else:
                spec = {**payload, "cache": _payload_cache(cache)}
                report = ex.map_spec(runner, spec, todo, on_result=on_result)
        except BaseException:
            # Keep whatever finished: an interrupted run resumes from here.
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
    timing = SweepTiming(
        wall_seconds=wall,
        point_seconds=tuple(seconds),
        workers=workers,
        packets=None if packets is None else packets * total,
        batch_size=None if payload is None else resolve_batch(),
        retries=retries,
    )
    return records, timing


def _payload_cache(cache: "ResultCache | str | bool | None") -> "str | bool | None":
    """The picklable form of ``cache`` that workers hand to :func:`resolve_cache`.

    ``None`` stays ``None`` so each worker resolves ``REPRO_CACHE`` itself;
    everything else ships as the resolved root, or ``False`` when off.
    """
    if cache is None:
        return None
    store = resolve_cache(cache)
    return False if store is None else store.root
