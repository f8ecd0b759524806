"""Supervised, ordered parallel ``map`` over a forked process pool.

Sweep evaluators and packet-chunk workers are usually *closures* (they
capture a link, a jammer factory, CLI arguments), which the pickling
transport of ``concurrent.futures`` cannot ship.  On platforms with
``fork`` (Linux — the only place a multi-worker sweep makes sense for this
library) the closure does not need to be shipped at all: the payload is
parked in a module-level global immediately before the pool forks, the
children inherit it through copy-on-write memory, and only integer indices
and picklable *results* cross the pipe.

Every pool forks through ``get_context("fork")``, whatever the process's
default start method, so a task ships only ``(index, attempt)``.
:meth:`ParallelExecutor.map_spec` is :meth:`~ParallelExecutor.map_timed`
of ``runner(spec, item)``: spec grids take the same path as closures.

Supervision: tasks are submitted individually through a sliding window of
``apply_async`` calls (window = pool size, so a task's wall clock starts
when a worker picks it up).  Each task's completion callback wakes the
supervisor, which refills the window at once; between completions it
wakes every ``_POLL_SECONDS`` to check for hung tasks and dead children.
The supervisor loop detects three failure modes and recovers from all of
them:

* a task raising — retried in place, up to ``REPRO_RETRIES`` times with
  deterministic exponential backoff, then surfaced as
  :class:`~repro.runtime.errors.TaskError`;
* a hung task — past the ``REPRO_TIMEOUT`` per-task wall-clock budget the
  pool is recycled (terminating the stuck child) and the task retried,
  terminally a :class:`~repro.runtime.errors.TaskTimeout`;
* a dead child (OOM kill, hard exit) — detected from the worker table
  even without a timeout, classified as
  :class:`~repro.runtime.errors.WorkerCrash`.

A pool that keeps failing (more than ``MAX_POOL_RESTARTS`` recycles) is
abandoned and the remaining items **degrade gracefully to the serial
path**, so an unhealthy machine finishes slowly instead of not at all.
Fault injection (``REPRO_FAULTS``, :mod:`repro.runtime.faults`) exercises
every one of these paths deterministically in the test suite.

Determinism: ``map``/``map_timed``/``map_spec`` always return results in
input order, whatever order the workers finished in — and a retried task
re-evaluates the same pure function of the same item — so any fold over
the results is identical to the serial fold, faults or no faults.
Workers never nest pools: a worker that calls back into the executor gets
the serial path.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.runtime.errors import TaskError, TaskTimeout, WorkerCrash
from repro.runtime.faults import InjectedCrash, inject_faults
from repro.utils.validation import env_int

__all__ = [
    "ParallelExecutor",
    "MapReport",
    "resolve_workers",
    "resolve_batch",
    "resolve_timeout",
    "resolve_retries",
]

#: Packets per stacked call when ``REPRO_BATCH`` is unset.
DEFAULT_BATCH = 64

#: Retries per task when ``REPRO_RETRIES`` is unset.
DEFAULT_RETRIES = 2

#: First retry backoff; doubles per attempt (deterministic, no jitter).
BACKOFF_BASE = 0.05

#: Ceiling on a single backoff sleep.
BACKOFF_CAP = 2.0

#: Pool recycles (hang/crash teardowns) before degrading to serial.
MAX_POOL_RESTARTS = 3

#: Longest supervisor wait between completions (hang and crash checks).
_POLL_SECONDS = 0.01

#: (fn, items) visible to forked children; only set around a pool launch.
_WORKER_PAYLOAD: tuple | None = None

#: Set in pool children so nested executors degrade to serial.
_IN_WORKER = False


def _init_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


def _run_indexed(arg: tuple):
    """Pool target: run payload item ``index``, timing the call."""
    index, attempt = arg
    fn, items = _WORKER_PAYLOAD
    inject_faults(index, attempt)
    t0 = time.perf_counter()
    value = fn(items[index])
    return value, time.perf_counter() - t0


def _record_completion(
    completed: deque, wake: threading.Event, index: int, failed: bool, outcome
) -> None:
    """Pool callback: queue ``(index, outcome, failed)`` and wake the supervisor."""
    completed.append((index, outcome, failed))
    wake.set()


def resolve_workers(env: str = "REPRO_WORKERS") -> int:
    """Worker count from the environment; 0 (= serial) when unset.

    ``REPRO_WORKERS=4`` fans sweeps and packet batches out over 4
    processes; unset, ``0`` and ``1`` all mean the plain serial path.
    Negative or non-integer values raise ``ValueError`` naming the
    variable — garbage never silently means "unset".
    """
    return env_int(env, 0, 0)


def resolve_batch(env: str = "REPRO_BATCH") -> int:
    """Packet batch size from the environment; the default when unset.

    The size is an upper bound on packets per vectorized link call:
    ``REPRO_BATCH=128`` stacks at most 128 packets per call, fewer when
    their captures would exceed the link's sample budget.
    ``REPRO_BATCH=0`` and ``1`` both mean one packet per stacked call, on
    the same driver.  Unset means the default cap of ``DEFAULT_BATCH``
    packets — results are bit-identical under every cap.  Negative or
    non-integer values raise ``ValueError`` naming the variable.
    """
    return env_int(env, DEFAULT_BATCH, 0)


def resolve_timeout(env: str = "REPRO_TIMEOUT") -> float | None:
    """Per-task wall-clock timeout in seconds; ``None`` (no limit) when unset.

    ``REPRO_TIMEOUT=120`` recycles the pool and retries any task that has
    not returned within 120 s.  Unset, empty and ``0`` disable the limit;
    negative or non-numeric values raise ``ValueError`` naming the
    variable.
    """
    raw = os.environ.get(env)
    if raw is None or raw.strip() == "":
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{env} must be a number of seconds, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"{env} must be >= 0, got {value}")
    return value if value > 0 else None


def resolve_retries(env: str = "REPRO_RETRIES") -> int:
    """Retry budget per task; ``DEFAULT_RETRIES`` when unset.

    ``REPRO_RETRIES=0`` fails fast on the first error; ``REPRO_RETRIES=5``
    gives every task five more chances (with deterministic exponential
    backoff) before the sweep raises.  Negative or non-integer values
    raise ``ValueError`` naming the variable.
    """
    return env_int(env, DEFAULT_RETRIES, 0)


def _backoff_seconds(failure_count: int) -> float:
    """Deterministic exponential backoff before retry ``failure_count``.

    No jitter on purpose: the delay is a pure function of the attempt
    number, so chaos tests and reproductions see identical schedules.
    """
    return min(BACKOFF_CAP, BACKOFF_BASE * (2.0 ** (failure_count - 1)))


@dataclass(frozen=True)
class MapReport:
    """Results of one (possibly parallel) map, with timing telemetry.

    ``values`` are in input order.  ``seconds`` holds each item's own wall
    time as measured inside the worker; ``wall_seconds`` is the end-to-end
    time of the whole map, so ``busy_seconds / (workers * wall_seconds)``
    estimates how well the pool was utilized.  ``retries`` counts task
    attempts beyond the first (crashes, hangs and errors that were
    recovered by the supervisor).
    """

    values: tuple
    seconds: tuple[float, ...]
    wall_seconds: float
    workers: int
    retries: int = 0

    @property
    def busy_seconds(self) -> float:
        """Total in-worker compute time across all items."""
        return float(sum(self.seconds))

    @property
    def utilization(self) -> float:
        """Fraction of the pool's wall-time capacity spent computing."""
        if self.wall_seconds <= 0 or self.workers <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (self.workers * self.wall_seconds))


class ParallelExecutor:
    """Ordered map over items, serial or across a supervised worker pool.

    Parameters
    ----------
    workers:
        Number of pool processes.  ``0`` or ``1`` selects the serial
        path; ``None`` reads ``REPRO_WORKERS`` from the environment.
        Serial is also forced where ``fork`` is unavailable and inside
        pool workers (no nested pools).
    timeout:
        Per-task wall-clock budget in seconds (``None`` reads
        ``REPRO_TIMEOUT``; ``0`` disables).
    retries:
        Retry budget per task (``None`` reads ``REPRO_RETRIES``).
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        timeout: float | None = None,
        retries: int | None = None,
    ) -> None:
        self.workers = resolve_workers() if workers is None else max(0, int(workers))
        if timeout is None:
            self.timeout = resolve_timeout()
        else:
            self.timeout = float(timeout) if timeout > 0 else None
        self.retries = resolve_retries() if retries is None else max(0, int(retries))

    @classmethod
    def from_env(cls) -> "ParallelExecutor":
        """The executor configured by ``REPRO_WORKERS`` (serial if unset)."""
        return cls(resolve_workers())

    @staticmethod
    def fork_available() -> bool:
        """Whether the forked-pool transport exists on this platform."""
        return "fork" in multiprocessing.get_all_start_methods()

    @property
    def parallel(self) -> bool:
        """Whether maps will actually use a worker pool."""
        return self.workers > 1 and self.fork_available() and not _IN_WORKER

    def map(self, fn: Callable, items: Iterable) -> list:
        """``[fn(x) for x in items]`` with pool fan-out, in input order."""
        return list(self.map_timed(fn, items).values)

    def map_timed(
        self,
        fn: Callable,
        items: Iterable,
        *,
        on_result: Callable[[int, object], None] | None = None,
    ) -> MapReport:
        """Like :meth:`map` but returning a :class:`MapReport` with timing.

        ``on_result(index, value)`` — when given — is invoked in the
        *supervisor* process as each item completes (completion order,
        not input order); the checkpoint layer hooks it to persist
        progress incrementally.
        """
        items = list(items)
        if not items:
            return MapReport(values=(), seconds=(), wall_seconds=0.0, workers=1)
        n = len(items)
        t0 = time.perf_counter()
        values: list = [None] * n
        seconds: list = [0.0] * n
        attempts = [0] * n
        if not self.parallel or n < 2:
            retries = self._serial_complete(
                fn, items, range(n), attempts, values, seconds, on_result
            )
            workers = 1
        else:
            global _WORKER_PAYLOAD
            _WORKER_PAYLOAD = (fn, items)
            try:
                retries = self._pool_supervised(
                    fn, items, values, seconds, attempts, on_result
                )
            finally:
                # Always drop the payload: keeping it would pin the captured
                # link/jammer objects (and their arrays) for the process
                # lifetime after the pool is gone.
                _WORKER_PAYLOAD = None
            workers = min(self.workers, n)
        return MapReport(
            values=tuple(values),
            seconds=tuple(seconds),
            wall_seconds=time.perf_counter() - t0,
            workers=workers,
            retries=retries,
        )

    def map_spec(
        self,
        runner: Callable,
        spec,
        items: Iterable,
        *,
        on_result: Callable[[int, object], None] | None = None,
    ) -> MapReport:
        """:meth:`map_timed` of ``runner(spec, item)`` over ``items``.

        The entry point of spec grids (:func:`~repro.runtime.grid.run_grid`);
        ``runner`` may be any callable, closures included, since the
        pool forks and a task ships only its index.
        """
        return self.map_timed(functools.partial(runner, spec), items, on_result=on_result)

    # -- supervised execution -------------------------------------------------

    def _terminal_failure(self, kind: str, index: int, attempts: int, cause):
        """Build the taxonomy error for a task that exhausted its retries."""
        if kind == "timeout":
            assert self.timeout is not None
            return TaskTimeout(
                f"task {index} exceeded the {self.timeout:g}s per-task timeout "
                f"({attempts} attempt(s))",
                index=index, attempts=attempts, timeout=self.timeout,
            )
        if kind == "crash":
            suffix = f": {cause}" if cause is not None else ""
            error: TaskError | WorkerCrash = WorkerCrash(
                f"worker evaluating task {index} crashed ({attempts} attempt(s)){suffix}",
                index=index, attempts=attempts,
            )
        else:
            error = TaskError(
                f"task {index} raised on all {attempts} attempt(s): {cause!r}",
                index=index, attempts=attempts,
            )
        error.__cause__ = cause
        return error

    def _serial_complete(
        self,
        fn: Callable,
        items: list,
        pending: Iterable[int],
        attempts: list,
        values: list,
        seconds: list,
        on_result: Callable[[int, object], None] | None,
    ) -> int:
        """Run ``pending`` indices in order with fault injection + retries.

        Serves both the plain serial path and the graceful-degradation
        tail of an unhealthy pool (which is why ``attempts`` carries over:
        a task that already burned pool attempts keeps its count).
        Timeouts are not enforceable in-process; hangs injected here are
        plain sleeps.  Returns the number of retries consumed.
        """
        retries_used = 0
        for index in pending:
            while True:
                t0 = time.perf_counter()
                try:
                    inject_faults(index, attempts[index])
                    value = fn(items[index])
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:
                    attempts[index] += 1
                    kind = "crash" if isinstance(exc, InjectedCrash) else "error"
                    if attempts[index] > self.retries:
                        raise self._terminal_failure(kind, index, attempts[index], exc) from exc
                    retries_used += 1
                    time.sleep(_backoff_seconds(attempts[index]))
                    continue
                seconds[index] = time.perf_counter() - t0
                values[index] = value
                if on_result is not None:
                    on_result(index, value)
                break
        return retries_used

    def _pool_supervised(
        self,
        fn: Callable,
        items: list,
        values: list,
        seconds: list,
        attempts: list,
        on_result: Callable[[int, object], None] | None,
    ) -> int:
        """Supervise a forked pool until every task completes (or one is terminal).

        Sliding window of ``apply_async`` submissions (window = pool
        size); the supervisor sleeps until a task's callback reports its
        completion, or ``_POLL_SECONDS`` pass, then checks the per-task
        wall-clock timeout and for dead children.  A hang or crash
        recycles the pool and requeues the unfinished work; more than
        ``MAX_POOL_RESTARTS`` recycles abandons the pool and finishes
        serially.
        """
        n = len(items)
        context = multiprocessing.get_context("fork")
        done = [False] * n
        not_before = [0.0] * n  # earliest resubmission time (backoff)
        retries_used = 0
        pool_restarts = 0

        def register_failure(index: int, kind: str, cause=None) -> None:
            nonlocal retries_used
            attempts[index] += 1
            if attempts[index] > self.retries:
                raise self._terminal_failure(kind, index, attempts[index], cause)
            retries_used += 1
            not_before[index] = time.monotonic() + _backoff_seconds(attempts[index])

        while True:
            pending = [i for i in range(n) if not done[i]]
            if not pending:
                return retries_used
            if pool_restarts > MAX_POOL_RESTARTS:
                break  # pool is unhealthy — degrade to the serial tail
            processes = min(self.workers, len(pending))
            try:
                pool = context.Pool(processes=processes, initializer=_init_worker)
            except OSError:
                break  # cannot even fork — serial tail
            healthy = True
            # Filled by the pool's result thread.  ``ApplyResult`` runs its
            # callback before it marks itself ready, so completions are taken
            # from here, never from ``result.ready()``.
            completed: deque = deque()
            wake = threading.Event()
            try:
                children = list(getattr(pool, "_pool", []))
                queue: deque = deque(pending)
                in_flight: dict[int, float] = {}  # index -> submission time
                while queue or in_flight:
                    now = time.monotonic()
                    # refill the window, skipping tasks still backing off
                    scanned = 0
                    while queue and len(in_flight) < processes and scanned < len(queue):
                        index = queue[0]
                        if not_before[index] > now:
                            queue.rotate(-1)
                            scanned += 1
                            continue
                        queue.popleft()
                        scanned = 0
                        in_flight[index] = time.monotonic()
                        record = functools.partial(_record_completion, completed, wake, index)
                        pool.apply_async(
                            _run_indexed, ((index, attempts[index]),),
                            callback=functools.partial(record, False),
                            error_callback=functools.partial(record, True),
                        )
                    wake.clear()
                    progressed = bool(completed)
                    while completed:
                        index, outcome, failed = completed.popleft()
                        del in_flight[index]
                        if failed:
                            kind = "crash" if isinstance(outcome, InjectedCrash) else "error"
                            register_failure(index, kind, outcome)
                            queue.append(index)  # retried in place, after its backoff
                        else:
                            value, secs = outcome
                            values[index] = value
                            seconds[index] = secs
                            done[index] = True
                            if on_result is not None:
                                on_result(index, value)
                    if in_flight:
                        if any(child.exitcode is not None for child in children):
                            # a worker died mid-task; the oldest in-flight task
                            # is the likeliest victim — requeue everything
                            oldest = min(in_flight, key=in_flight.__getitem__)
                            register_failure(oldest, "crash")
                            healthy = False
                        elif self.timeout is not None:
                            now = time.monotonic()
                            for index, started in in_flight.items():
                                if now - started > self.timeout:
                                    register_failure(index, "timeout")
                                    healthy = False
                                    break
                    if not healthy:
                        break
                    if not progressed:
                        if not in_flight and queue:
                            backoff = min(not_before[i] for i in queue) - time.monotonic()
                            time.sleep(max(_POLL_SECONDS, backoff))
                        else:
                            wake.wait(_POLL_SECONDS)
            finally:
                pool.terminate()
                pool.join()
            if not healthy:
                pool_restarts += 1
        # graceful degradation: finish whatever is left on the serial path
        pending = [i for i in range(n) if not done[i]]
        retries_used += self._serial_complete(
            fn, items, pending, attempts, values, seconds, on_result
        )
        return retries_used
