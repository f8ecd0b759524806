"""The grid-run determinism contract, checked once over every workload kind.

Raw sweeps, scenarios, networks, arenas and sessions all run through
:func:`repro.runtime.grid.run_grid`, so each must keep the same four
promises on the same tiny spec (at most 4 points of at most 2 packets):

* a 2-worker pool returns exactly the serial records;
* a warm cache returns exactly what the cold run computed (raw sweeps
  take no cache);
* a run resumed from a half-filled checkpoint returns exactly the
  uninterrupted records, without recomputing the checkpointed points;
* a run under injected crash/hang faults inside the retry budget
  returns exactly the fault-free records.

Records are compared in their checkpointed form (network and arena
records carry their raw ``stats`` counters), with plain ``==``.
"""

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from repro.analysis import run_sweep
from repro.arena import ArenaSpec, run_tournament
from repro.network import NetworkSpec, run_network
from repro.protocol import SessionSpec, run_session
from repro.runtime import FaultPlan, ParallelExecutor, ResultCache, SweepCheckpoint, stable_hash
from repro.scenario import Scenario, run_scenario

FORK = ParallelExecutor.fork_available()

SWEEP_COLUMNS = ("x", "y")
SWEEP_GRID = [0.5, 1.0, 1.5, 2.0]

SCENARIO = Scenario.from_dict(
    {
        "name": "contract-scenario",
        "config": {"pattern": "linear", "seed": 11, "payload_bytes": 2},
        # memoryless, so the link layer caches its batches
        "jammer": {"type": "noise", "bandwidth": 5e6},
        "grid": {"snr_db": [12.0, 15.0], "sjr_db": [0.0, -10.0]},
        "packets": 2,
        "seed": 19,
    }
)

NETWORK = NetworkSpec.from_dict(
    {
        "name": "contract-network",
        "links": [
            {"name": "a", "config": {"seed": 1, "payload_bytes": 2}, "seed": 10,
             "snr_db": 14.0, "sjr_db": -8.0,
             "jammer": {"type": "tone", "frequency": 250e3}},
            {"name": "b", "config": {"seed": 2, "payload_bytes": 2}, "seed": 11,
             "snr_db": 14.0},
        ],
        "coupling_db": [[None, -18.0], [-18.0, None]],
        "packets": 2,
    }
)

ARENA = ArenaSpec.from_dict(
    {
        "name": "contract-arena",
        "config": {"pattern": "linear", "seed": 7, "payload_bytes": 2, "symbols_per_hop": 4},
        "jammers": {"none": {"type": "none"}, "tone": {"type": "tone", "frequency": 1e6}},
        "patterns": ["linear"],
        "hop_ranges": [1, 4],
        "packets": 2,
        "snr_db": 15.0,
        "sjr_db": -8.0,
        "seed": 3,
    }
)

SESSION = SessionSpec.from_dict(
    {
        "name": "contract-session",
        "config": {"pattern": "parabolic", "seed": 42, "payload_bytes": 16},
        "jammer": {"type": "tone", "frequency": 1e6},
        "traffic": {"num_messages": 1, "message_bytes": 16, "seed": 3},
        "grid": {"snr_db": [15.0], "sjr_db": [0.0, -4.0]},
        "seed": 5,
    }
)


def _evaluate(x: float) -> dict:
    return {"x": x, "y": float(np.sin(x) * np.exp(-x))}


@dataclass(frozen=True)
class Kind:
    """One workload kind: how to run it and where it checkpoints."""

    name: str
    run: Callable  # (executor, cache, checkpoint) -> (records, timing)
    key: str
    total: int
    cached: bool = True


def _sweep(executor, cache, checkpoint):
    assert cache is False
    result = run_sweep(
        SWEEP_COLUMNS, SWEEP_GRID, _evaluate,
        executor=executor, checkpoint=checkpoint, checkpoint_key="contract-sweep",
    )
    return result.rows, result.timing


def _scenario(executor, cache, checkpoint):
    result = run_scenario(SCENARIO, executor=executor, cache=cache, checkpoint=checkpoint)
    return result.rows, result.timing


def _network(executor, cache, checkpoint):
    result = run_network(NETWORK, executor=executor, cache=cache, checkpoint=checkpoint)
    return result.records, result.timing


def _arena(executor, cache, checkpoint):
    result = run_tournament(ARENA, executor=executor, cache=cache, checkpoint=checkpoint)
    return result.records, result.timing


def _session(executor, cache, checkpoint):
    result = run_session(SESSION, executor=executor, cache=cache, checkpoint=checkpoint)
    return result.rows, result.timing


KINDS = [
    Kind("sweep", _sweep, "contract-sweep", len(SWEEP_GRID), cached=False),
    Kind("scenario", _scenario, stable_hash(SCENARIO.to_dict()), len(SCENARIO.points())),
    Kind("network", _network, stable_hash({"network": NETWORK.to_dict()}), NETWORK.num_links),
    Kind("arena", _arena, stable_hash({"arena": ARENA.to_dict()}), ARENA.num_cells),
    Kind("session", _session, stable_hash({"session": SESSION.to_dict()}), len(SESSION.points())),
]


@pytest.fixture(params=KINDS, ids=[k.name for k in KINDS])
def kind(request) -> Kind:
    return request.param


@pytest.fixture(autouse=True)
def _no_ambient_knobs(monkeypatch):
    for var in (
        "REPRO_WORKERS", "REPRO_CACHE", "REPRO_CHECKPOINT", "REPRO_FAULTS",
        "REPRO_TIMEOUT", "REPRO_RETRIES", "REPRO_BATCH",
    ):
        monkeypatch.delenv(var, raising=False)


def _serial(kind: Kind, cache=False, checkpoint=False):
    return kind.run(ParallelExecutor(0), cache, checkpoint)


def test_pool_equals_serial(kind):
    serial, _ = _serial(kind)
    pooled, timing = kind.run(ParallelExecutor(2), False, False)
    assert pooled == serial
    if FORK:
        assert timing.workers == 2


def test_cache_hit_equals_miss(kind, tmp_path, monkeypatch):
    if not kind.cached:
        pytest.skip("raw sweeps take no cache")
    root = str(tmp_path / "cache")
    uncached, _ = _serial(kind)
    miss, _ = _serial(kind, cache=root)
    assert miss == uncached
    assert ResultCache(root).verify().valid >= kind.total

    def no_put(self, key, value):
        raise AssertionError("a warm run recomputed a point")

    # A warm run must be served entirely from the cache, through any
    # spelling of the same store.
    monkeypatch.setattr(ResultCache, "put", no_put)
    for cache in (root, ResultCache(root)):
        hit, _ = _serial(kind, cache=cache)
        assert hit == miss


def test_half_preseeded_checkpoint_resumes(kind, tmp_path):
    full, _ = _serial(kind)
    directory = str(tmp_path / "ckpt")
    half = kind.total // 2
    preseed = SweepCheckpoint(directory, kind.key, kind.total)
    for index in range(half):
        preseed.record(index, full[index])
    preseed.flush()

    resumed, timing = _serial(kind, checkpoint=directory)
    assert resumed == full
    # The checkpointed points were merged, not recomputed.
    assert all(s == 0.0 for s in timing.point_seconds[:half])
    assert all(s > 0.0 for s in timing.point_seconds[half:])
    assert not os.path.exists(preseed.path)


def _crashing_seed(total: int) -> int:
    for seed in range(1000):
        plan = FaultPlan(crash=0.5, hang=0.5, seed=seed)
        if any(plan.should("crash", str(i)) for i in range(total)):
            return seed
    raise AssertionError("no crash-firing seed found")


def test_faulted_run_matches_fault_free(kind, monkeypatch):
    baseline, _ = _serial(kind)
    seed = _crashing_seed(kind.total)
    monkeypatch.setenv("REPRO_FAULTS", f"crash:0.5,hang:0.5,hang-seconds:0.05,seed:{seed}")
    executor = ParallelExecutor(2 if FORK else 0, timeout=60.0, retries=3)
    faulted, timing = kind.run(executor, False, False)
    assert faulted == baseline
    assert timing.retries > 0
