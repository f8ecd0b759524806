"""Self-tests of the benchmark, at tiny sizes.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import workloads
from tracing import LAYERS, TargetError, Tracer, layer_totals, resolve
from worker import digest, observers, per_layer_units

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.fixture
def tiny(monkeypatch):
    """Shrink the link and grid workloads to a few packets."""
    monkeypatch.setattr(workloads.LinkBatched, "packets", 8)
    monkeypatch.setattr(workloads, "GRID_SNR_DB", [6.0, 15.0])
    monkeypatch.setattr(workloads, "GRID_SJR_DB", [-8.0, 1.0])


def build(name: str, seed: int, tmp_path: Path) -> workloads.Workload:
    workload = workloads.WORKLOADS[name](seed, tmp_path)
    workload.setup()
    return workload


def test_every_patch_target_resolves():
    for targets in LAYERS.values():
        for target in targets:
            owner, name, raw = resolve(target)
            assert getattr(owner, name) is not None and raw is not None


def test_missing_target_fails_by_its_dotted_name():
    from repro.core.control import ControlLogic

    original = ControlLogic.decide
    layers = {
        "control.decide": ("repro.core.control:ControlLogic.decide",),
        "gone": ("repro.core.control:ControlLogic.no_such_method",),
    }
    with pytest.raises(TargetError, match="repro.core.control:ControlLogic.no_such_method"):
        with Tracer().installed(layers):
            pass
    assert ControlLogic.decide is original  # the partial install was undone


def test_self_time_subtracts_child_spans():
    spans = [("outer", 0.0, 10.0, -1), ("inner", 1.0, 4.0, 0), ("inner", 5.0, 6.0, 0)]
    assert layer_totals(spans) == {"outer": (6.0, 1), "inner": (4.0, 2)}


@pytest.mark.parametrize("name", ["link-batched", "grid-serial"])
def test_tracing_keeps_digests_and_self_times_fit_the_wall(name, tiny, tmp_path):
    workload = build(name, 0, tmp_path)
    plain = workload.run()
    tracer = Tracer(observers())
    with tracer.installed():
        start = time.perf_counter()
        traced = workload.run()
        wall = time.perf_counter() - start
    spans, counts = tracer.take()
    assert digest(traced.rows) == digest(plain.rows)
    totals = layer_totals(spans)
    assert sum(seconds for seconds, _ in totals.values()) <= wall
    assert all(seconds >= 0 for seconds, _ in totals.values())
    assert counts["control.lowpass_count"] + counts["control.excision_count"] > 0


def test_seed_changes_digests_and_serial_equals_pool(tiny, tmp_path):
    base = build("grid-pool", 0, tmp_path / "a")
    other = build("grid-pool", 1, tmp_path / "b")
    pooled = other.run()
    assert pooled.timing.workers == workloads.POOL_WORKERS
    assert pooled.rows == other.run(0).rows
    assert digest(pooled.rows) != digest(base.run(0).rows)


def test_warm_cache_serves_every_point(tiny, tmp_path):
    workload = build("grid-cache-warm", 1, tmp_path)
    tracer = Tracer(observers())
    with tracer.installed():
        first = workload.run()
    _, counts = tracer.take()
    assert workload.guard(first, counts) == []
    assert first.rows == workload.reference()


def test_session_fault_seed_follows_the_workload_seed(tmp_path, monkeypatch):
    from repro.runtime import FaultPlan

    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    plans = []
    for seed in (0, 1):
        build("session-chaos", seed, tmp_path)
        plans.append(FaultPlan.from_env())
    assert plans[0].seed != plans[1].seed
    assert all(workloads.fires_canonical_pattern(plan) for plan in plans)


def test_benchmark_json_names_known_workloads_and_every_metric():
    spec = json.loads(BENCHMARK.read_text())
    for entry in spec["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert {m["name"] for m in spec["end_to_end"]} == {
        "packets_per_s", "cpu_s_per_packet", "peak_rss_mb", "setup_s",
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
