"""The declarative scenario layer: serialization, registries, execution.

Covers the spec round trips (``BHSSConfig.to_dict``/``from_dict``, jammer
``spec()``/``from_spec`` for every registered type), the field-naming
validation errors, ``Scenario`` load/save/build, serial-vs-parallel
equivalence of ``run_scenario`` through ``map_spec``, and the
cross-process cache-key guarantee (identical scenario JSON → same cache
entries).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.channel import (
    Impairments,
    MultipathChannel,
    channel_from_spec,
    channel_names,
    channel_spec,
    impairments_from_spec,
)
from repro.core import BHSSConfig, LinkSimulator
from repro.jamming import (
    JAMMER_REGISTRY,
    BandlimitedNoiseJammer,
    CombJammer,
    FollowerJammer,
    HoppingJammer,
    LatentReactiveJammer,
    MatchedReactiveJammer,
    MultiToneJammer,
    NoJammer,
    PulsedJammer,
    RepeaterJammer,
    SweepJammer,
    ToneJammer,
    jammer_from_spec,
    jammer_names,
    register_jammer,
)
from repro.jamming.base import Jammer
from repro.runtime import ParallelExecutor, ResultCache
from repro.scenario import SCENARIO_COLUMNS, Scenario, ScenarioError, run_scenario
from repro.utils.rng import make_rng

FS = 20e6


# ---------------------------------------------------------------------------
# config round trips
# ---------------------------------------------------------------------------

class TestConfigRoundTrip:
    @pytest.mark.parametrize(
        "cfg",
        [
            BHSSConfig.paper_default(),
            BHSSConfig.paper_default().without_filtering(),
            BHSSConfig.paper_default().as_theory_baseline(),
            BHSSConfig.paper_default(pattern="parabolic", seed=42, payload_bytes=8),
            BHSSConfig.paper_default(pulse="rect", symbols_per_hop=16),
            BHSSConfig.paper_default(fec="hamming74"),
            BHSSConfig.paper_default().with_fixed_bandwidth(1.25e6),
        ],
        ids=[
            "paper_default",
            "without_filtering",
            "as_theory_baseline",
            "parabolic_variant",
            "rect_pulse",
            "hamming_fec",
            "fixed_bandwidth",
        ],
    )
    def test_lossless(self, cfg):
        assert BHSSConfig.from_dict(cfg.to_dict()) == cfg

    def test_array_pattern_round_trips_via_dict(self):
        # frozen-dataclass equality chokes on ndarray fields, so the
        # explicit-weights variant is asserted at the spec level
        weights = np.array([0.4, 0.2, 0.1, 0.1, 0.1, 0.05, 0.05])
        cfg = BHSSConfig.paper_default(pattern=weights)
        spec = cfg.to_dict()
        assert spec["pattern"] == [pytest.approx(w) for w in weights]
        assert BHSSConfig.from_dict(spec).to_dict() == spec

    def test_dict_is_json_serializable(self):
        text = json.dumps(BHSSConfig.paper_default(fec="rep3").to_dict())
        assert BHSSConfig.from_dict(json.loads(text)) == BHSSConfig.paper_default(fec="rep3")

    def test_defaults_match_paper_default(self):
        assert BHSSConfig.from_dict({}) == BHSSConfig.paper_default()

    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ({"symbols_per_hop": "four"}, "symbols_per_hop"),
            ({"filtering": 1}, "filtering"),
            ({"payload_bytes": 1.5}, "payload_bytes"),
            ({"bogus_field": 1}, "bogus_field"),
            ({"fec": 7}, "fec"),
        ],
    )
    def test_errors_name_the_field(self, spec, fragment):
        with pytest.raises(ValueError, match=fragment):
            BHSSConfig.from_dict(spec)


# ---------------------------------------------------------------------------
# jammer registry round trips
# ---------------------------------------------------------------------------

def _sample_jammers() -> dict[str, Jammer]:
    """One representative instance per registered jammer type."""
    return {
        "none": NoJammer(),
        "noise": BandlimitedNoiseJammer(0.625e6, FS, centre=1e6),
        "tone": ToneJammer(1e6, FS),
        "sweep": SweepJammer(-4e6, 4e6, FS, sweep_duration=1e-3),
        "pulsed": PulsedJammer(ToneJammer(2e6, FS), duty_cycle=0.3, period_samples=512),
        "comb": CombJammer([-3e6, -1e6, 1e6, 3e6], FS, seed=5),
        "hopping": HoppingJammer(
            [10e6, 5e6, 2.5e6], FS, dwell_samples=2048, weights="parabolic", seed=9
        ),
        "reactive": MatchedReactiveJammer(
            FS, reaction_samples=1024, initial_bandwidth=10e6, reaction_fraction=0.25
        ),
        "latent-reactive": LatentReactiveJammer(
            FS, bandwidth=2.5e6, threshold_db=-6.0, turnaround_samples=1024
        ),
        "repeater": RepeaterJammer(delay_samples=64, num_taps=3),
        "multitone": MultiToneJammer(FS, placement_bandwidth=0.625e6, num_tones=4),
        "follower": FollowerJammer(FS, initial_bandwidth=2.5e6, learning_rate=0.5),
    }


class TestJammerRegistry:
    def test_every_registered_type_has_a_sample(self):
        assert set(_sample_jammers()) == set(JAMMER_REGISTRY)
        assert jammer_names() == sorted(JAMMER_REGISTRY)

    @pytest.mark.parametrize("name", sorted(JAMMER_REGISTRY))
    def test_spec_round_trip(self, name):
        jammer = _sample_jammers()[name]
        spec = jammer.spec()
        assert spec["type"] == name
        rebuilt = jammer_from_spec(json.loads(json.dumps(spec)))
        assert rebuilt.spec() == spec
        # behavioral equality: identical RNGs must draw identical waveforms
        a = jammer.waveform(512, make_rng(123))
        b = rebuilt.waveform(512, make_rng(123))
        np.testing.assert_array_equal(a, b)

    def test_sample_rate_injection(self):
        jammer = jammer_from_spec({"type": "noise", "bandwidth": 1e6}, sample_rate=FS)
        assert jammer.sample_rate == FS

    def test_unknown_type_and_fields_named(self):
        with pytest.raises(ValueError, match="nope"):
            jammer_from_spec({"type": "nope"})
        with pytest.raises(ValueError, match="bandwith"):
            jammer_from_spec({"type": "noise", "bandwith": 1e6, "sample_rate": FS})

    def test_passthrough_of_instances(self):
        jammer = NoJammer()
        assert jammer_from_spec(jammer) is jammer

    def test_jammer_registered_after_a_lookup_validates_its_fields(self):
        jammer_from_spec({"type": "noise", "bandwidth": 1e6}, sample_rate=FS)

        class LateJammer(NoJammer):
            def __init__(self, level: float = 1.0) -> None:
                self.level = level

            def spec(self) -> dict:
                return {"type": "late-unit", "level": self.level}

        register_jammer("late-unit", LateJammer)
        try:
            assert jammer_from_spec({"type": "late-unit", "level": 2.0}).level == 2.0
            with pytest.raises(ValueError, match="levle"):
                jammer_from_spec({"type": "late-unit", "levle": 2.0})
        finally:
            del JAMMER_REGISTRY["late-unit"]


# ---------------------------------------------------------------------------
# channel registry
# ---------------------------------------------------------------------------

class TestChannelRegistry:
    def test_multipath_round_trip(self):
        channel = MultipathChannel(num_taps=8, decay_samples=3.0, seed=3, line_of_sight=1.0)
        spec = channel.spec()
        rebuilt = channel_from_spec(json.loads(json.dumps(spec)))
        assert rebuilt.spec() == spec
        x = (np.arange(64) + 1j * np.arange(64)).astype(complex)
        np.testing.assert_array_equal(channel.apply(x), rebuilt.apply(x))

    def test_none_channel(self):
        assert channel_from_spec(None) is None
        assert channel_from_spec({"type": "none"}) is None
        assert channel_spec(None) == {"type": "none"}
        assert "none" in channel_names()

    def test_impairments_round_trip(self):
        imp = Impairments(cfo_hz=150.0, phase_rad=0.2, dc_offset=0.01 + 0.02j)
        spec = json.loads(json.dumps(imp.to_dict()))
        assert impairments_from_spec(spec) == imp
        assert impairments_from_spec(None) is None

    def test_bad_channel_field_named(self):
        with pytest.raises(ValueError, match="num_tapz"):
            channel_from_spec({"type": "multipath", "num_tapz": 8})


# ---------------------------------------------------------------------------
# Scenario spec
# ---------------------------------------------------------------------------

def _scenario() -> Scenario:
    return Scenario(
        name="unit",
        config=BHSSConfig.from_dict({"pattern": "parabolic", "seed": 42, "payload_bytes": 4}),
        jammer={"type": "noise", "bandwidth": 625e3},
        snr_db=(15.0,),
        sjr_db=(0.0, -10.0),
        packets=3,
        seed=7,
        description="unit-test scenario",
    )


class TestScenario:
    def test_round_trip(self):
        s = _scenario()
        assert Scenario.from_dict(s.to_dict()).to_dict() == s.to_dict()

    def test_save_load(self, tmp_path):
        path = _scenario().save(str(tmp_path / "s.json"))
        loaded = Scenario.load(path)
        assert loaded.to_dict() == _scenario().to_dict()

    def test_build_returns_ready_components(self):
        link, jammer = _scenario().build()
        assert isinstance(link, LinkSimulator)
        assert isinstance(jammer, BandlimitedNoiseJammer)
        assert jammer.sample_rate == link.config.sample_rate

    def test_points_cross_product(self):
        assert _scenario().points() == [(15.0, 0.0), (15.0, -10.0)]

    @pytest.mark.parametrize(
        "data, fragment",
        [
            ({}, "name"),
            ({"name": "x", "extra": 1}, "extra"),
            ({"name": "x", "grid": {"snr_db": []}}, "grid.snr_db"),
            ({"name": "x", "grid": {"snr_db": [1.0, "two"]}}, r"grid.snr_db\[1\]"),
            ({"name": "x", "grid": {"foo": [1.0]}}, "foo"),
            ({"name": "x", "packets": 0}, "packets"),
            ({"name": "x", "jammer": {"type": "nope"}}, "jammer"),
            ({"name": "x", "config": {"symbols_per_hop": "four"}}, "symbols_per_hop"),
            ({"name": "x", "channel": {"type": "warp"}}, "channel"),
        ],
    )
    def test_validation_errors_name_the_field(self, data, fragment):
        with pytest.raises(ScenarioError, match=fragment):
            Scenario.from_dict(data)

    def test_load_errors_carry_the_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "packets": -1}')
        with pytest.raises(ScenarioError, match="bad.json"):
            Scenario.load(str(path))

    def test_example_error_message_shape(self):
        with pytest.raises(ScenarioError) as err:
            Scenario.from_dict({"name": "x", "config": {"symbols_per_hop": "four"}})
        assert "config field 'symbols_per_hop': expected an integer" in str(err.value)


class TestGridPointCost:
    """A grid point builds one link; validation builds none."""

    @pytest.fixture
    def links(self, monkeypatch):
        built = []
        original = LinkSimulator.__init__

        def counting_init(link, *args, **kwargs):
            built.append(link)
            original(link, *args, **kwargs)

        monkeypatch.setattr(LinkSimulator, "__init__", counting_init)
        return built

    def test_from_dict_builds_no_link(self, links):
        Scenario.from_dict(_scenario().to_dict())
        assert links == []

    def test_validation_still_names_component_fields(self, links):
        data = _scenario().to_dict()
        for field_name, spec, fragment in [
            ("jammer", {"type": "noise", "bandwith": 1e6}, "jammer: .*bandwith"),
            ("channel", {"type": "multipath", "num_tapz": 8}, "channel: .*num_tapz"),
            ("impairments", {"cfo": 1.0}, "impairments: "),
        ]:
            with pytest.raises(ScenarioError, match=fragment):
                Scenario.from_dict({**data, field_name: spec})
        assert links == []

    def test_evaluate_point_builds_one_link(self, links):
        from repro.scenario.runner import evaluate_scenario_point

        payload = {"scenario": _scenario().with_overrides(packets=1).to_dict(), "cache": False}
        row = evaluate_scenario_point(payload, (15.0, 0.0))
        assert len(links) == 1
        assert row["snr_db"] == 15.0 and row["sjr_db"] == 0.0


# ---------------------------------------------------------------------------
# scenario execution
# ---------------------------------------------------------------------------

class TestRunScenario:
    def test_columns_and_rows(self):
        result = run_scenario(_scenario(), cache=False)
        assert result.columns == SCENARIO_COLUMNS
        assert len(result.rows) == 2
        assert result.timing is not None
        assert result.timing.packets == 2 * 3

    def test_parallel_matches_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        serial = run_scenario(_scenario(), cache=False)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        parallel = run_scenario(_scenario(), cache=False)
        assert parallel.rows == serial.rows
        if ParallelExecutor.fork_available():
            assert parallel.timing.workers == 2

    def test_run_sweep_dispatches_scenarios(self):
        from repro.analysis.sweep import run_sweep

        direct = run_scenario(_scenario(), cache=False)
        via_sweep = run_sweep(_scenario(), cache=False)
        assert via_sweep.rows == direct.rows
        with pytest.raises(ValueError, match="its own grid"):
            run_sweep(_scenario(), [1.0], lambda x: {})

    def test_cache_hits_on_identical_scenario_json(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        root = str(tmp_path / "cache")
        text = json.dumps(_scenario().to_dict())

        # first "process": populate the cache from the JSON spec
        first = run_scenario(Scenario.from_dict(json.loads(text)), cache=root)

        # second "process": a fresh cache object and freshly parsed spec
        # must hit the same entries without re-simulating
        probe = ResultCache(root)
        scenario = Scenario.from_dict(json.loads(text))
        link, jammer = scenario.build()
        for snr, sjr in scenario.points():
            link.run_packets(
                scenario.packets, snr_db=snr, sjr_db=sjr, jammer=jammer,
                seed=scenario.seed, cache=probe,
            )
        assert probe.hits == len(scenario.points())
        assert probe.misses == 0

        # and the cached rerun reproduces the original rows
        again = run_scenario(Scenario.from_dict(json.loads(text)), cache=root)
        assert again.rows == first.rows


# ---------------------------------------------------------------------------
# map_spec: one forked transport for every runner
# ---------------------------------------------------------------------------

def _double(spec, item):
    return {"value": spec["k"] * item}


_SPAWN_PROBE = """
import multiprocessing
multiprocessing.set_start_method("spawn", force=True)
from repro.runtime import ParallelExecutor
k = 5
report = ParallelExecutor(2).map_spec(lambda spec, item: spec["k"] * item + k, {"k": 3}, range(6))
assert report.workers == 2, report.workers
assert list(report.values) == [3 * i + 5 for i in range(6)], report.values
"""


class TestMapSpec:
    def test_pool_matches_serial(self):
        items = list(range(8))
        serial = ParallelExecutor(0).map_spec(_double, {"k": 2}, items)
        pooled = ParallelExecutor(2).map_spec(_double, {"k": 2}, items)
        assert pooled.values == serial.values

    def test_closure_runner_pool_matches_serial(self):
        offset = 7

        def runner(spec, item):
            return {"value": spec["k"] * item + offset}

        items = list(range(8))
        serial = ParallelExecutor(0).map_spec(runner, {"k": 3}, items)
        pooled = ParallelExecutor(2).map_spec(runner, {"k": 3}, items)
        assert [v["value"] for v in serial.values] == [3 * i + 7 for i in items]
        assert pooled.values == serial.values
        assert pooled.workers == 2

    def test_pool_forks_under_spawn_default(self):
        # The process default start method does not matter: pools always
        # fork, so a closure runner still fans out over two workers.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", _SPAWN_PROBE], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_empty_items(self):
        report = ParallelExecutor(4).map_spec(_double, {"k": 1}, [])
        assert report.values == ()
