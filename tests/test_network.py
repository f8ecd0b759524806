"""Network subsystem tests: spec layer, simulator, runner, and metrics.

The hard equivalence wall lives here: an N=1 network with no cross-link
interferers must reproduce :meth:`LinkSimulator.run_packets`
bit-identically at every seed — dataclass equality on
:class:`LinkStats` compares the raw integer counters, so ``==`` *is*
the bit-identity check.
"""

import json
import os

import pytest

from repro.core import BHSSConfig, LinkSimulator, LinkStats
from repro.network import (
    JAMMER_SWEEP_COLUMNS,
    NETWORK_COLUMNS,
    LinkSpec,
    NetworkError,
    NetworkSimulator,
    NetworkSpec,
    evaluate_network_link,
    jain_fairness,
    jammer_count_sweep,
    run_network,
)
from repro.runtime import ParallelExecutor, ResultCache, SweepCheckpoint, stable_hash

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples", "scenarios")

TONE = {"type": "tone", "frequency": 250e3}
NOISE = {"type": "noise", "bandwidth": 625e3}


def small_config(seed=3, **kw):
    return BHSSConfig.paper_default(payload_bytes=2, seed=seed, **kw)


def one_link_spec(seed, jammed=True, packets=2):
    link = LinkSpec(
        name="solo",
        config=small_config(),
        seed=seed,
        snr_db=12.0,
        sjr_db=-8.0 if jammed else -10.0,
        jammer=dict(TONE) if jammed else {"type": "none"},
    )
    return NetworkSpec(name="n1", links=(link,), packets=packets)


def mesh_spec(packets=2, coupling=-18.0):
    links = (
        LinkSpec(name="a", config=small_config(seed=5), seed=50, snr_db=14.0,
                 sjr_db=-8.0, jammer=dict(TONE)),
        LinkSpec(name="b", config=small_config(seed=6), seed=51, snr_db=14.0),
        LinkSpec(name="c", config=small_config(seed=7), seed=52, snr_db=12.0,
                 sjr_db=-10.0, jammer=dict(NOISE), jammer_delay_samples=100),
    )
    matrix = (
        (None, coupling, None),
        (coupling, None, coupling),
        (None, coupling, None),
    )
    return NetworkSpec(name="mesh3", links=links, coupling_db=matrix, packets=packets)


# ---------------------------------------------------------------------------
# the equivalence wall
# ---------------------------------------------------------------------------

class TestSingleLinkEquivalence:
    """N=1, no interferers: must equal LinkSimulator.run_packets exactly."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("jammed", [True, False])
    def test_bit_identical_to_link_simulator(self, seed, jammed):
        spec = one_link_spec(seed, jammed=jammed, packets=3)
        link = spec.links[0]
        network_stats = NetworkSimulator(spec).run_link(0)
        classic = LinkSimulator(link.config).run_packets(
            spec.packets,
            snr_db=link.snr_db,
            sjr_db=link.sjr_db,
            jammer=link.build_jammer() if jammed else None,
            seed=link.seed,
            jammer_delay_samples=link.jammer_delay_samples,
            cache=False,
        )
        assert network_stats == classic

    def test_run_network_reconstructs_identical_stats(self):
        spec = one_link_spec(1, packets=3)
        link = spec.links[0]
        result = run_network(spec, cache=False, checkpoint=False)
        classic = LinkSimulator(link.config).run_packets(
            spec.packets, snr_db=link.snr_db, sjr_db=link.sjr_db,
            jammer=link.build_jammer(), seed=link.seed, cache=False,
        )
        assert result.link_stats("solo") == classic


# ---------------------------------------------------------------------------
# seed independence
# ---------------------------------------------------------------------------

class TestSeedIndependence:
    def test_duplicate_run_seeds_rejected(self):
        links = (
            LinkSpec(name="a", config=small_config(seed=1), seed=7),
            LinkSpec(name="b", config=small_config(seed=2), seed=7),
        )
        with pytest.raises(NetworkError, match=r"links\[1\]\.seed: 7 duplicates link 'a'"):
            NetworkSpec(name="bad", links=links)

    def test_distinct_links_never_share_a_substream(self):
        # distinct run seeds → distinct child streams: the first noise
        # draws of every (link, packet) pair must be pairwise different
        from repro.utils.rng import child_rng

        spec = mesh_spec()
        draws = set()
        for link in spec.links:
            for k in range(spec.packets):
                gen = child_rng(link.seed, "packet", str(k))
                draws.add(tuple(gen.standard_normal(4).tolist()))
        assert len(draws) == spec.num_links * spec.packets

    def test_link_permutation_leaves_per_link_stats_unchanged(self):
        # reorder the links (and the coupling matrix with them): every
        # link's stats, matched by name, must be bit-identical
        spec = mesh_spec()
        baseline = {
            link.name: NetworkSimulator(spec).run_link(i)
            for i, link in enumerate(spec.links)
        }
        order = [2, 0, 1]
        assert spec.coupling_db is not None
        permuted = NetworkSpec(
            name=spec.name,
            links=tuple(spec.links[i] for i in order),
            coupling_db=tuple(
                tuple(spec.coupling_db[i][j] for j in order) for i in order
            ),
            packets=spec.packets,
        )
        sim = NetworkSimulator(permuted)
        for i, link in enumerate(permuted.links):
            assert sim.run_link(i) == baseline[link.name]

    def test_silencing_one_jammer_does_not_touch_other_links(self):
        spec = mesh_spec()
        full = NetworkSimulator(spec)
        # silence link a's jammer (the first jammed link)
        derived = spec.with_active_jammers(1)  # keeps a's, drops c's
        assert derived.links[0].jammed and not derived.links[2].jammed
        part = NetworkSimulator(derived)
        # links a and b are untouched by c's jammer state
        assert part.run_link(0) == full.run_link(0)
        assert part.run_link(1) == full.run_link(1)


# ---------------------------------------------------------------------------
# superposition has an effect
# ---------------------------------------------------------------------------

class TestCoupling:
    def test_strong_coupling_degrades_the_victim(self):
        quiet = NetworkSimulator(mesh_spec(coupling=-60.0)).run_link(1)
        loud = NetworkSimulator(mesh_spec(coupling=6.0)).run_link(1)
        assert loud.packet_error_rate >= quiet.packet_error_rate
        assert loud.packet_error_rate > 0.0  # +6 dB neighbours on both sides

    def test_isolated_network_equals_no_coupling_matrix(self):
        spec = mesh_spec()
        isolated = NetworkSpec(
            name=spec.name, links=spec.links,
            coupling_db=None, packets=spec.packets,
        )
        nulled = NetworkSpec(
            name=spec.name, links=spec.links,
            coupling_db=((None,) * 3,) * 3, packets=spec.packets,
        )
        for i in range(3):
            assert (
                NetworkSimulator(isolated).run_link(i)
                == NetworkSimulator(nulled).run_link(i)
            )


# ---------------------------------------------------------------------------
# spec layer
# ---------------------------------------------------------------------------

class TestNetworkSpec:
    def test_json_round_trip(self):
        spec = mesh_spec()
        data = json.loads(json.dumps(spec.to_dict()))
        assert NetworkSpec.from_dict(data) == spec

    def test_save_load(self, tmp_path):
        spec = mesh_spec()
        path = spec.save(str(tmp_path / "net.json"))
        assert NetworkSpec.load(path) == spec

    def test_load_errors_carry_the_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "links": [{"name": "a", "volume": 11}]}))
        with pytest.raises(NetworkError, match=r"bad\.json.*links\[0\].*volume"):
            NetworkSpec.load(str(path))

    @pytest.mark.parametrize("mutate, fragment", [
        (lambda d: d.update(gain=3), "unknown network field"),
        (lambda d: d.pop("name"), "name: field is required"),
        (lambda d: d.update(links=[]), "non-empty list"),
        (lambda d: d.update(packets=0), "packets: must be >= 1"),
        (lambda d: d.update(coupling_db=[[None]]), "3x3 matrix"),
        (lambda d: d["coupling_db"].__setitem__(0, [0.0, -18.0, None]), "diagonal must be null"),
        (lambda d: d.update(delay_samples=[[0, -1, 0], [0, 0, 0], [0, 0, 0]]), "must be >= 0"),
        (lambda d: d.update(delay_samples=[[0, 5, 0], [0, 7, 0], [0, 0, 0]]), "diagonal delay must be 0"),
        (lambda d: d["links"][0].update(name="b"), "duplicate link name"),
        (lambda d: d["links"][0].update(jammer={"type": "tone"}), "jammer"),
    ])
    def test_validation_errors_name_the_field(self, mutate, fragment):
        data = mesh_spec().to_dict()
        mutate(data)
        with pytest.raises(NetworkError, match=fragment):
            NetworkSpec.from_dict(data)

    def test_mismatched_sample_rates_rejected(self):
        import dataclasses

        from repro.hopping import BandwidthSet

        base = small_config(seed=2)
        halved = dataclasses.replace(
            base,
            bandwidth_set=BandwidthSet(
                bandwidths=base.bandwidth_set.bandwidths, sample_rate=40e6
            ),
        )
        links = (
            LinkSpec(name="a", config=small_config(seed=1), seed=1),
            LinkSpec(name="b", config=halved, seed=2),
        )
        with pytest.raises(NetworkError, match="one medium sample rate"):
            NetworkSpec(name="mixed", links=links)

    def test_with_active_jammers(self):
        spec = mesh_spec()  # a and c jammed
        assert spec.num_jammers == 2
        assert spec.with_active_jammers(0).num_jammers == 0
        one = spec.with_active_jammers(1)
        assert [link.jammed for link in one.links] == [True, False, False]
        assert spec.with_active_jammers(5).num_jammers == 2
        # everything else is untouched
        assert one.links[2].without_jammer() == spec.links[2].without_jammer()
        assert one.coupling_db == spec.coupling_db

    def test_topology_queries(self):
        spec = mesh_spec()
        assert spec.num_links == 3
        assert spec.interferers(0) == (1,)
        assert spec.interferers(1) == (0, 2)
        assert spec.cross_delay(0, 1) == 0  # no delay matrix

    def test_example_network_files_validate(self):
        mesh = NetworkSpec.load(os.path.join(EXAMPLES, "network_mesh4.json"))
        jammed = NetworkSpec.load(os.path.join(EXAMPLES, "network_jammed8.json"))
        assert mesh.num_links == 4 and mesh.num_jammers == 2
        assert jammed.num_links == 8 and jammed.num_jammers == 8


# ---------------------------------------------------------------------------
# runner: parallel fan-out, cache, checkpoint
# ---------------------------------------------------------------------------

class TestRunNetwork:
    def test_records_follow_link_order_and_columns(self):
        spec = mesh_spec()
        result = run_network(spec, cache=False, checkpoint=False)
        assert [r["link"] for r in result.records] == ["a", "b", "c"]
        table = result.to_sweep_result()
        assert table.columns == NETWORK_COLUMNS
        assert len(table.rows) == 3

    def test_eight_link_example_through_the_pool(self):
        spec = NetworkSpec.load(os.path.join(EXAMPLES, "network_jammed8.json"))
        if not ParallelExecutor.fork_available():
            pytest.skip("no fork on this platform")
        result = run_network(spec, executor=ParallelExecutor(2), cache=False, checkpoint=False)
        assert len(result.records) == 8
        agg = result.aggregates()
        assert agg["num_links"] == 8 and agg["num_jammers"] == 8
        assert 0.0 < agg["fairness"] <= 1.0
        assert agg["network_throughput_bps"] >= 0.0

    def test_cache_round_trip(self, tmp_path):
        spec = mesh_spec()
        root = str(tmp_path / "cache")
        first = run_network(spec, cache=root, checkpoint=False)
        probe = ResultCache(root)
        payload = {"network": spec.to_dict(), "cache": probe}
        for i in range(spec.num_links):
            assert evaluate_network_link(payload, i) == first.records[i]
        assert probe.hits == spec.num_links
        assert probe.misses == 0

    def test_checkpoint_resume_skips_finished_links(self, tmp_path):
        spec = mesh_spec()
        root = str(tmp_path / "ckpt")
        full = run_network(spec, cache=False, checkpoint=False)
        key = stable_hash({"network": spec.to_dict()})
        # pre-seed links 0 and 2 as already finished
        ck = SweepCheckpoint(root, key, total=spec.num_links)
        ck.record(0, full.records[0])
        ck.record(2, full.records[2])
        ck.flush()
        resumed = run_network(spec, cache=False, checkpoint=root)
        assert resumed.records == full.records
        # only the pending link was simulated
        assert resumed.timing is not None
        assert resumed.timing.point_seconds[0] == 0.0
        assert resumed.timing.point_seconds[1] > 0.0
        assert resumed.timing.point_seconds[2] == 0.0
        # a completed run clears its checkpoint
        assert SweepCheckpoint(root, key, total=spec.num_links).load() == {}

    def test_jammer_count_sweep_shape(self):
        spec = mesh_spec()
        sweep = jammer_count_sweep(spec, cache=False, checkpoint=False)
        assert sweep.columns == JAMMER_SWEEP_COLUMNS
        assert sweep.column("num_jammers") == [0, 1, 2]
        for row in sweep.rows:
            assert 0.0 < row["fairness"] <= 1.0
            assert 0.0 <= row["mean_per"] <= 1.0

    def test_link_stats_lookup_unknown_name(self):
        result = run_network(one_link_spec(0), cache=False, checkpoint=False)
        with pytest.raises(KeyError, match="no link named"):
            result.link_stats("ghost")
        assert isinstance(result.link_stats("solo"), LinkStats)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

class TestJainFairness:
    def test_equal_shares_are_perfectly_fair(self):
        assert jain_fairness([3.0, 3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_one_hog_approaches_one_over_n(self):
        assert jain_fairness([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_all_zero_defined_as_fair(self):
        assert jain_fairness([0.0, 0.0]) == 1.0

    def test_scale_invariant(self):
        assert jain_fairness([1.0, 2.0, 3.0]) == pytest.approx(jain_fairness([10.0, 20.0, 30.0]))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            jain_fairness([])

    def test_negative_raises_with_index(self):
        with pytest.raises(ValueError, match=r"\[1\]"):
            jain_fairness([1.0, -0.5])

    def test_bounds(self):
        values = [0.1, 5.0, 2.0, 0.0, 7.5]
        f = jain_fairness(values)
        assert 1.0 / len(values) <= f <= 1.0
