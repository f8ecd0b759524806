"""Documentation-consistency checks.

Docs rot silently; these tests pin the load-bearing references: every
file the README/DESIGN mention exists, every registry experiment has a
benchmark, and the public names the API guide shows actually resolve.
"""

import json
import os
import re

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(path):
    with open(os.path.join(REPO, path)) as fh:
        return fh.read()


class TestReadme:
    def test_referenced_examples_exist(self):
        text = read("README.md")
        for name in re.findall(r"`examples/(\w+\.py)`", text):
            assert os.path.exists(os.path.join(REPO, "examples", name)), name

    def test_referenced_benchmarks_exist(self):
        text = read("README.md")
        for name in re.findall(r"`(test_\w+\.py)`", text):
            assert os.path.exists(os.path.join(REPO, "benchmarks", name)), name

    def test_referenced_docs_exist(self):
        for path in ["DESIGN.md", "EXPERIMENTS.md", "docs/API.md"]:
            assert os.path.exists(os.path.join(REPO, path)), path

    def test_quickstart_snippet_runs(self):
        """The README's quickstart code must actually work (scaled down)."""
        from repro import BHSSConfig, BandlimitedNoiseJammer, LinkSimulator

        config = BHSSConfig.paper_default(pattern="parabolic", seed=42, payload_bytes=4)
        link = LinkSimulator(config)
        jammer = BandlimitedNoiseJammer(bandwidth=0.625e6, sample_rate=config.sample_rate)
        stats = link.run_packets(2, snr_db=15.0, sjr_db=-12.0, jammer=jammer, seed=7)
        assert 0.0 <= stats.packet_error_rate <= 1.0
        LinkSimulator(config.without_filtering())


class TestDesign:
    def test_experiment_index_benchmarks_exist(self):
        text = read("DESIGN.md")
        for name in set(re.findall(r"benchmarks/(test_\w+\.py)", text)):
            assert os.path.exists(os.path.join(REPO, "benchmarks", name)), name

    def test_layout_modules_exist(self):
        text = read("DESIGN.md")
        # spot-check the layout block's named modules
        for mod in ["excision.py", "gardner.py", "chiptables.py", "fec.py",
                    "fhss_link.py", "coding.py", "recordings.py"]:
            assert mod in text
            hits = [
                os.path.join(root, mod)
                for root, _d, files in os.walk(os.path.join(REPO, "src"))
                for f in files
                if f == mod
            ]
            assert hits, mod


class TestRegistryVsBenchmarks:
    def test_every_registry_entry_has_a_benchmark(self):
        from repro.analysis.experiments import REGISTRY

        bench_sources = ""
        bench_dir = os.path.join(REPO, "benchmarks")
        for name in os.listdir(bench_dir):
            if name.endswith(".py"):
                bench_sources += read(os.path.join("benchmarks", name))
        for _name, (fn, _desc) in REGISTRY.items():
            assert f"experiments.{fn.__name__}(" in bench_sources, fn.__name__


class TestApiGuide:
    def test_top_level_names_resolve(self):
        import repro

        text = read("docs/API.md")
        # every `from repro import X, Y` line in the guide must resolve
        for line in re.findall(r"from repro import ([\w, ]+)", text):
            for name in [n.strip() for n in line.split(",") if n.strip()]:
                assert hasattr(repro, name), name

    def test_theory_names_resolve(self):
        from repro import theory

        text = read("docs/API.md")
        for name in re.findall(r"theory\.(\w+)\(", text):
            assert hasattr(theory, name), name

    def test_cli_subcommands_match(self):
        from repro.cli import build_parser

        parser = build_parser()
        sub = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
        for cmd in ["info", "simulate", "threshold", "sweep", "optimize",
                    "record", "theory", "reproduce", "run", "scenario"]:
            assert cmd in sub.choices, cmd


class TestEnvKnobs:
    """Every ``REPRO_*`` environment knob: code and docs agree on names.

    The ground truth is the lint scanner (:mod:`repro.lint.project`), not
    a hardcoded set: ``collect_code_knobs`` walks every string constant in
    ``src/`` so a new knob is picked up the moment it is introduced, and
    the ``knob-docs`` lint rule enforces the same contract in CI.
    """

    def code_knobs(self):
        from repro.lint.engine import ProjectContext, _load_sources
        from repro.lint.project import collect_code_knobs

        errors = []
        sources = _load_sources([os.path.join(REPO, "src")], REPO, errors)
        assert not errors
        return set(collect_code_knobs(ProjectContext(root=REPO, sources=sources)))

    def doc_knobs(self, path):
        from repro.lint.project import documented_knobs

        return documented_knobs(read(path))

    def test_code_knobs_are_the_known_set(self):
        assert self.code_knobs() == {
            "REPRO_WORKERS", "REPRO_BATCH", "REPRO_CACHE", "REPRO_SCALE",
            "REPRO_TIMEOUT", "REPRO_RETRIES", "REPRO_CHECKPOINT", "REPRO_FAULTS",
            "REPRO_SYNC_RETRIES", "REPRO_SYNC_TIMEOUT",
        }

    def test_api_guide_documents_runtime_knobs(self):
        assert {"REPRO_WORKERS", "REPRO_BATCH", "REPRO_CACHE"} <= self.doc_knobs("docs/API.md")

    def test_experiments_guide_documents_all_knobs(self):
        assert self.code_knobs() <= self.doc_knobs("EXPERIMENTS.md")

    def test_docs_mention_no_unknown_knobs(self):
        known = self.code_knobs()
        for path in ["docs/API.md", "EXPERIMENTS.md", "README.md"]:
            assert self.doc_knobs(path) <= known, path

    def test_knob_docs_lint_rule_is_clean(self):
        from repro.lint.engine import run_lint

        report = run_lint([os.path.join(REPO, "src")], root=REPO, rules=["knob-docs"])
        assert report.findings == [], report.findings

    def test_batch_contract_docs_name_the_test_walls(self):
        text = read("docs/API.md")
        assert "run_packets_batched" in text
        for wall in ["tests/test_batch_equivalence.py", "tests/test_properties_batch_dsp.py"]:
            assert wall in text, wall
            assert os.path.exists(os.path.join(REPO, wall)), wall


class TestExampleScenarios:
    def scenario_files(self):
        directory = os.path.join(REPO, "examples", "scenarios")
        return sorted(
            os.path.join(directory, name)
            for name in os.listdir(directory)
            if name.endswith(".json")
        )

    def test_directory_is_not_empty(self):
        assert self.scenario_files()

    def test_every_example_scenario_validates(self):
        from repro.arena import ArenaSpec
        from repro.network import NetworkSpec
        from repro.protocol import SessionSpec
        from repro.scenario import Scenario

        for path in self.scenario_files():
            with open(path) as fh:
                data = json.load(fh)
            if "traffic" in data and "links" not in data and "jammers" not in data:
                session = SessionSpec.load(path)  # raises SessionError on any bad field
                assert session.points(), path
                assert SessionSpec.from_dict(session.to_dict()).to_dict() == session.to_dict()
                continue
            if "links" in data:
                network = NetworkSpec.load(path)  # raises NetworkError on any bad field
                assert network.num_links, path
                assert NetworkSpec.from_dict(network.to_dict()).to_dict() == network.to_dict()
                continue
            if "jammers" in data:
                arena = ArenaSpec.load(path)  # raises ArenaError on any bad field
                assert arena.num_cells, path
                assert ArenaSpec.from_dict(arena.to_dict()).to_dict() == arena.to_dict()
                continue
            scenario = Scenario.load(path)  # raises ScenarioError on any bad field
            assert scenario.points(), path
            # loading must be lossless modulo config-default expansion
            assert Scenario.from_dict(scenario.to_dict()).to_dict() == scenario.to_dict()

    def test_readme_scenario_quickstart_paths_exist(self):
        text = read("README.md")
        for name in re.findall(r"examples/scenarios/(\w+\.json)", text):
            assert os.path.exists(os.path.join(REPO, "examples", "scenarios", name)), name
