"""CLI exit-code contract: 0 clean, 1 findings/failures, 2 usage errors.

The ``lint`` and ``scenario validate`` subcommands gate CI, so their exit
codes are load-bearing: a wrong zero lets a regression merge, a spurious
two masks findings as usage errors.  These tests pin the full convention
end to end through :func:`repro.cli.main`.
"""

import json
import os

import pytest

from repro.cli import SPEC_KINDS, _load_spec, main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIO_DIR = os.path.join(REPO, "examples", "scenarios")


class TestLintExitCodes:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint", "--root", REPO, os.path.join(REPO, "src")]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_findings_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "dsp" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\nbuf = np.zeros(8)\n")
        code = main(
            ["lint", "--root", str(tmp_path), "--rules", "dtype-discipline", str(bad)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "dtype-discipline" in out

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", str(os.path.join(REPO, "no-such-dir"))]) == 2
        assert "do not exist" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["lint", "--rules", "bogus", os.path.join(REPO, "src")]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_syntax_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        assert main(["lint", "--root", str(tmp_path), str(bad)]) == 1
        assert "cannot scan" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "phy" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\nx = np.random.normal(size=3)\n")
        code = main(
            ["lint", "--root", str(tmp_path), "--rules", "rng-discipline",
             "--format", "json", str(bad)]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "rng-discipline"

    def test_github_format(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "phy" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\nx = np.random.normal(size=3)\n")
        code = main(
            ["lint", "--root", str(tmp_path), "--rules", "rng-discipline",
             "--format", "github", str(bad)]
        )
        assert code == 1
        assert "::error file=" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("rng-discipline", "dtype-discipline",
                        "registry-roundtrip", "knob-docs", "mypy-baseline"):
            assert rule_id in out


class TestScenarioValidateExitCodes:
    def test_valid_directory_exits_zero(self, capsys):
        assert main(["scenario", "validate", SCENARIO_DIR]) == 0
        assert "scenario files valid" in capsys.readouterr().out

    def test_invalid_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "grid": {"snr_db": [], "sjr_db": [1.0]}}))
        assert main(["scenario", "validate", str(bad)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unreadable_file_exits_one_not_traceback(self, tmp_path, capsys):
        assert main(["scenario", "validate", str(tmp_path / "missing.json")]) == 1
        assert "cannot read" in capsys.readouterr().out

    def test_invalid_json_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["scenario", "validate", str(bad)]) == 1
        assert "invalid JSON" in capsys.readouterr().out

    def test_empty_directory_exits_two(self, tmp_path, capsys):
        assert main(["scenario", "validate", str(tmp_path)]) == 2
        assert "no scenario files" in capsys.readouterr().err

    def test_mixed_valid_and_invalid_exits_one(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({
            "name": "ok",
            "jammer": {"type": "none"},
            "grid": {"snr_db": [15.0], "sjr_db": [0.0]},
            "packets": 1,
        }))
        bad = tmp_path / "zbad.json"
        bad.write_text("{}")
        assert main(["scenario", "validate", str(tmp_path)]) == 1


class TestSpecFileReader:
    """Every spec kind reads its files through one reader, with one set of messages."""

    @pytest.mark.parametrize("name", sorted(SPEC_KINDS))
    def test_missing_file(self, tmp_path, name):
        kind = SPEC_KINDS[name]
        path = str(tmp_path / "missing.json")
        message = f"missing.json: cannot read {kind.spec.KIND} file"
        with pytest.raises(kind.spec.Error, match=message):
            kind.spec.load(path)
        with pytest.raises(kind.spec.Error, match=message):
            _load_spec(path, kind)

    @pytest.mark.parametrize("name", sorted(SPEC_KINDS))
    def test_invalid_json(self, tmp_path, name):
        kind = SPEC_KINDS[name]
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(kind.spec.Error, match="bad.json: invalid JSON"):
            kind.spec.load(str(path))
        with pytest.raises(kind.spec.Error, match="bad.json: invalid JSON"):
            _load_spec(str(path), kind)


class TestScenarioRunExitCodes:
    def test_bad_scenario_file_exits_two(self, tmp_path, capsys):
        assert main(["run", "--scenario", str(tmp_path / "missing.json")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestNetworkRun:
    def network_spec(self, tmp_path, **overrides):
        spec = {
            "name": "cli2",
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
        spec.update(overrides)
        path = tmp_path / "net.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_run_network_prints_per_link_table_and_aggregates(self, tmp_path, capsys):
        path = self.network_spec(tmp_path)
        out_csv = str(tmp_path / "net.csv")
        assert main(["run", "--network", path, "--output", out_csv]) == 0
        out = capsys.readouterr().out
        assert "network 'cli2': 2 links x 2 packets, 1 jammer(s)" in out
        assert "network throughput" in out and "Jain fairness" in out
        assert os.path.exists(out_csv)
        with open(out_csv) as fh:
            header = fh.readline().strip()
        assert header.split(",")[0] == "link"

    def test_run_requires_exactly_one_spec_kind(self, tmp_path, capsys):
        path = self.network_spec(tmp_path)
        assert main(["run"]) == 2
        assert (
            "exactly one of --scenario, --network, --tournament or --session"
            in capsys.readouterr().err
        )
        assert main(["run", "--scenario", path, "--network", path]) == 2
        assert (
            "exactly one of --scenario, --network, --tournament or --session"
            in capsys.readouterr().err
        )

    def test_bad_network_file_exits_two(self, tmp_path, capsys):
        bad = self.network_spec(tmp_path, links=[])
        assert main(["run", "--network", bad]) == 2
        assert "links" in capsys.readouterr().err

    def test_scenario_validate_routes_network_files(self, tmp_path, capsys):
        self.network_spec(tmp_path)
        assert main(["scenario", "validate", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cli2 (2 links x 2 packets, 1 jammer(s))" in out

    def test_scenario_validate_fails_bad_network_file(self, tmp_path, capsys):
        self.network_spec(tmp_path, packets=0)
        assert main(["scenario", "validate", str(tmp_path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_scenario_list_shows_network_shape(self, tmp_path, capsys):
        self.network_spec(tmp_path)
        assert main(["scenario", "list", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "network (1 jammed)" in out
        assert "2 links x2" in out

    def test_example_network_specs_validate(self, capsys):
        for name in ["network_mesh4.json", "network_jammed8.json"]:
            assert main(["scenario", "validate", os.path.join(SCENARIO_DIR, name)]) == 0
        capsys.readouterr()


class TestCacheCommands:
    @staticmethod
    def _seed(directory):
        from repro.runtime import ResultCache, stable_hash

        store = ResultCache(str(directory))
        store.put({"point": 1}, {"per": 0.25})
        store.put({"point": 2}, {"per": 0.5})
        return store._path(stable_hash({"point": 1}))

    def test_verify_clean_cache_exits_zero(self, tmp_path, capsys):
        self._seed(tmp_path)
        assert main(["cache", "verify", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cache verify: ok" in out
        assert "entries     : 2" in out

    def test_verify_corrupt_cache_exits_one_and_lists_paths(self, tmp_path, capsys):
        entry = self._seed(tmp_path)
        with open(entry, "a") as fh:
            fh.write("bit rot")
        assert main(["cache", "verify", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "cache verify: FAILED" in captured.err
        assert entry in captured.out  # corrupt paths are printed for inspection

    def test_gc_cleans_then_verify_passes(self, tmp_path, capsys):
        entry = self._seed(tmp_path)
        with open(entry, "a") as fh:
            fh.write("bit rot")
        assert main(["cache", "gc", str(tmp_path)]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "verify", str(tmp_path)]) == 0

    def test_no_directory_and_no_env_exits_two(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert main(["cache", "verify"]) == 2
        assert "REPRO_CACHE" in capsys.readouterr().err

    def test_directory_defaults_to_env(self, monkeypatch, tmp_path, capsys):
        self._seed(tmp_path)
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        assert main(["cache", "verify"]) == 0
        assert "cache verify: ok" in capsys.readouterr().out
