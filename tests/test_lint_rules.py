"""The project linter: every checker catches its bad fixture, passes its good one.

Each rule gets a minimal (good, bad) source pair driven through the real
engine, plus suppression-comment coverage, engine-level behaviours
(skip-file, syntax errors, unknown rules), project-rule checks against
synthetic repository trees, report formatting, and — the gate that makes
the rest meaningful — a self-check that the linter runs clean over this
repository's own ``src/`` tree.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.lint.engine import (
    Finding,
    ProjectContext,
    SourceFile,
    all_rules,
    run_lint,
)
from repro.lint.project import (
    KnobDocsRule,
    MypyBaselineRule,
    _pattern_covers,
    collect_code_knobs,
    documented_knobs,
    frozen_baseline,
)
from repro.lint.report import format_findings
from repro.lint.rules import (
    DtypeDisciplineRule,
    HiddenGlobalRule,
    MutableDefaultRule,
    RngDisciplineRule,
    dotted_name,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def source(text, relpath="src/repro/dsp/fixture.py"):
    """Parse fixture text into a SourceFile at a rule-relevant location."""
    return SourceFile(relpath, relpath, textwrap.dedent(text))


def findings_of(rule, text, relpath="src/repro/dsp/fixture.py"):
    src = source(text, relpath)
    return [f for f in rule.check_source(src) if not src.suppressed(f.line, f.rule)]


class TestRngDiscipline:
    RULE = RngDisciplineRule()

    def test_bad_bare_default_rng(self):
        found = findings_of(self.RULE, """\
            import numpy as np
            def f():
                return np.random.default_rng(3).normal(size=4)
        """)
        assert [f.rule for f in found] == ["rng-discipline"]
        assert found[0].line == 3

    def test_bad_global_state_draw(self):
        found = findings_of(self.RULE, """\
            import numpy as np
            x = np.random.normal(size=4)
        """)
        assert len(found) == 1
        assert "global state" in found[0].message

    def test_bad_imported_default_rng(self):
        found = findings_of(self.RULE, """\
            from numpy.random import default_rng
            gen = default_rng(7)
        """)
        assert len(found) == 1

    def test_good_make_rng(self):
        assert findings_of(self.RULE, """\
            from repro.utils.rng import make_rng
            def f(seed):
                return make_rng(seed).normal(size=4)
        """) == []

    def test_good_type_references(self):
        assert findings_of(self.RULE, """\
            import numpy as np
            def f(rng):
                assert isinstance(rng, np.random.Generator("x"))
        """) == []

    def test_rng_home_is_exempt(self):
        assert findings_of(self.RULE, """\
            import numpy as np
            def make_rng(seed=None):
                return np.random.default_rng(seed)
        """, relpath="src/repro/utils/rng.py") == []


class TestDtypeDiscipline:
    RULE = DtypeDisciplineRule()

    def test_bad_dtypeless_zeros(self):
        found = findings_of(self.RULE, """\
            import numpy as np
            buf = np.zeros(128)
        """)
        assert [f.rule for f in found] == ["dtype-discipline"]

    def test_good_explicit_dtype(self):
        assert findings_of(self.RULE, """\
            import numpy as np
            a = np.zeros(128, dtype=np.complex128)
            b = np.ones(4, dtype=float)
            c = np.full(3, 1.5, dtype=float)
            d = np.empty(2, np.float64)
        """) == []

    def test_full_needs_dtype_beyond_fill_value(self):
        found = findings_of(self.RULE, """\
            import numpy as np
            a = np.full(3, 1.5)
        """)
        assert len(found) == 1

    def test_out_of_scope_package_ignored(self):
        assert findings_of(self.RULE, """\
            import numpy as np
            buf = np.zeros(128)
        """, relpath="src/repro/analysis/fixture.py") == []


class TestMutableDefault:
    RULE = MutableDefaultRule()

    def test_bad_list_default(self):
        found = findings_of(self.RULE, """\
            def f(history=[]):
                return history
        """)
        assert [f.rule for f in found] == ["mutable-default"]

    def test_bad_ndarray_class_default(self):
        found = findings_of(self.RULE, """\
            import numpy as np
            class State:
                buffer = np.zeros(4, dtype=float)
        """)
        assert len(found) == 1

    def test_good_none_and_field_factory(self):
        assert findings_of(self.RULE, """\
            from dataclasses import dataclass, field
            @dataclass
            class State:
                taps: list = field(default_factory=list)
            def f(history=None, limit=float("inf")):
                return history
        """) == []

    def test_good_upper_case_class_constant(self):
        assert findings_of(self.RULE, """\
            class Rule:
                TABLE = {"zeros": 1}
        """) == []


class TestHiddenGlobal:
    RULE = HiddenGlobalRule()

    def test_bad_lowercase_module_dict(self):
        found = findings_of(self.RULE, """\
            cache = {}
        """)
        assert [f.rule for f in found] == ["hidden-global"]

    def test_good_registry_constant_and_locals(self):
        assert findings_of(self.RULE, """\
            JAMMER_REGISTRY = {}
            _PULSES = {"rect": 1}
            def f():
                local = {}
                return local
        """) == []


class TestSuppression:
    def test_inline_ignore_specific_rule(self):
        found = findings_of(RngDisciplineRule(), """\
            import numpy as np
            gen = np.random.default_rng(3)  # repro-lint: ignore[rng-discipline]
        """)
        assert found == []

    def test_inline_ignore_all(self):
        found = findings_of(RngDisciplineRule(), """\
            import numpy as np
            gen = np.random.default_rng(3)  # repro-lint: ignore
        """)
        assert found == []

    def test_ignore_for_other_rule_does_not_mask(self):
        found = findings_of(RngDisciplineRule(), """\
            import numpy as np
            gen = np.random.default_rng(3)  # repro-lint: ignore[dtype-discipline]
        """)
        assert len(found) == 1

    def test_skip_file_marker(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "# repro-lint: skip-file\nimport numpy as np\ngen = np.random.default_rng(1)\n"
        )
        report = run_lint([str(bad)], root=str(tmp_path), rules=["rng-discipline"])
        assert report.ok
        assert report.files_scanned == 0


class TestEngine:
    def test_unknown_rule_raises(self):
        with pytest.raises(ValueError, match="unknown lint rule"):
            run_lint(["src"], root=REPO, rules=["bogus"])

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            run_lint([os.path.join(REPO, "does-not-exist")], root=REPO)

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        report = run_lint([str(bad)], root=str(tmp_path), rules=["rng-discipline"])
        assert not report.ok
        assert report.errors and "broken.py" in report.errors[0]

    def test_findings_sorted_and_deduplicated(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "dsp" / "z.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\nb = np.zeros(4)\na = np.zeros(3)\n")
        report = run_lint(
            [str(tmp_path / "src")], root=str(tmp_path), rules=["dtype-discipline"]
        )
        assert [f.line for f in report.findings] == [2, 3]
        assert report.counts_by_rule() == {"dtype-discipline": 2}

    def test_module_name_resolution(self):
        assert source("x = 1", "src/repro/dsp/fir.py").module_name() == "repro.dsp.fir"
        assert source("x = 1", "src/repro/dsp/__init__.py").module_name() == "repro.dsp"


class TestKnobDocsRule:
    def make_ctx(self, tmp_path, code, api_text, readme_text=""):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_text(textwrap.dedent(code))
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "API.md").write_text(api_text)
        (tmp_path / "EXPERIMENTS.md").write_text("")
        (tmp_path / "README.md").write_text(readme_text)
        src = SourceFile(
            str(pkg / "mod.py"), "src/repro/mod.py", (pkg / "mod.py").read_text()
        )
        return ProjectContext(root=str(tmp_path), sources=[src])

    def test_undocumented_knob_flagged(self, tmp_path):
        ctx = self.make_ctx(tmp_path, 'import os\nv = os.environ.get("REPRO_MYSTERY")\n', "")
        found = list(KnobDocsRule().check_project(ctx))
        assert [f.rule for f in found] == ["knob-docs"]
        assert "REPRO_MYSTERY" in found[0].message

    def test_phantom_doc_knob_flagged(self, tmp_path):
        ctx = self.make_ctx(tmp_path, "x = 1\n", "Set `REPRO_GHOST=1` to enable.\n")
        found = list(KnobDocsRule().check_project(ctx))
        assert len(found) == 1
        assert found[0].path == "docs/API.md"

    def test_documented_knob_is_clean(self, tmp_path):
        ctx = self.make_ctx(
            tmp_path,
            'import os\nv = os.environ.get("REPRO_THING")\n',
            "`REPRO_THING` controls the thing.\n",
        )
        assert list(KnobDocsRule().check_project(ctx)) == []

    def test_helpers(self, tmp_path):
        ctx = self.make_ctx(tmp_path, 'k = "REPRO_A"\nj = "not_a_knob"\n', "")
        assert set(collect_code_knobs(ctx)) == {"REPRO_A"}
        assert documented_knobs("use REPRO_A and REPRO_B") == {"REPRO_A", "REPRO_B"}


class TestMypyBaselineRule:
    def run_rule(self, tmp_path, modules):
        toml = "[tool.mypy]\nstrict = true\n[[tool.mypy.overrides]]\nmodule = [\n"
        toml += "".join(f'    "{m}",\n' for m in modules)
        toml += "]\nignore_errors = true\n"
        (tmp_path / "pyproject.toml").write_text(toml)
        ctx = ProjectContext(root=str(tmp_path), sources=[])
        return list(MypyBaselineRule().check_project(ctx))

    def test_grown_baseline_flagged(self, tmp_path):
        found = self.run_rule(tmp_path, sorted(frozen_baseline()) + ["repro.newpkg.*"])
        assert any("grew" in f.message and "repro.newpkg.*" in f.message for f in found)

    def test_stale_entry_flagged(self, tmp_path):
        modules = sorted(frozen_baseline() - {"repro.phy.*"})
        found = self.run_rule(tmp_path, modules)
        assert any("stale" in f.message and "repro.phy.*" in f.message for f in found)

    def test_strict_package_never_ignorable(self, tmp_path):
        found = self.run_rule(tmp_path, sorted(frozen_baseline()) + ["repro.core.link"])
        assert any("strict package" in f.message for f in found)

    def test_pattern_covers_glob_semantics(self):
        assert _pattern_covers("repro.core.*", "repro.core")
        assert _pattern_covers("repro.core.link", "repro.core")
        assert _pattern_covers("repro.*", "repro.core")
        assert _pattern_covers("repro.utils.rng", "repro.utils.rng")
        # exact-module patterns do not reach into subpackages
        assert not _pattern_covers("repro", "repro.core")
        assert not _pattern_covers("repro.utils", "repro.utils.rng")
        assert not _pattern_covers("repro.channel.*", "repro.core")

    def test_frozen_baseline_matches_pyproject(self):
        report = run_lint(
            [os.path.join(REPO, "src")], root=REPO, rules=["mypy-baseline"]
        )
        assert report.findings == [], report.findings


class TestReportFormats:
    FINDING = Finding("src/a.py", 3, 1, "rng-discipline", "bad %\r\n stuff")

    def make_report(self):
        from repro.lint.engine import LintReport

        return LintReport(findings=[self.FINDING], files_scanned=1, rules_run=["rng-discipline"])

    def test_pretty(self):
        text = format_findings(self.make_report(), "pretty")
        assert "src/a.py:3:2: rng-discipline:" in text
        assert "1 finding" in text

    def test_json_roundtrip(self):
        payload = json.loads(format_findings(self.make_report(), "json"))
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "rng-discipline"
        assert payload["counts"] == {"rng-discipline": 1}

    def test_github_escapes_workflow_metacharacters(self):
        text = format_findings(self.make_report(), "github")
        line = next(ln for ln in text.splitlines() if ln.startswith("::error"))
        assert "file=src/a.py,line=3" in line
        assert "%25" in line and "%0D" in line and "%0A" in line
        assert "\r" not in line.split("::", 2)[2]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            format_findings(self.make_report(), "xml")


class TestSelfCheck:
    """The linter's reason to exist: this repository passes its own gate."""

    def test_repo_src_tree_is_clean(self):
        report = run_lint([os.path.join(REPO, "src")], root=REPO)
        assert report.errors == []
        assert report.findings == [], format_findings(report, "pretty")

    def test_all_rules_have_unique_ids_and_docs(self):
        rules = all_rules()
        ids = [r.id for r in rules]
        assert len(ids) == len(set(ids))
        assert all(r.description for r in rules)
        assert all(r.__doc__ for r in rules)

    def test_dotted_name_helper(self):
        import ast

        expr = ast.parse("np.random.default_rng", mode="eval").body
        assert dotted_name(expr) == "np.random.default_rng"
        call = ast.parse("(lambda: 1)()", mode="eval").body
        assert dotted_name(call.func) is None


class TestMypyStrict:
    """Skip-gated: runs the real mypy wall when the tool is installed."""

    def test_strict_packages_pass(self):
        pytest.importorskip("mypy")
        proc = subprocess.run(
            [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"],
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
