"""Engine-level casperlint tests: pragmas, the project memo, reporters, config, CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import Finding, LintConfig, Project, run_lint
from repro.analysis.cli import main as lint_main
from repro.analysis.reporters import render_json, render_sarif, render_text

CONFIG = LintConfig(deterministic_packages=("sim",))


def _lint_source(source: str, name: str = "sim.mod") -> list[Finding]:
    project = Project()
    project.add_virtual_module(name, source)
    return run_lint(project, CONFIG).findings


# ----------------------------------------------------------------------
# Inline pragmas
# ----------------------------------------------------------------------
def test_pragma_suppresses_named_rule() -> None:
    src = "def f(x=[]):  # casperlint: ignore[CSP005] frozen at import time\n    return x\n"
    assert _lint_source(src) == []


def test_pragma_without_codes_suppresses_everything() -> None:
    src = "def f(x=[]):  # casperlint: ignore\n    return x\n"
    assert _lint_source(src) == []


def test_pragma_for_other_rule_does_not_suppress() -> None:
    src = "def f(x=[]):  # casperlint: ignore[CSP004]\n    return x\n"
    findings = _lint_source(src)
    assert [f.rule for f in findings] == ["CSP005"]


def test_pragma_on_any_line_of_a_multiline_statement() -> None:
    src = (
        "import random  # casperlint: ignore[CSP002] interactive tool only\n"
    )
    assert _lint_source(src) == []


def test_pragma_on_a_different_line_of_a_multiline_statement() -> None:
    """The pragma may sit on any line of the statement, not just the
    line the finding anchors to."""
    src = (
        "import time\n"
        "stamp = (\n"
        "    time.time()\n"
        ")  # casperlint: ignore[CSP002] wall-clock for display only\n"
    )
    assert _lint_source(src) == []
    # and without the pragma the same statement is a finding
    assert [f.rule for f in _lint_source(src.replace("  # casperlint: ignore[CSP002] wall-clock for display only", ""))] == ["CSP002"]


def test_suppressed_count_reported() -> None:
    project = Project()
    project.add_virtual_module(
        "sim.mod", "def f(x=[]):  # casperlint: ignore\n    return x\n"
    )
    result = run_lint(project, CONFIG)
    assert result.suppressed == 1 and result.findings == []


# ----------------------------------------------------------------------
# Whole-project facts
# ----------------------------------------------------------------------
REPO_ROOT = Path(__file__).resolve().parents[1]


def test_module_added_after_a_lint_is_seen_by_the_dataflow_rules() -> None:
    """The dataflow pass is memoised per project *state*: a module
    added after the first lint must reach CSP009 / CSP010."""
    config = LintConfig.from_pyproject(REPO_ROOT).merged({"select": ["CSP010"]})
    lazyloop = "import time\nasync def handle() -> None:\n    time.sleep(0.1)\n"

    project = Project.load(REPO_ROOT, ("src/repro/sharding",))
    assert run_lint(project, config).findings == []
    project.add_virtual_module("repro.sharding._lazyloop", lazyloop)
    (late,) = run_lint(project, config).findings

    fresh = Project.load(REPO_ROOT, ("src/repro/sharding",))
    fresh.add_virtual_module("repro.sharding._lazyloop", lazyloop)
    assert run_lint(fresh, config).findings == [late]
    assert (late.rule, late.path) == (
        "CSP010",
        "src/repro/sharding/_lazyloop.py",
    )


def test_project_fact_is_built_once_per_state_and_config() -> None:
    project = Project()
    project.add_virtual_module("sim.a", "x = 1\n")
    builds: list[int] = []

    def count(project: Project, config: LintConfig) -> int:
        builds.append(len(project.modules))
        return len(project.modules)

    assert project.fact("n", CONFIG, count) == 1
    assert project.fact("n", CONFIG, count) == 1
    assert builds == [1]
    # another config is another fact; a new module forgets them all
    assert project.fact("n", LintConfig(), count) == 1
    project.add_virtual_module("sim.b", "y = 2\n")
    assert project.fact("n", LintConfig(), count) == 2
    assert builds == [1, 1, 2]


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
def _one_finding_result():
    project = Project()
    project.add_virtual_module("sim.mod", "def f(x=[]):\n    return x\n")
    return run_lint(project, CONFIG)


def test_fingerprint_is_line_insensitive() -> None:
    """The SARIF identity of a finding survives unrelated edits above it."""
    here = Finding(rule="CSP005", path="src/sim/mod.py", line=3, message="m")
    moved = Finding(rule="CSP005", path="src/sim/mod.py", line=99, message="m")
    other = Finding(rule="CSP005", path="src/sim/mod.py", line=3, message="n")
    assert here.fingerprint == moved.fingerprint != other.fingerprint


def test_text_reporter_names_file_rule_and_severity() -> None:
    text = render_text(_one_finding_result())
    assert "src/sim/mod.py:1: CSP005 error:" in text
    assert "1 error(s)" in text


def test_json_reporter_shape() -> None:
    data = json.loads(render_json(_one_finding_result()))
    assert data["summary"]["errors"] == 1
    (finding,) = data["findings"]
    assert finding["rule"] == "CSP005" and finding["fingerprint"]


def test_sarif_reporter_shape() -> None:
    sarif = json.loads(render_sarif(_one_finding_result()))
    assert sarif["version"] == "2.1.0"
    (run,) = sarif["runs"]
    assert run["tool"]["driver"]["name"] == "casperlint"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert "CSP005" in rule_ids
    (sarif_result,) = run["results"]
    assert sarif_result["ruleId"] == "CSP005"
    assert sarif_result["partialFingerprints"]["casperlint/v1"]
    location = sarif_result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "src/sim/mod.py"
    assert "suppressions" not in sarif_result


# ----------------------------------------------------------------------
# Config
# ----------------------------------------------------------------------
def test_config_merge_severity_and_select() -> None:
    config = LintConfig().merged(
        {"severity": {"CSP004": "warning"}, "select": ["CSP004", "CSP005"]}
    )
    assert config.severity_of("CSP004") == "warning"
    assert config.select == frozenset({"CSP004", "CSP005"})


def test_config_from_pyproject(tmp_path: Path) -> None:
    (tmp_path / "pyproject.toml").write_text(
        "[tool.casperlint]\n"
        'untrusted_packages = ["x.server"]\n'
        "[tool.casperlint.safe_imports]\n"
        '"x.anon" = ["Cloak"]\n'
    )
    config = LintConfig.from_pyproject(tmp_path)
    assert config.untrusted_packages == ("x.server",)
    assert config.safe_imports == {"x.anon": frozenset({"Cloak"})}


def test_repo_zone_model_is_the_default() -> None:
    """The zone model is stated once: the repo's pyproject restates none."""
    assert LintConfig.from_pyproject(REPO_ROOT) == LintConfig()


def test_severity_override_changes_exit_behaviour() -> None:
    project = Project()
    project.add_virtual_module("sim.mod", "def f(x=[]):\n    return x\n")
    config = CONFIG.merged({"severity": {"CSP005": "warning"}})
    result = run_lint(project, config)
    assert [f.severity for f in result.findings] == ["warning"]


# ----------------------------------------------------------------------
# CLI end to end (on a tiny throwaway project tree)
# ----------------------------------------------------------------------
def _make_project_tree(tmp_path: Path, source: str) -> Path:
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(source)
    return tmp_path


def test_cli_clean_tree_exits_zero(tmp_path: Path, capsys) -> None:
    root = _make_project_tree(tmp_path, "def f(x):\n    return x\n")
    assert lint_main(["--root", str(root), "src"]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_cli_violation_exits_nonzero_and_reports(tmp_path: Path, capsys) -> None:
    root = _make_project_tree(tmp_path, "def f(x=[]):\n    return x\n")
    assert lint_main(["--root", str(root), "src"]) == 1
    assert "CSP005" in capsys.readouterr().out


def test_cli_json_format(tmp_path: Path, capsys) -> None:
    root = _make_project_tree(tmp_path, "def f(x=[]):\n    return x\n")
    assert lint_main(["--root", str(root), "--format", "json", "src"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["summary"]["errors"] == 1


def test_cli_severity_override_demotes_to_warning(tmp_path: Path) -> None:
    root = _make_project_tree(tmp_path, "def f(x=[]):\n    return x\n")
    assert (
        lint_main(
            ["--root", str(root), "--severity", "CSP005=warning", "src"]
        )
        == 0
    )
    assert (
        lint_main(
            ["--root", str(root), "--severity", "CSP005=warning", "--strict",
             "src"]
        )
        == 1
    )


def test_cli_select_limits_rules(tmp_path: Path) -> None:
    root = _make_project_tree(tmp_path, "def f(x=[]):\n    return x\n")
    assert lint_main(["--root", str(root), "--select", "CSP004", "src"]) == 0


def test_cli_sarif_report_file(tmp_path: Path, capsys) -> None:
    root = _make_project_tree(tmp_path, "def f(x=[]):\n    return x\n")
    assert (
        lint_main(["--root", str(root), "--sarif", "out.sarif", "src"]) == 1
    )
    captured = capsys.readouterr()
    assert "CSP005" in captured.out  # text report still printed
    sarif = json.loads((root / "out.sarif").read_text())
    assert sarif["runs"][0]["results"][0]["ruleId"] == "CSP005"


def test_cli_format_sarif_prints_sarif(tmp_path: Path, capsys) -> None:
    root = _make_project_tree(tmp_path, "def f(x=[]):\n    return x\n")
    assert lint_main(["--root", str(root), "--format", "sarif", "src"]) == 1
    sarif = json.loads(capsys.readouterr().out)
    assert sarif["version"] == "2.1.0"


@pytest.mark.parametrize("flag", ["--diff", "--baseline=b.json", "--write-baseline"])
def test_cli_has_one_mode(flag: str, tmp_path: Path, capsys) -> None:
    """Whole tree, any error finding fails, inline pragmas are the only
    suppression: the partial-report and grandfathering flags are gone."""
    root = _make_project_tree(tmp_path, "def f(x=[]):\n    return x\n")
    with pytest.raises(SystemExit) as refused:
        lint_main(["--root", str(root), flag, "src"])
    assert refused.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
