"""casperlint over the real repository.

These are the gate tests the CI lint job mirrors:

* ``src/repro`` + ``tools`` are clean under the default configuration
  (every finding fixed, not baselined);
* the committed baseline is consistent (no stale entries);
* the privacy boundary actually trips: a hypothetical exact-location
  import inside ``repro.processor`` is caught by CSP001, both directly
  and through a trusted helper module.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import Baseline, LintConfig, Project, run_lint

REPO_ROOT = Path(__file__).resolve().parents[1]


def repo_project() -> Project:
    return Project.load(REPO_ROOT, ("src/repro", "tools"))


def repo_config() -> LintConfig:
    return LintConfig.from_pyproject(REPO_ROOT)


def test_repo_is_clean_under_default_config() -> None:
    result = run_lint(repo_project(), repo_config())
    baseline = Baseline.load(REPO_ROOT / repo_config().baseline_path)
    match = baseline.match(result.findings)
    assert match.new == [], "\n".join(
        f"{f.path}:{f.line} {f.rule} {f.message}" for f in match.new
    )


def test_committed_baseline_has_no_stale_entries() -> None:
    result = run_lint(repo_project(), repo_config())
    baseline = Baseline.load(REPO_ROOT / repo_config().baseline_path)
    match = baseline.match(result.findings)
    assert match.stale == []


def test_repo_scan_covers_the_package_and_tools() -> None:
    project = repo_project()
    assert "repro.processor.knn" in project.modules
    assert "repro.anonymizer.basic" in project.modules
    assert "tools.bench" in project.modules


def test_injected_exact_location_import_is_caught() -> None:
    """ISSUE acceptance: `from repro.workloads import ...` inside
    src/repro/processor/ must trip CSP001."""
    project = repo_project()
    project.add_virtual_module(
        "repro.processor._evil",
        "from repro.workloads import random_queries\n"
        "def peek():\n"
        "    return random_queries\n",
        rel_path="src/repro/processor/_evil.py",
    )
    result = run_lint(project, repo_config())
    hits = [
        f
        for f in result.findings
        if f.rule == "CSP001" and f.path == "src/repro/processor/_evil.py"
    ]
    assert len(hits) == 1
    assert "repro.workloads" in hits[0].message


def test_injected_anonymizer_internal_import_is_caught() -> None:
    project = repo_project()
    project.add_virtual_module(
        "repro.server._peek",
        "from repro.anonymizer.basic import BasicAnonymizer\n",
        rel_path="src/repro/server/_peek.py",
    )
    result = run_lint(project, repo_config())
    assert any(
        f.rule == "CSP001" and f.path == "src/repro/server/_peek.py"
        for f in result.findings
    )


def test_injected_transitive_leak_is_caught() -> None:
    """A trusted helper that touches workloads taints its importers."""
    project = repo_project()
    project.add_virtual_module(
        "repro.utils._leak",
        "import repro.workloads\n",
        rel_path="src/repro/utils/_leak.py",
    )
    project.add_virtual_module(
        "repro.processor._evil2",
        "import repro.utils._leak\n",
        rel_path="src/repro/processor/_evil2.py",
    )
    result = run_lint(project, repo_config())
    hits = [
        f
        for f in result.findings
        if f.rule == "CSP001" and f.path == "src/repro/processor/_evil2.py"
    ]
    assert len(hits) == 1
    assert "repro.utils._leak -> repro.workloads" in hits[0].message


def test_safe_names_still_cross_the_boundary() -> None:
    """The sanctioned channel must stay open: CloakedRegion/PrivacyProfile
    imports in a processor module are not violations."""
    project = repo_project()
    project.add_virtual_module(
        "repro.processor._ok",
        "from repro.anonymizer import CloakedRegion, PrivacyProfile\n",
        rel_path="src/repro/processor/_ok.py",
    )
    result = run_lint(project, repo_config())
    assert not any(
        f.path == "src/repro/processor/_ok.py" for f in result.findings
    )


def test_facade_suppression_is_justified_and_unique() -> None:
    """Exactly five inline suppressions exist in the tree: three
    CSP001 in the Casper facade (the trusted anonymizer wiring, the
    sharded runtime, and the typing-only resilience-runtime import),
    all with the same trusted-facade justification, two CSP006 in the
    worker pool (an exception serialized into an RE_ERROR wire reply
    the parent re-raises, and the reap-everything teardown path), none
    in the front door (it serves the data plane only, so no blocking
    control op is reachable from its event loop), and none in the
    anonymizer package (the adaptive pyramid keeps no second copy of
    the user table to audit bit for bit)."""
    result = run_lint(repo_project(), repo_config())
    assert result.suppressed == 5
    facade = (REPO_ROOT / "src/repro/server/casper.py").read_text()
    assert facade.count("casperlint: ignore[CSP001] trusted facade") == 3
    workers = (REPO_ROOT / "src/repro/sharding/workers.py").read_text()
    assert workers.count("casperlint: ignore[CSP006]") == 2
    frontdoor = (REPO_ROOT / "src/repro/sharding/frontdoor.py").read_text()
    assert "casperlint: ignore" not in frontdoor
    for path in (REPO_ROOT / "src/repro/anonymizer").rglob("*.py"):
        assert "casperlint: ignore" not in path.read_text(), path


def test_repo_is_clean_under_the_dataflow_rules() -> None:
    """ISSUE acceptance: CSP009-CSP013 run repo-clean (findings fixed,
    never baselined) and actually analyzed the parallel runtime."""
    config = repo_config()
    result = run_lint(repo_project(), config)
    assert not any(
        f.rule in config.never_baseline for f in result.findings
    ), "\n".join(
        f"{f.path}:{f.line} {f.rule} {f.message}"
        for f in result.findings
        if f.rule in config.never_baseline
    )
    assert {"CSP009", "CSP010", "CSP011", "CSP012", "CSP013"} <= set(
        result.rules_run
    )


def test_injected_async_blocking_call_is_caught() -> None:
    """A time.sleep inside a hypothetical async handler trips CSP010."""
    project = repo_project()
    project.add_virtual_module(
        "repro.sharding._lazyloop",
        "import time\n"
        "async def handle() -> None:\n"
        "    time.sleep(0.1)\n",
        rel_path="src/repro/sharding/_lazyloop.py",
    )
    result = run_lint(project, repo_config())
    assert any(
        f.rule == "CSP010" and f.path == "src/repro/sharding/_lazyloop.py"
        for f in result.findings
    )


def test_injected_pickle_import_outside_boundary_is_caught() -> None:
    """Raw pickle outside pickle_boundary_modules trips CSP011."""
    project = repo_project()
    project.add_virtual_module(
        "repro.server._rawpickle",
        "import pickle\n",
        rel_path="src/repro/server/_rawpickle.py",
    )
    result = run_lint(project, repo_config())
    assert any(
        f.rule == "CSP011" and f.path == "src/repro/server/_rawpickle.py"
        for f in result.findings
    )


def test_injected_dead_opcode_is_caught() -> None:
    """An OP_ constant with no decoder branch trips CSP013."""
    project = repo_project()
    project.add_virtual_module(
        "repro.messages.ghost",
        "OP_GHOST = 99\n",
        rel_path="src/repro/messages/ghost.py",
    )
    result = run_lint(project, repo_config())
    assert any(
        f.rule == "CSP013"
        and f.path == "src/repro/messages/ghost.py"
        and "OP_GHOST" in f.message
        for f in result.findings
    )


def test_spatial_indexes_satisfy_the_contract_rule() -> None:
    """CSP003 sees every concrete index and none violates the contract."""
    project = repo_project()
    result = run_lint(project, repo_config())
    assert not any(f.rule == "CSP003" for f in result.findings)
    # sanity: the rule is not trivially passing because it found no classes
    import ast

    subclasses = []
    for name in (
        "repro.spatial.rtree",
        "repro.spatial.grid",
        "repro.spatial.quadtree",
        "repro.spatial.kdtree",
        "repro.spatial.bruteforce",
    ):
        info = project.modules[name]
        for node in ast.walk(info.tree):
            if isinstance(node, ast.ClassDef) and any(
                getattr(b, "id", None) == "SpatialIndex" for b in node.bases
            ):
                subclasses.append(node.name)
    assert len(subclasses) >= 5
