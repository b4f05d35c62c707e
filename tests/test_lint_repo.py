"""casperlint over the real repository.

These are the gate tests the CI lint job mirrors:

* ``src/repro`` + ``tools`` are clean under the default configuration
  (every finding fixed; the four inline pragmas are the only
  suppressions) — linted **once**, every read-only test shares the
  result;
* the boundaries actually trip: a hypothetical exact-location import
  inside ``repro.processor`` is caught by CSP001 (directly and through
  a trusted helper), a blocking call in a coroutine by CSP010, a raw
  ``pickle`` outside the boundary module by CSP011 — each on its own
  project, running only the rule under test.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import Finding, LintConfig, LintResult, Project, run_lint
from repro.analysis.dataflow import analyze_project

REPO_ROOT = Path(__file__).resolve().parents[1]

DATAFLOW_RULES = {"CSP009", "CSP010", "CSP011", "CSP012"}


def repo_project() -> Project:
    return Project.load(REPO_ROOT, ("src/repro", "tools"))


def repo_config() -> LintConfig:
    return LintConfig.from_pyproject(REPO_ROOT)


@pytest.fixture(scope="module")
def clean_tree() -> tuple[Project, LintResult]:
    """The one whole-repo lint: the tree as committed, every rule."""
    project = repo_project()
    return project, run_lint(project, repo_config())


def lint_with(code: str, modules: dict[str, str]) -> list[Finding]:
    """Findings of rule ``code`` over the repo plus injected modules."""
    project = repo_project()
    for name, source in modules.items():
        project.add_virtual_module(name, source)
    config = repo_config().merged({"select": [code]})
    return run_lint(project, config).findings


def test_repo_is_clean_under_default_config(clean_tree) -> None:
    _project, result = clean_tree
    assert result.findings == [], "\n".join(
        f"{f.path}:{f.line} {f.rule} {f.message}" for f in result.findings
    )
    assert len(result.rules_run) == 12


def test_repo_scan_covers_the_package_and_tools(clean_tree) -> None:
    project, result = clean_tree
    assert "repro.processor.knn" in project.modules
    assert "repro.anonymizer.basic" in project.modules
    assert "tools.bench" in project.modules
    assert result.checked_modules == len(project.modules)


def test_repo_is_clean_under_the_dataflow_rules(clean_tree) -> None:
    """CSP009-CSP012 ran, over the parallel runtime too, and are clean
    (findings fixed, never waived)."""
    project, result = clean_tree
    assert not [f for f in result.findings if f.rule in DATAFLOW_RULES]
    assert DATAFLOW_RULES <= set(result.rules_run)
    assert "repro.sharding.workers" in project.modules


def test_worker_pool_cloak_many_summary_is_blocking(clean_tree) -> None:
    """The call summaries' true positive on the tree: the pool's
    ``cloak_many`` blocks through ``_receive`` -> ``.poll()``, so an
    ``async def`` calling it on a typed receiver trips CSP010."""
    project, _result = clean_tree
    flow = analyze_project(project, repo_config())
    record = flow.functions[
        "repro.sharding.workers:ParallelShardedAnonymizer.cloak_many"
    ]
    assert record.blocking
    assert record.blocking_reason.endswith("_receive() which calls .poll()")


def test_facade_suppression_is_justified_and_unique(clean_tree) -> None:
    """Exactly four inline suppressions exist in the tree: two CSP001
    in the Casper facade (the trusted anonymizer wiring and the sharded
    runtime), both with the same trusted-facade justification (the
    resilience runtime is handed in, so the facade imports none of
    it), two CSP006 in the worker pool (an exception serialized into
    an RE_ERROR wire reply the parent re-raises, and the
    reap-everything teardown path), none in the front door (it serves
    the data plane only, so no blocking control op is reachable from
    its event loop), and none in the anonymizer package (the adaptive
    pyramid keeps no second copy of the user table to audit bit for
    bit)."""
    _project, result = clean_tree
    assert result.suppressed == 4
    facade = (REPO_ROOT / "src/repro/server/casper.py").read_text()
    assert facade.count("casperlint: ignore[CSP001] trusted facade") == 2
    workers = (REPO_ROOT / "src/repro/sharding/workers.py").read_text()
    assert workers.count("casperlint: ignore[CSP006]") == 2
    frontdoor = (REPO_ROOT / "src/repro/sharding/frontdoor.py").read_text()
    assert "casperlint: ignore" not in frontdoor
    for path in (REPO_ROOT / "src/repro/anonymizer").rglob("*.py"):
        assert "casperlint: ignore" not in path.read_text(), path


def test_injected_exact_location_import_is_caught() -> None:
    """`from repro.workloads import ...` inside src/repro/processor/
    must trip CSP001."""
    (hit,) = lint_with(
        "CSP001",
        {
            "repro.processor._evil": "from repro.workloads import random_queries\n"
            "def peek():\n"
            "    return random_queries\n"
        },
    )
    assert hit.path == "src/repro/processor/_evil.py"
    assert "repro.workloads" in hit.message


def test_injected_anonymizer_internal_import_is_caught() -> None:
    (hit,) = lint_with(
        "CSP001",
        {
            "repro.server._peek": "from repro.anonymizer.basic import BasicAnonymizer\n"
        },
    )
    assert hit.path == "src/repro/server/_peek.py"


def test_injected_transitive_leak_is_caught() -> None:
    """A trusted helper that touches workloads taints its importers."""
    (hit,) = lint_with(
        "CSP001",
        {
            "repro.utils._leak": "import repro.workloads\n",
            "repro.processor._evil2": "import repro.utils._leak\n",
        },
    )
    assert hit.path == "src/repro/processor/_evil2.py"
    assert "repro.utils._leak -> repro.workloads" in hit.message


def test_safe_names_still_cross_the_boundary() -> None:
    """The sanctioned channel must stay open: CloakedRegion/PrivacyProfile
    imports in a processor module are not violations."""
    assert not lint_with(
        "CSP001",
        {
            "repro.processor._ok": "from repro.anonymizer import CloakedRegion, PrivacyProfile\n"
        },
    )


def test_injected_async_blocking_call_is_caught() -> None:
    """A time.sleep inside a hypothetical async handler trips CSP010."""
    (hit,) = lint_with(
        "CSP010",
        {
            "repro.sharding._lazyloop": "import time\n"
            "async def handle() -> None:\n"
            "    time.sleep(0.1)\n"
        },
    )
    assert hit.path == "src/repro/sharding/_lazyloop.py"


def test_injected_pickle_import_outside_boundary_is_caught() -> None:
    """Raw pickle outside pickle_boundary_modules trips CSP011."""
    (hit,) = lint_with(
        "CSP011", {"repro.server._rawpickle": "import pickle\n"}
    )
    assert hit.path == "src/repro/server/_rawpickle.py"
