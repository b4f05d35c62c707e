"""Per-rule casperlint tests over the fixture modules.

Every rule has (at least) one fixture module that violates it and one
that passes.  Fixtures live in ``tests/lint_fixtures/<rule>/``; each
file names its dotted module on the first line (``# module: ...``) so
the zone configuration below can place it on the right side of the
privacy/determinism boundaries.  Support modules (``support_*.py``)
are loaded into every project built from their directory.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis import RULE_REGISTRY, LintConfig, Project, run_lint
from repro.analysis.rules import load_builtin_rules

FIXTURES = Path(__file__).parent / "lint_fixtures"

FIXTURE_CONFIG = LintConfig(
    untrusted_packages=("app.processor",),
    tainted_packages=("app.anonymizer", "app.workloads"),
    safe_imports={
        "app.anonymizer": frozenset({"CloakedRegion", "PrivacyProfile"})
    },
    deterministic_packages=("sim.engine",),
    codec_modules=("proto.codec",),
    pickle_boundary_modules=("proto.workers",),
    policy_modules=("pol.policies",),
)


def module_name_of(path: Path) -> str:
    first = path.read_text().splitlines()[0]
    assert first.startswith("# module: "), f"{path} lacks a module header"
    return first.removeprefix("# module: ").strip()


def project_for(fixture: Path) -> Project:
    """A project holding one fixture file plus its directory's supports."""
    project = Project(root=fixture.parent)
    for support in sorted(fixture.parent.glob("support_*.py")):
        project.add_virtual_module(
            module_name_of(support), support.read_text()
        )
    project.add_virtual_module(module_name_of(fixture), fixture.read_text())
    return project


def findings_for(fixture: Path, code: str) -> list:
    project = project_for(fixture)
    result = run_lint(project, FIXTURE_CONFIG)
    target = "src/" + module_name_of(fixture).replace(".", "/") + ".py"
    return [f for f in result.findings if f.rule == code and f.path == target]


CASES = [
    ("csp001_privacy/bad_direct.py", "CSP001", 1),
    ("csp001_privacy/bad_name.py", "CSP001", 1),
    ("csp001_privacy/bad_transitive.py", "CSP001", 1),
    ("csp001_privacy/clean.py", "CSP001", 0),
    ("csp002_determinism/bad.py", "CSP002", 5),
    ("csp002_determinism/clean.py", "CSP002", 0),
    ("csp004_float_eq/bad.py", "CSP004", 2),
    ("csp004_float_eq/clean.py", "CSP004", 0),
    ("csp005_mutable_default/bad.py", "CSP005", 3),
    ("csp005_mutable_default/clean.py", "CSP005", 0),
    ("csp006_broad_except/bad.py", "CSP006", 2),
    ("csp006_broad_except/clean.py", "CSP006", 0),
    ("csp007_unseeded/bad.py", "CSP007", 1),
    ("csp007_unseeded/clean.py", "CSP007", 0),
    ("csp008_telemetry/bad.py", "CSP008", 5),
    ("csp008_telemetry/bad_emit_api.py", "CSP008", 3),
    ("csp008_telemetry/clean.py", "CSP008", 0),
    ("csp009_taint/bad.py", "CSP009", 5),
    ("csp009_taint/bad_call_forms.py", "CSP009", 2),
    ("csp009_taint/bad_deep_chain.py", "CSP009", 1),
    ("csp009_taint/bad_emit_api.py", "CSP009", 1),
    ("csp009_taint/bad_persistence.py", "CSP009", 2),
    ("csp009_taint/bad_recursive.py", "CSP009", 3),
    ("csp009_taint/bad_reply_column.py", "CSP009", 1),
    ("csp009_taint/clean.py", "CSP009", 0),
    ("csp010_async/bad.py", "CSP010", 2),
    ("csp010_async/bad_deep_chain.py", "CSP010", 1),
    ("csp010_async/bad_typed_receivers.py", "CSP010", 3),
    ("csp010_async/clean.py", "CSP010", 0),
    ("csp011_boundary/bad.py", "CSP011", 2),
    ("csp011_boundary/bad_inside.py", "CSP011", 2),
    ("csp011_boundary/clean.py", "CSP011", 0),
    ("csp012_lifecycle/bad.py", "CSP012", 3),
    ("csp012_lifecycle/bad_paths.py", "CSP012", 8),
    ("csp012_lifecycle/bad_spawn.py", "CSP012", 1),
    ("csp012_lifecycle/clean.py", "CSP012", 0),
    ("csp014_policy/bad.py", "CSP014", 4),
    ("csp014_policy/clean.py", "CSP014", 0),
]


def test_dataflow_ends_on_call_cycles() -> None:
    """The summaries reach their fixpoint round recursive helpers; run
    in a child process so that a fixpoint that never ends fails here,
    before the fixture counts below would hang on it."""
    script = (
        "import sys\n"
        "from pathlib import Path\n"
        "from repro.analysis import LintConfig, Project\n"
        "from repro.analysis.dataflow import analyze_project\n"
        "project = Project()\n"
        "project.add_virtual_module('app.rec', Path(sys.argv[1]).read_text())\n"
        "analyze_project(project, LintConfig())\n"
    )
    fixture = FIXTURES / "csp009_taint/bad_recursive.py"
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(
        [sys.executable, "-c", script, str(fixture)],
        env=env, timeout=60, check=True,
    )


@pytest.mark.parametrize("rel,code,expected", CASES)
def test_fixture_finding_counts(rel: str, code: str, expected: int) -> None:
    found = findings_for(FIXTURES / rel, code)
    assert len(found) == expected, [f.message for f in found]


def test_every_rule_has_violating_and_clean_fixture() -> None:
    codes_with_bad = {c for _, c, n in CASES if n > 0}
    codes_with_clean = {c for _, c, n in CASES if n == 0}
    load_builtin_rules()
    assert codes_with_bad == codes_with_clean == set(RULE_REGISTRY)
    # CSP003 / CSP013 are retired (abc + the index conformance suites
    # and TestProtocolTable state them); their codes stay unassigned
    assert len(RULE_REGISTRY) == 12


@pytest.mark.parametrize(
    "rel,code",
    [
        ("csp009_taint/bad_deep_chain.py", "CSP009"),
        ("csp010_async/bad_deep_chain.py", "CSP010"),
    ],
)
def test_deep_chain_findings_do_not_depend_on_definition_order(
    rel: str, code: str
) -> None:
    """The chain written callee-first is found exactly as caller-first."""
    fixture = FIXTURES / rel
    tree = ast.parse(fixture.read_text())
    tree.body.reverse()
    project = Project()
    project.add_virtual_module(module_name_of(fixture), ast.unparse(tree))
    reversed_found = [
        f.message for f in run_lint(project, FIXTURE_CONFIG).findings
        if f.rule == code
    ]
    assert reversed_found == [f.message for f in findings_for(fixture, code)]
    assert len(reversed_found) == 1


def test_transitive_chain_is_named_in_message() -> None:
    (finding,) = findings_for(
        FIXTURES / "csp001_privacy/bad_transitive.py", "CSP001"
    )
    assert "app.processor.bad_transitive -> app.helpers -> app.workloads" in (
        finding.message
    )


def test_direct_violation_points_at_the_import_line() -> None:
    fixture = FIXTURES / "csp001_privacy/bad_direct.py"
    (finding,) = findings_for(fixture, "CSP001")
    line = fixture.read_text().splitlines()[finding.line - 1]
    assert "from app.workloads import" in line


def test_float_sentinel_equality_is_exempt() -> None:
    project = Project()
    project.add_virtual_module(
        "geom.sentinel",
        "def unbounded(a):\n    return a == float('inf')\n",
    )
    result = run_lint(project, FIXTURE_CONFIG)
    assert [f for f in result.findings if f.rule == "CSP004"] == []


def test_broad_except_with_reraise_is_exempt() -> None:
    project = Project()
    project.add_virtual_module(
        "errs.reraise",
        "def f(x):\n"
        "    try:\n"
        "        return x()\n"
        "    except Exception:\n"
        "        raise\n",
    )
    result = run_lint(project, FIXTURE_CONFIG)
    assert [f for f in result.findings if f.rule == "CSP006"] == []


def test_decoded_tuple_elements_carry_weak_taint_only() -> None:
    """Extracting from a tainted container must not flag id-shaped args.

    ``decode_op`` returns ``("move", point, uid)``; ``op[2]`` is a user
    id, not a location, so passing it to a callee whose parameter flows
    into an exception message is not a call-site leak.
    """
    project = Project()
    project.add_virtual_module(
        "app.anonymizer.router",
        "def decode(payload):\n"
        "    return ('move', Point(1.0, 2.0), payload[0])\n"
        "\n"
        "def complain(uid):\n"
        "    raise KeyError(f'unknown user {uid!r}')\n"
        "\n"
        "def route(payload):\n"
        "    op = decode(payload)\n"
        "    complain(op[2])\n",
    )
    result = run_lint(project, FIXTURE_CONFIG)
    assert [f for f in result.findings if f.rule == "CSP009"] == []


def test_weak_taint_still_fires_local_sinks() -> None:
    """The extracting function leaks if it sinks the element itself."""
    project = Project()
    project.add_virtual_module(
        "app.anonymizer.router",
        "def decode(payload):\n"
        "    return ('move', Point(1.0, 2.0), payload[0])\n"
        "\n"
        "def route(payload):\n"
        "    op = decode(payload)\n"
        "    raise ValueError(f'cannot route {op[1]}')\n",
    )
    result = run_lint(project, FIXTURE_CONFIG)
    found = [f for f in result.findings if f.rule == "CSP009"]
    assert len(found) == 1, [f.message for f in found]
    assert "exception message" in found[0].message
