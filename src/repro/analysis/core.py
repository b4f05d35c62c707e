"""casperlint core: findings, the project model, and the rule engine.

casperlint is an AST-based static analysis pass that enforces the two
repo-wide invariants nothing else checks mechanically:

* the **privacy boundary** of the paper's architecture (exact user
  locations never cross from the trusted anonymizer side into the
  query-processor/server side), and
* **determinism** of every module that feeds figure or benchmark
  output (all randomness routed through ``repro.utils.rng``).

plus a handful of generic correctness lints (float equality, mutable
default arguments, swallowed exceptions) that have historically caused
silent reproduction drift.

The engine is deliberately dependency-free: it parses every project
module once into a :class:`ModuleInfo`, hands the whole
:class:`Project` to each registered :class:`Rule` (rules may do
cross-module reasoning, e.g. import-graph taint tracking), and folds
the raw findings through inline-pragma suppression into a
:class:`LintResult`.

Suppression pragma syntax (anywhere in the physical line span of the
offending statement)::

    something_dubious()  # casperlint: ignore[CSP004] justification text
    another_thing()      # casperlint: ignore -- suppresses every rule

A pragma without a justification still suppresses, but the provided
reason is what code review is expected to look for.
"""

from __future__ import annotations

import abc
import ast
import hashlib
import re
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TypeVar, cast

from repro.analysis.config import LintConfig

__all__ = [
    "Finding",
    "RawFinding",
    "ModuleInfo",
    "Project",
    "Rule",
    "LintResult",
    "RULE_REGISTRY",
    "register_rule",
    "run_lint",
]

SEVERITIES = ("error", "warning")

_T = TypeVar("_T")

#: ``# casperlint: ignore[CSP001,CSP002] optional justification``
#: ``# casperlint: ignore`` (all rules)
_PRAGMA_RE = re.compile(
    r"#\s*casperlint:\s*ignore(?:\[(?P<codes>[A-Z0-9,\s]+)\])?"
)


@dataclass(frozen=True, slots=True)
class Finding:
    """One reportable violation, located in a project file."""

    rule: str
    path: str  # posix path relative to the project root
    line: int
    message: str
    severity: str = "error"

    @property
    def fingerprint(self) -> str:
        """Stable identity for code-scanning dashboards (SARIF
        ``partialFingerprints``).

        Deliberately excludes the line number so a finding keeps its
        identity across unrelated edits above it in the same file.
        """
        raw = f"{self.rule}::{self.path}::{self.message}"
        return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "severity": self.severity,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }


@dataclass(frozen=True, slots=True)
class RawFinding:
    """What a rule yields: a location span plus a message.

    ``end_line`` lets the engine honour suppression pragmas written on
    any physical line of a multi-line statement (e.g. the closing paren
    of a parenthesised import).
    """

    line: int
    message: str
    end_line: int | None = None

    @classmethod
    def at(cls, node: ast.AST, message: str) -> "RawFinding":
        return cls(
            line=getattr(node, "lineno", 1),
            message=message,
            end_line=getattr(node, "end_lineno", None),
        )


@dataclass(slots=True)
class ModuleInfo:
    """One parsed project module."""

    name: str  # dotted module name, e.g. ``repro.processor.knn``
    path: str  # posix path relative to the project root
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    _pragmas: dict[int, frozenset[str] | None] | None = None
    _stmt_spans: list[tuple[int, int]] | None = None

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    @property
    def package(self) -> str:
        """The dotted package this module lives in."""
        if self.name.endswith(".__init__"):
            return self.name.rsplit(".", 1)[0]
        return self.name.rsplit(".", 1)[0] if "." in self.name else ""

    def in_package(self, prefixes: Sequence[str]) -> bool:
        """True when the module name falls under any dotted prefix."""
        return any(
            self.name == p or self.name.startswith(p + ".") for p in prefixes
        )

    # -- pragma handling ------------------------------------------------
    def pragmas(self) -> dict[int, frozenset[str] | None]:
        """Map of line number -> suppressed rule codes (None = all)."""
        if self._pragmas is None:
            found: dict[int, frozenset[str] | None] = {}
            for i, text in enumerate(self.lines, start=1):
                if "casperlint" not in text:
                    continue
                m = _PRAGMA_RE.search(text)
                if not m:
                    continue
                codes = m.group("codes")
                if codes is None:
                    found[i] = None
                else:
                    found[i] = frozenset(
                        c.strip() for c in codes.split(",") if c.strip()
                    )
            self._pragmas = found
        return self._pragmas

    def statement_span(self, line: int, end_line: int | None) -> tuple[int, int]:
        """[line, end] expanded to the innermost enclosing *simple* statement.

        Rules often anchor a finding at a sub-expression (one argument
        of a multi-line call), whose own span covers a single physical
        line.  A ``# casperlint: ignore[...]`` written on any other
        line of the same logical statement must still suppress it, so
        the suppression check widens the span to the smallest
        multi-line simple statement containing it.  Compound statements
        (``def``/``if``/``for``/...) are excluded: their span covers a
        whole suite, and a pragma deep inside a function body must not
        silence a finding on its ``def`` line.
        """
        last = end_line if end_line is not None else line
        if self._stmt_spans is None:
            simple = (
                ast.Expr,
                ast.Assign,
                ast.AnnAssign,
                ast.AugAssign,
                ast.Return,
                ast.Raise,
                ast.Assert,
                ast.Delete,
                ast.Import,
                ast.ImportFrom,
            )
            spans: list[tuple[int, int]] = []
            for node in ast.walk(self.tree):
                if (
                    isinstance(node, simple)
                    and node.end_lineno is not None
                    and node.end_lineno > node.lineno
                ):
                    spans.append((node.lineno, node.end_lineno))
            self._stmt_spans = sorted(spans)
        best = (line, last)
        best_size: int | None = None
        for start, end in self._stmt_spans:
            if start <= line and end >= last:
                size = end - start
                if best_size is None or size < best_size:
                    best, best_size = (start, end), size
        return best

    def is_suppressed(self, rule: str, line: int, end_line: int | None) -> bool:
        """True when a pragma on any line of the enclosing statement
        span covers ``rule`` (multi-line statements count in full)."""
        pragmas = self.pragmas()
        if not pragmas:
            return False
        line, last = self.statement_span(line, end_line)
        for lineno in range(line, last + 1):
            codes = pragmas.get(lineno, False)
            if codes is False:
                continue
            if codes is None or rule in codes:
                return True
        return False


class Project:
    """Every analysed module, addressable by dotted name.

    Built either from the on-disk tree (:meth:`load`) or incrementally
    via :meth:`add_module` / :meth:`add_virtual_module` — the latter is
    how tests inject a hypothetical module (e.g. a forbidden import
    inside ``repro.processor``) without touching the working tree.
    """

    def __init__(self, root: Path | None = None) -> None:
        self.root = Path(root) if root is not None else Path(".")
        self.modules: dict[str, ModuleInfo] = {}
        self.parse_errors: list[Finding] = []
        self._facts: dict[str, tuple[LintConfig, object]] = {}

    # -- construction ---------------------------------------------------
    @classmethod
    def load(
        cls, root: Path, scan_paths: Sequence[str] = ("src/repro", "tools")
    ) -> "Project":
        """Parse every ``.py`` file under ``root / scan_path``.

        Module naming: files under a ``src/`` segment are named relative
        to ``src`` (``src/repro/geometry/rect.py`` ->
        ``repro.geometry.rect``); anything else is named relative to the
        project root (``tools/bench.py`` -> ``tools.bench``).
        """
        project = cls(root)
        for scan in scan_paths:
            base = (project.root / scan).resolve()
            if base.is_file() and base.suffix == ".py":
                project.add_file(base)
                continue
            for path in sorted(base.rglob("*.py")):
                project.add_file(path)
        return project

    def add_file(self, path: Path) -> None:
        path = Path(path).resolve()
        rel = path.relative_to(self.root.resolve()).as_posix()
        self.add_source(self.module_name_for(rel), rel, path.read_text())

    def module_name_for(self, rel_posix: str) -> str:
        """Dotted module name for a project-relative posix path."""
        parts = rel_posix.split("/")
        if "src" in parts:
            parts = parts[parts.index("src") + 1 :]
        name = "/".join(parts)[: -len(".py")].replace("/", ".")
        if name.endswith(".__init__"):
            name = name[: -len(".__init__")]
        return name

    def add_source(self, name: str, rel_path: str, source: str) -> None:
        try:
            tree = ast.parse(source, filename=rel_path)
        except SyntaxError as exc:
            self.parse_errors.append(
                Finding(
                    rule="CSP000",
                    path=rel_path,
                    line=exc.lineno or 1,
                    message=f"syntax error prevents analysis: {exc.msg}",
                )
            )
            return
        self.modules[name] = ModuleInfo(
            name=name, path=rel_path, source=source, tree=tree
        )
        self._facts.clear()

    def add_virtual_module(
        self, name: str, source: str, rel_path: str | None = None
    ) -> None:
        """Register an in-memory module as if it lived in the tree."""
        if rel_path is None:
            rel_path = "src/" + name.replace(".", "/") + ".py"
        self.add_source(name, rel_path, source)

    # -- lookups --------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self.modules

    def get(self, name: str) -> ModuleInfo | None:
        return self.modules.get(name)

    def resolve(self, name: str) -> str | None:
        """Best project module for a dotted name (module or package)."""
        if name in self.modules:
            return name
        return None

    def iter_modules(self) -> Iterator[ModuleInfo]:
        return iter(self.modules.values())

    # -- whole-project facts --------------------------------------------
    def fact(
        self,
        key: str,
        config: LintConfig,
        build: Callable[["Project", LintConfig], _T],
    ) -> _T:
        """``build(self, config)``, computed once per project state.

        The one memo for anything a rule derives from *every* module
        (the import taint graph, the dataflow pass): ``check`` runs per
        module, so a rule that needs such a fact asks for it here and
        pays for it once per lint, not once per module.  Adding a module
        forgets every fact, and so does asking under another config.
        """
        held = self._facts.get(key)
        if held is not None and held[0] == config:
            return cast(_T, held[1])
        value = build(self, config)
        self._facts[key] = (config, value)
        return value


class Rule(abc.ABC):
    """Base class every lint rule implements.

    Subclasses set the class attributes and yield :class:`RawFinding`
    objects from :meth:`check`.  The engine owns suppression and
    severity assignment — rules never worry about those.
    """

    code: str = "CSP000"
    name: str = ""
    description: str = ""
    default_severity: str = "error"

    @abc.abstractmethod
    def check(
        self, module: ModuleInfo, project: Project, config: LintConfig
    ) -> Iterable[RawFinding]:
        """Yield raw findings for one module."""


RULE_REGISTRY: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if cls.code in RULE_REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULE_REGISTRY[cls.code] = cls
    return cls


@dataclass(slots=True)
class LintResult:
    """Everything a reporter or the CLI needs about one lint run."""

    findings: list[Finding]
    suppressed: int = 0
    checked_modules: int = 0
    rules_run: tuple[str, ...] = ()

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "warning"]


def run_lint(project: Project, config: LintConfig) -> LintResult:
    """Run every selected rule over every project module."""
    from repro.analysis.rules import load_builtin_rules

    load_builtin_rules()
    selected = sorted(
        code
        for code in RULE_REGISTRY
        if config.select is None or code in config.select
    )
    rules = [RULE_REGISTRY[code]() for code in selected]

    findings: list[Finding] = list(project.parse_errors)
    suppressed = 0
    for module in project.iter_modules():
        for rule in rules:
            severity = config.severity_of(rule.code, rule.default_severity)
            for raw in rule.check(module, project, config):
                if module.is_suppressed(rule.code, raw.line, raw.end_line):
                    suppressed += 1
                    continue
                findings.append(
                    Finding(
                        rule=rule.code,
                        path=module.path,
                        line=raw.line,
                        message=raw.message,
                        severity=severity,
                    )
                )
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return LintResult(
        findings=findings,
        suppressed=suppressed,
        checked_modules=len(project.modules),
        rules_run=tuple(selected),
    )
