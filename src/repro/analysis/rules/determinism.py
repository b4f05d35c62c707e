"""CSP002 — determinism of everything that feeds figures and benchmarks.

PR 1 made figure runs byte-identical across serial and parallel
execution; that only holds while every stochastic choice flows through
``repro.utils.rng`` (seeded ``numpy.random.Generator`` streams) and no
module consults the wall clock for *data* (measuring elapsed time with
``time.perf_counter`` is fine — it never feeds a seed or a decision).

Inside the deterministic zone (``evaluation``, ``mobility``,
``workloads``, ``tools``, ...) this rule bans:

* the stdlib ``random`` module entirely (its global state leaks across
  components and its streams differ from numpy's);
* wall-clock reads: ``time.time``/``time.time_ns`` and
  ``datetime.now``/``utcnow``/``today``;
* numpy's *legacy global* RNG (``np.random.seed``, ``np.random.rand``,
  ``np.random.choice``, ...) — shared mutable state that parallel
  figure workers would race on;
* **unseeded** ``np.random.default_rng()`` / ``default_rng(None)`` —
  an OS-entropy stream that is different every run.

The fix is always the same: accept a ``SeedLike`` and call
``repro.utils.rng.ensure_rng`` / ``spawn_rngs``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.analysis.config import LintConfig
from repro.analysis.core import ModuleInfo, Project, RawFinding, Rule, register_rule

__all__ = ["DeterminismRule"]

_WALL_CLOCK_TIME_ATTRS = frozenset({"time", "time_ns", "ctime", "localtime", "gmtime"})
_WALL_CLOCK_DT_ATTRS = frozenset({"now", "utcnow", "today"})
_NUMPY_LEGACY_ATTRS = frozenset(
    {
        "seed",
        "random",
        "rand",
        "randn",
        "randint",
        "random_sample",
        "random_integers",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "exponential",
        "poisson",
        "binomial",
        "get_state",
        "set_state",
    }
)


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _numpy_aliases(tree: ast.Module) -> set[str]:
    """Local names bound to the numpy top-level module."""
    aliases = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    aliases.add(alias.asname or "numpy")
    return aliases


@register_rule
class DeterminismRule(Rule):
    code = "CSP002"
    name = "determinism"
    description = (
        "modules feeding figures/benchmarks must route all randomness "
        "through repro.utils.rng and never read the wall clock for data"
    )
    default_severity = "error"

    def check(
        self, module: ModuleInfo, project: Project, config: LintConfig
    ) -> Iterable[RawFinding]:
        if not module.in_package(config.deterministic_packages):
            return
        if module.name == config.rng_module:  # the sanctioned wrapper itself
            return
        np_names = _numpy_aliases(module.tree)
        for node in ast.walk(module.tree):
            yield from self._check_imports(node, config)
            yield from self._check_attribute_use(node, np_names, config)

    # -- imports --------------------------------------------------------
    def _check_imports(
        self, node: ast.AST, config: LintConfig
    ) -> Iterator[RawFinding]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root == "random":
                    yield RawFinding.at(
                        node,
                        "stdlib 'random' is banned in deterministic modules; "
                        f"use {config.rng_module}.ensure_rng(seed) instead",
                    )
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if node.module and node.module.split(".")[0] == "random":
                yield RawFinding.at(
                    node,
                    "stdlib 'random' is banned in deterministic modules; "
                    f"use {config.rng_module}.ensure_rng(seed) instead",
                )
            elif node.module == "time":
                bad = sorted(
                    a.name
                    for a in node.names
                    if a.name in _WALL_CLOCK_TIME_ATTRS
                )
                if bad:
                    yield RawFinding.at(
                        node,
                        f"wall-clock import {bad} from 'time' breaks "
                        "reproducibility; measure durations with "
                        "time.perf_counter and never feed clocks into data",
                    )

    # -- attribute chains ----------------------------------------------
    def _check_attribute_use(
        self, node: ast.AST, np_names: set[str], config: LintConfig
    ) -> Iterator[RawFinding]:
        if not isinstance(node, ast.Attribute):
            return
        dotted = _dotted(node)
        if dotted is None:
            return
        parts = dotted.split(".")
        if dotted in ("time.time", "time.time_ns"):
            yield RawFinding.at(
                node,
                f"wall-clock read '{dotted}' breaks reproducibility; use "
                "time.perf_counter for durations or pass timestamps in "
                "explicitly",
            )
            return
        if (
            parts[-1] in _WALL_CLOCK_DT_ATTRS
            and len(parts) >= 2
            and parts[-2] in ("datetime", "date")
        ):
            yield RawFinding.at(
                node,
                f"wall-clock read '{dotted}' breaks reproducibility; pass "
                "timestamps in explicitly",
            )
            return
        # numpy.random.* — legacy global generator or unseeded default_rng.
        if len(parts) >= 3 and parts[0] in np_names and parts[1] == "random":
            attr = parts[2]
            if attr in _NUMPY_LEGACY_ATTRS:
                yield RawFinding.at(
                    node,
                    f"legacy global numpy RNG '{dotted}' is shared mutable "
                    f"state; use {config.rng_module}.ensure_rng(seed)",
                )


@register_rule
class UnseededGeneratorRule(Rule):
    """CSP002 companion emitted under the same zone: unseeded default_rng.

    Split from the attribute walk because it needs the *call* node (to
    inspect arguments), and kept as its own registered rule so severity
    can be tuned independently of the hard bans.
    """

    code = "CSP007"
    name = "unseeded-generator"
    description = (
        "np.random.default_rng() without a seed yields a different "
        "stream every run; thread a SeedLike through repro.utils.rng"
    )
    default_severity = "error"

    def check(
        self, module: ModuleInfo, project: Project, config: LintConfig
    ) -> Iterable[RawFinding]:
        if not module.in_package(config.deterministic_packages):
            return
        if module.name == config.rng_module:
            return
        np_names = _numpy_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            is_default_rng = (
                len(parts) >= 3
                and parts[0] in np_names
                and parts[1] == "random"
                and parts[2] == "default_rng"
            ) or dotted == "default_rng"
            if not is_default_rng:
                continue
            unseeded = not node.args or (
                isinstance(node.args[0], ast.Constant)
                and node.args[0].value is None
            )
            if unseeded and not node.keywords:
                yield RawFinding.at(
                    node,
                    "unseeded default_rng() draws OS entropy and differs "
                    f"every run; use {config.rng_module}.ensure_rng(seed)",
                )
