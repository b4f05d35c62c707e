"""CSP012 — spawned processes/sockets/pipes released on every path.

The static twin of the conftest orphan-worker guard: the test suite
fails a session that leaves a ``casper-shard-*`` process behind, and
this rule fails the *lint* run on any path that could produce one.
For every local acquisition of an OS-backed resource::

    parent_conn, child_conn = ctx.Pipe()
    sock = socket.socket(...)
    proc = subprocess.Popen([...])

the rule reads the suite that follows it.  Statements that cannot raise
or leave the suite (``n = 3``; a release of an acquired name) are
skipped; the next statement must take ownership of each acquired name:

* a ``with`` over the name;
* a release call on it (``.close()``/``.kill()``/``.join()``/...);
* a *hand-off*: the name is stored on an attribute or subscript,
  returned, or passed to a call — not in a ``Process`` / ``Thread``'s
  ``args=`` / ``kwargs=``, which leave the caller's copy open;
* a ``try`` whose ``finally`` releases it by these same rules;
* a ``try`` guarded by a catch-all handler (``except:`` / ``except
  BaseException:``) that releases it before anything else can raise
  and ends in ``raise``.  Python sends an exception raised in an
  ``else:`` or in a handler outward, past the handlers, so the guarded
  ``try`` has no ``else:`` and its body leaves early only after a
  hand-off; a name the body did not hand off is still held after the
  ``try``, and the check goes on from the next statement.

Anything else (a statement that can raise, an early exit, the end of
the suite) while the name is held is a finding.  ``Process(...)`` is
*not* an acquisition (the OS resource exists only after ``.start()``);
``Popen`` spawns in its constructor, so it is.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.analysis.config import LintConfig
from repro.analysis.core import ModuleInfo, Project, RawFinding, Rule, register_rule
from repro.analysis.dataflow import terminal_name

__all__ = ["ResourceLifecycleRule"]

#: Terminal call names whose result owns an OS resource.
_ACQUIRERS = frozenset(
    {"Pipe", "Popen", "socket", "socketpair", "create_connection",
     "create_server", "open_connection", "SimpleQueue"}
)

#: Method calls that release the resource held by a name.
_RELEASERS = frozenset({"close", "kill", "terminate", "shutdown", "release", "join"})

#: Nodes that run user code or leave the suite: a statement holding
#: none of them cannot raise, so it needs not own anything.
_LOUD = (
    ast.Call, ast.Attribute, ast.Subscript, ast.BinOp, ast.Compare,
    ast.AugAssign, ast.FormattedValue, ast.comprehension, ast.For,
    ast.AsyncFor, ast.With, ast.AsyncWith, ast.Match, ast.Await,
    ast.Yield, ast.YieldFrom, ast.Import, ast.ImportFrom, ast.Assert,
    ast.Raise, ast.Return, ast.Break, ast.Continue,
)

#: Constructors whose ``args=`` / ``kwargs=`` take no ownership.
_SPAWNERS = frozenset({"Process", "Thread"})

#: Nodes that leave a ``try`` body without raising.
_EXITS = (ast.Return, ast.Break, ast.Continue)

_ASSIGNS = (ast.Assign, ast.AnnAssign, ast.AugAssign)


def _targets(stmt: ast.Assign | ast.AnnAssign | ast.AugAssign) -> list[ast.expr]:
    return stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]


def _acquired_names(stmt: ast.stmt) -> list[str]:
    """Local names bound to a fresh resource by this statement."""
    if not (
        isinstance(stmt, (ast.Assign, ast.AnnAssign))
        and isinstance(stmt.value, ast.Call)
        and terminal_name(stmt.value.func) in _ACQUIRERS
    ):
        return []
    return [
        element.id
        for target in _targets(stmt)
        for element in (
            target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]
        )
        if isinstance(element, ast.Name)
    ]


def _mentions(node: ast.AST, name: str) -> bool:
    return any(isinstance(sub, ast.Name) and sub.id == name for sub in ast.walk(node))


def _released(stmt: ast.stmt) -> str | None:
    """The name a ``name.close()``-style statement releases."""
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        func = stmt.value.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _RELEASERS
            and isinstance(func.value, ast.Name)
        ):
            return func.value.id
    return None


def _quiet(stmt: ast.stmt, acquired: frozenset[str]) -> bool:
    """Cannot raise or leave the suite (a release counts as quiet)."""
    if _released(stmt) in acquired:
        return True
    return not any(isinstance(sub, _LOUD) for sub in ast.walk(stmt))


def _takes(stmt: ast.stmt, name: str) -> bool:
    """A simple statement that releases ``name`` or hands it off."""
    if _released(stmt) == name:
        return True
    if not isinstance(stmt, (ast.Return, ast.Expr, *_ASSIGNS)) or stmt.value is None:
        return False
    if isinstance(stmt, ast.Return):
        return _mentions(stmt.value, name)
    if isinstance(stmt, _ASSIGNS) and _mentions(stmt.value, name):
        if any(isinstance(t, (ast.Attribute, ast.Subscript)) for t in _targets(stmt)):
            return True
    return any(
        isinstance(sub, ast.Call) and any(_mentions(arg, name) for arg in _passed(sub))
        for sub in ast.walk(stmt.value)
    )


def _passed(call: ast.Call) -> list[ast.expr]:
    """The arguments a call takes ownership of."""
    kept = ("args", "kwargs") if terminal_name(call.func) in _SPAWNERS else ()
    return [*call.args, *(kw.value for kw in call.keywords if kw.arg not in kept)]


def _guards(stmt: ast.Try, name: str, acquired: frozenset[str]) -> bool:
    """Every handler releases ``name`` first and re-raises, one catches
    everything, and no ``else:`` runs outside them."""
    return (
        not stmt.orelse
        and any(
            h.type is None or terminal_name(h.type) == "BaseException"
            for h in stmt.handlers
        )
        and all(
            isinstance(h.body[-1], ast.Raise) and not _leaks(h.body, name, acquired)
            for h in stmt.handlers
        )
    )


def _leaks(suite: list[ast.stmt], name: str, acquired: frozenset[str]) -> bool:
    """Can ``name``, held when ``suite`` starts, leave it unreleased?"""
    for index, stmt in enumerate(suite):
        if _takes(stmt, name):
            return False
        if _quiet(stmt, acquired):
            continue
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return not any(_mentions(item.context_expr, name) for item in stmt.items)
        if not isinstance(stmt, ast.Try):
            return True
        if stmt.finalbody and not _leaks(stmt.finalbody, name, acquired):
            return False
        if not _guards(stmt, name, acquired):
            return True
        for inner in stmt.body:
            if _takes(inner, name):
                return False
            if any(isinstance(sub, _EXITS) for sub in ast.walk(inner)):
                return True
        return _leaks([*stmt.finalbody, *suite[index + 1 :]], name, acquired)
    return True


def _suites(node: ast.AST, local: bool = False) -> Iterator[list[ast.stmt]]:
    """Every statement list under ``node`` that runs in a function."""
    local = local or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    for _, value in ast.iter_fields(node):
        if local and isinstance(value, list) and value:
            if isinstance(value[0], ast.stmt):
                yield value
    for child in ast.iter_child_nodes(node):
        yield from _suites(child, local)


@register_rule
class ResourceLifecycleRule(Rule):
    code = "CSP012"
    name = "resource-lifecycle"
    description = (
        "every locally-acquired process/socket/pipe must be released on "
        "all paths (finally/context manager), including exception paths"
    )
    default_severity = "error"

    def check(
        self, module: ModuleInfo, project: Project, config: LintConfig
    ) -> Iterable[RawFinding]:
        if not any(
            isinstance(node, ast.Call) and terminal_name(node.func) in _ACQUIRERS
            for node in ast.walk(module.tree)
        ):
            return  # cheap gate before reading suites
        for suite in _suites(module.tree):
            for index, stmt in enumerate(suite):
                acquired = frozenset(_acquired_names(stmt))
                for name in sorted(acquired):
                    if _leaks(suite[index + 1 :], name, acquired):
                        yield RawFinding.at(
                            stmt,
                            f"{name!r} acquired here may never be released: "
                            "an exception/early-return path leaves the "
                            "function without .close()/.kill() — release it "
                            "in a finally block or hold it in a context "
                            "manager (see WorkerPool.spawn)",
                        )
