"""Value-level taint engine and cross-function call summaries.

This is the dataflow layer under the casperlint v2 rules (CSP009 and
CSP010).  It answers two questions the import-graph rules cannot:

* **taint** — does an *exact-location value* (a ``Point``, a raw
  ``.x``/``.y`` coordinate, anything derived from one through string
  formatting or arithmetic) reach a sink (logging, an exception
  message, a telemetry attribute, frame payload construction)?
* **blocking** — does a function, directly or through calls, execute a
  blocking primitive (``time.sleep``, a synchronous pipe/socket read,
  ``Popen.wait``) that would stall an asyncio event loop?

Each function body is walked once, into an index (its bindings,
returns, sinks, awaited and blocking calls, every call site with both
candidate lists).  The analysis is intraprocedural per function — a
flow-insensitive fixpoint over its bindings — with *call summaries* for
cross-function propagation:

``returns_taint``
    calling the function yields a tainted value (it builds a ``Point``
    or derives from one internally);
``param_to_return``
    parameter indices whose taint flows into the return value;
``param_to_sink``
    parameter indices that flow into a sink, each with that sink's kind
    (the caller is reported when it passes a tainted argument);
``blocking``
    the function transitively executes a blocking primitive.

The summaries are a true fixpoint with no cap on call-chain depth, run
in two phases on a worklist that re-runs a function only when a
callee's summary changed.  First the return summaries: weak taint only
turns strong and parameter sets only grow, so they end.  Then, with
every function's local taint fixed, ``param_to_sink`` from empty: it
only gains parameters and lowers kinds, so it ends too, at the least
fixpoint — a call cycle alone sinks nothing.  Blocking is a
breadth-first search up the call graph from the primitives.  No result
depends on the order functions are defined in: a parameter that reaches
sinks of several kinds is summarized as the kind first in
:data:`_SINK_DETAIL`, and ``blocking_reason`` names the chain to the
nearest primitive, through the first call in the body that starts one.
The rules read the hits the fixpoint records.

Call resolution is deliberately name-based: plain names resolve
through the module's own ``def``s and its ``from x import y`` edges
(reusing :mod:`repro.analysis.imports`); attribute calls resolve
against every same-named method in the project (union semantics:
tainted if *any* candidate is).  That over-approximates dynamic
dispatch, which is the right polarity for a privacy linter; blocking
resolves typed receivers only (:func:`resolve_method_call`).

Taint declassification: constructing a non-``Point`` object from
coordinates (``Rect(p.x - r, ...)``) sanitizes — an unknown
constructor/call does **not** propagate argument taint to its result.
The cloaked region is the sanctioned product of coordinates; only
string-shaped derivations (f-strings, ``str``/``repr``/``format``,
concatenation, tuples) and summarized project functions carry taint
through.
"""

from __future__ import annotations

import ast
from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.analysis.config import LintConfig
from repro.analysis.core import ModuleInfo, Project
from repro.analysis.imports import iter_import_edges

__all__ = [
    "FunctionRecord",
    "ProjectDataflow",
    "SinkHit",
    "analyze_project",
    "resolve_method_call",
    "TAINT_SOURCE_PRODUCERS",
    "BLOCKING_DOTTED_CALLS",
    "BLOCKING_METHODS",
]

#: Callables whose result *is* an exact location.
TAINT_SOURCE_PRODUCERS = frozenset({"Point", "location_of"})

#: Identifier fragments that name exact-location data (parameter seeds).
_LOCATION_NAME_FRAGMENTS = ("point", "location", "coord")

#: Fully-dotted calls that block the calling thread.
BLOCKING_DOTTED_CALLS = frozenset(
    {
        "time.sleep",
        "select.select",
        "socket.create_connection",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
    }
)

#: Method names that block regardless of receiver (pipe/socket reads,
#: ``Popen.wait``, lock acquisition).  ``.join`` is deliberately absent:
#: ``sep.join(parts)`` on strings would swamp the signal.
BLOCKING_METHODS = frozenset(
    {
        "recv",
        "recv_bytes",
        "send_bytes",
        "poll",
        "accept",
        "communicate",
        "wait",
        "acquire",
        "join_thread",
    }
)

#: Builtins that pass taint from arguments straight through.  The numpy
#: array constructors are here because an array *is* its elements — a
#: coordinate array reaching a persistence sink leaks the coordinates —
#: unlike project constructors (``Rect``), whose products are the
#: sanctioned declassified output.
_PASSTHROUGH_CALLS = frozenset(
    {
        "str", "repr", "format", "abs", "round", "float", "min", "max",
        "sorted", "zip",
        "array", "asarray", "ascontiguousarray", "fromiter", "frombuffer",
        "concatenate", "stack", "column_stack", "vstack", "hstack",
    }
)

#: Every sink kind with its message fragment.  A parameter that reaches
#: sinks of several kinds is summarized as the first listed.
_SINK_DETAIL = {
    "logging": "passes an exact location to a log call",
    "exception": "interpolates an exact location into the exception message",
    "telemetry": "passes an exact location into a telemetry label/attribute",
    "wire": "packs an exact location into a frame payload outside the "
    "sanctioned codec",
    "persistence": "writes an exact-location array to disk via a numpy "
    "persistence call",
}
_SINK_RANK = {kind: rank for rank, kind in enumerate(_SINK_DETAIL)}

_INTRINSIC = "src"  # the tag meaning "derived from an exact location"

#: Weak taint: extracted *from* a tainted container (``op[1]``,
#: ``record.uid``, tuple unpacking, loop iteration).  The element may or
#: may not be the coordinate itself — ``decode_op`` returns
#: ``("move", point, uid)`` and ``op[2]`` is a user id, not a location.
#: Weak taint still fires sinks in the function that extracts it (the
#: leak is visible right there), but it does not cross call boundaries
#: into ``param_to_sink`` matching: flagging ``update(op[2])`` because
#: *some* element of ``op`` was a Point drowns the signal in id-shaped
#: false positives.
_WEAK = "srcw"

#: Expressions whose taint is the union of these children's.
_CARRIERS: dict[type, tuple[str, ...]] = {
    ast.JoinedStr: ("values",), ast.BoolOp: ("values",),
    ast.Dict: ("values",), ast.Tuple: ("elts",), ast.List: ("elts",),
    ast.Set: ("elts",), ast.FormattedValue: ("value",),
    ast.Starred: ("value",), ast.Await: ("value",),
    ast.NamedExpr: ("value",), ast.UnaryOp: ("operand",),
    ast.BinOp: ("left", "right"), ast.IfExp: ("body", "orelse"),
    ast.ListComp: ("elt",), ast.SetComp: ("elt",), ast.GeneratorExp: ("elt",),
}


def _demote(tags: set[str]) -> set[str]:
    """Strong intrinsic taint becomes weak; everything else survives."""
    if _INTRINSIC not in tags:
        return set(tags)
    return (tags - {_INTRINSIC}) | {_WEAK}


def _params(tags: set[str]) -> list[int]:
    """The parameter indices among taint tags (``p<N>``)."""
    return [int(tag[1:]) for tag in tags if tag.startswith("p")]


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> str | None:
    """The rightmost identifier of a Name/Attribute chain."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _names_a_location(identifier: str | None) -> bool:
    if identifier is None:
        return False
    lowered = identifier.lower()
    return any(frag in lowered for frag in _LOCATION_NAME_FRAGMENTS)


@dataclass
class SinkHit:
    """One coordinate-tainted value reaching a sink, as a rule reports it."""

    node: ast.AST  # where to report
    kind: str  # a key of :data:`_SINK_DETAIL`
    detail: str  # human fragment for the message


@dataclass
class FunctionRecord:
    """One analyzed function: its summary and its hits."""

    key: str  # "<module>:<qualname>"
    module: str
    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    is_async: bool
    is_method: bool
    #: simple class name of the return annotation, when one is written
    #: (``-> ShardWorker``); drives typed receiver resolution
    return_class: str | None = None
    # summary bits (fixpointed across the project)
    returns_taint: bool = False
    returns_weak: bool = False
    param_to_return: set[int] = field(default_factory=set)
    param_to_sink: dict[int, str] = field(default_factory=dict)
    blocking: bool = False
    blocking_reason: str = ""
    # what the rules report: CSP009 (a tainted value at a sink here; a
    # tainted argument into a callee's sink parameter), CSP010 (a
    # blocking primitive; a non-awaited call of a blocking function,
    # async defs only)
    sink_hits: list[SinkHit] = field(default_factory=list)
    call_hits: list[tuple[ast.Call, FunctionRecord, str]] = field(
        default_factory=list
    )  # (call, callee, the kind its parameter sinks into)
    direct_blocking: list[tuple[ast.Call, str]] = field(default_factory=list)
    blocking_calls: list[tuple[ast.Call, FunctionRecord]] = field(
        default_factory=list
    )

    @property
    def param_names(self) -> list[str]:
        """Positional parameter names; ``self``/``cls`` keeps index 0."""
        args = self.node.args
        return [a.arg for a in args.posonlyargs + args.args]


@dataclass
class _CallSite:
    """One call in a function body, with both candidate lists."""

    node: ast.Call
    taint: list[str] = field(default_factory=list)  # union by name
    typed: list[str] = field(default_factory=list)  # typed receivers


class ProjectDataflow:
    """All function records of one project, with resolution indexes."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionRecord] = {}
        # module -> top-level def name -> key
        self.module_defs: dict[str, dict[str, str]] = {}
        # method name -> keys of every same-named method
        self.by_name: dict[str, list[str]] = {}
        # simple class name -> method name -> keys (project classes)
        self.classes: dict[str, dict[str, list[str]]] = {}
        # module -> imported value name -> source module
        self.imported_from: dict[str, dict[str, str]] = {}
        # module -> local name -> imported module (``import x as y``,
        # ``from pkg import mod [as y]``; ``import a.b`` binds ``a.b``)
        self.module_aliases: dict[str, dict[str, str]] = {}
        # function key -> local name -> the value of its last plain
        # assignment (typed receiver resolution)
        self.assigned: dict[str, dict[str, ast.expr]] = {}

    # -- call resolution ------------------------------------------------
    def resolve_call(self, module: str, call: ast.Call) -> list[str]:
        """Candidate function keys a call site may land on."""
        func = call.func
        if isinstance(func, ast.Name):
            local = self.module_defs.get(module, {}).get(func.id)
            if local is not None:
                return [local]
            source = self.imported_from.get(module, {}).get(func.id)
            if source is not None:
                target = self.module_defs.get(source, {}).get(func.id)
                if target is not None:
                    return [target]
            return []
        if isinstance(func, ast.Attribute):
            base = dotted_name(func.value)
            if base is not None:
                # ``modalias.fn(...)`` — a module-qualified call
                target_mod = self.module_aliases.get(module, {}).get(base)
                if target_mod is not None:
                    target = self.module_defs.get(target_mod, {}).get(
                        func.attr
                    )
                    return [target] if target is not None else []
            # method call: every same-named method in the project (a
            # module's function is reached by its name or through the
            # module, above — ``some_list.count(x)`` is not
            # ``runtime.count``)
            return self.by_name.get(func.attr, [])
        return []


def _annotation_class(node: ast.AST | None) -> str | None:
    """Simple class name out of a return/parameter annotation."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip().strip("'\"")
        text = text.split("[")[0].split("|")[0].strip()
        return text.split(".")[-1] or None
    if isinstance(node, ast.Subscript):
        base = terminal_name(node.value)
        if base == "Optional":
            return _annotation_class(node.slice)
        return base
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_class(node.left)
        if left not in (None, "None"):
            return left
        return _annotation_class(node.right)
    name = terminal_name(node)
    return None if name == "None" else name


def _collect_functions(
    project: Project, config: LintConfig, flow: ProjectDataflow
) -> dict[str, _Body]:
    """Index every function once, then resolve its call sites."""
    bodies: dict[str, _Body] = {}
    for module in project.iter_modules():
        defs: dict[str, str] = {}
        emitters = runtime_emitters(module.tree)

        def visit(
            node: ast.AST, prefix: str, class_name: str | None
        ) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    qualname = f"{prefix}{child.name}"
                    key = f"{module.name}:{qualname}"
                    record = FunctionRecord(
                        key=key,
                        module=module.name,
                        qualname=qualname,
                        node=child,
                        is_async=isinstance(child, ast.AsyncFunctionDef),
                        is_method=class_name is not None,
                        return_class=_annotation_class(child.returns),
                    )
                    body = _index(_Body(record, flow), module, config, emitters)
                    bodies[key], flow.functions[key] = body, record
                    flow.assigned[key] = body.assigned
                    if class_name is None and prefix == "":
                        defs[child.name] = key
                    if class_name is not None:
                        flow.classes.setdefault(class_name, {}).setdefault(
                            child.name, []
                        ).append(key)
                        flow.by_name.setdefault(child.name, []).append(key)
                    visit(child, f"{qualname}.", None)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", child.name)

        visit(module.tree, "", None)
        flow.module_defs[module.name] = defs
        imported: dict[str, str] = {}
        aliases: dict[str, str] = {}
        for edge in iter_import_edges(module, project):
            if edge.names:
                for name in edge.names:
                    if name != "*":
                        imported[name] = edge.target
            else:
                aliases[edge.target] = edge.target
                for alias in edge.node.names:  # the statement's local names
                    if ("." + edge.target).endswith("." + alias.name):
                        aliases[alias.asname or alias.name] = edge.target
        flow.imported_from[module.name] = imported
        flow.module_aliases[module.name] = aliases
    for key, body in bodies.items():
        record = flow.functions[key]
        for site in body.calls.values():
            site.taint = flow.resolve_call(record.module, site.node)
            site.typed = resolve_method_call(flow, record, site.node)
    return bodies


def _index(
    body: _Body, module: ModuleInfo, config: LintConfig, emitters: frozenset[str]
) -> _Body:
    """The one walk of a function body (``ast.walk`` yields an ``await``
    before the call under it)."""
    record = body.record
    bind = body.bindings.append
    for node in ast.walk(record.node):
        if isinstance(node, ast.Assign):
            bind((node.targets, [node.value], False))
            for target in node.targets:
                if isinstance(target, ast.Name):
                    body.assigned[target.id] = node.value
        elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)):
            if node.value is not None:
                bind(([node.target], [node.value], False))
                if isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    body.assigned[node.target.id] = node.value
        elif isinstance(node, ast.AugAssign):
            bind(([node.target], [node.value, node.target], False))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            # iterating extracts elements: strong container taint demotes
            bind(([node.target], [node.iter], True))
        elif isinstance(node, ast.withitem):
            if node.optional_vars is not None:
                bind(([node.optional_vars], [node.context_expr], False))
        elif isinstance(node, ast.Return) and node.value is not None:
            body.returns.append(node.value)
        elif isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            for arg in (*node.exc.args, *(kw.value for kw in node.exc.keywords)):
                body.sinks.append((node, arg, "exception"))
        elif isinstance(node, ast.Await) and isinstance(node.value, ast.Call):
            body.awaited.add(id(node.value))
        elif isinstance(node, ast.Call):
            body.calls[id(node)] = _CallSite(node)
            kind = _sink_of(node, module, config, emitters)
            if kind is not None:
                values = [*node.args, *(kw.value for kw in node.keywords)]
                if kind == "persistence" and isinstance(node.func, ast.Attribute):
                    # ndarray.tofile: the value that hits disk is the
                    # *receiver*, not an argument.
                    values.append(node.func.value)
                body.sinks.extend((value, value, kind) for value in values)
            if id(node) not in body.awaited:
                reason = _blocking_primitive(node)
                if reason is not None:
                    record.direct_blocking.append((node, reason))
    return body


def _blocking_primitive(call: ast.Call) -> str | None:
    dotted = dotted_name(call.func)
    if dotted in BLOCKING_DOTTED_CALLS:
        return f"calls {dotted}()"
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in BLOCKING_METHODS
        and not isinstance(func.value, ast.Constant)
    ):
        return f"calls .{func.attr}()"
    return None


# ----------------------------------------------------------------------
# Typed receiver resolution (blocking checks only)
# ----------------------------------------------------------------------
# Taint uses union-by-name resolution for attribute calls: tainted if
# *any* same-named method taints, which is the safe polarity for a
# privacy linter.  Blocking cannot afford that — one project class with
# a blocking ``close()`` would make every ``x.close()`` in every async
# def a finding, including ``asyncio.Server.close()`` which is how you
# *stop* blocking.  So the blocking walk resolves attribute calls only
# when the receiver's class is actually determinable: ``self``, an
# annotated parameter, or a local assigned from a project constructor /
# a call with a return annotation.  Undeterminable receivers resolve to
# nothing (the direct-primitive scan still catches the leaf call).


def _receiver_class(
    flow: "ProjectDataflow",
    record: FunctionRecord,
    expr: ast.AST,
    depth: int = 0,
) -> str | None:
    """The project class an attribute-call receiver is an instance of."""
    if depth > 4:
        return None
    if isinstance(expr, ast.Name):
        if expr.id in ("self", "cls"):
            if record.is_method and "." in record.qualname:
                return record.qualname.rsplit(".", 2)[-2]
            return None
        args = record.node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if arg.arg == expr.id and arg.annotation is not None:
                return _annotation_class(arg.annotation)
        assigned = flow.assigned[record.key].get(expr.id)
        if assigned is not None and not (
            isinstance(assigned, ast.Name) and assigned.id == expr.id
        ):
            return _receiver_class(flow, record, assigned, depth + 1)
        return None
    if isinstance(expr, ast.Call):
        name = terminal_name(expr.func)
        if name in flow.classes:
            return name  # direct constructor call
        for key in resolve_method_call(flow, record, expr, depth + 1):
            return_class = flow.functions[key].return_class
            if return_class is not None:
                return return_class
        return None
    return None


def resolve_method_call(
    flow: "ProjectDataflow",
    record: FunctionRecord,
    call: ast.Call,
    depth: int = 0,
) -> list[str]:
    """Candidate keys for a call, typed-receiver flavor (see above)."""
    if depth > 4:
        return []
    func = call.func
    if isinstance(func, ast.Name) or (
        isinstance(func, ast.Attribute)
        and dotted_name(func.value) in flow.module_aliases.get(record.module, {})
    ):
        return flow.resolve_call(record.module, call)  # a function, by name
    if not isinstance(func, ast.Attribute):
        return []
    receiver = _receiver_class(flow, record, func.value, depth)
    if receiver is None:
        return []
    return list(flow.classes.get(receiver, {}).get(func.attr, []))


# ----------------------------------------------------------------------
# Per-function taint analysis
# ----------------------------------------------------------------------
class _Body:
    """One function body: the index of its one walk, in walk order, and
    its local taint — a flow-insensitive fixpoint over its bindings."""

    def __init__(self, record: FunctionRecord, flow: ProjectDataflow) -> None:
        self.record = record
        self.flow = flow
        #: (targets, values whose taint they take, whether that extracts
        #: elements and so demotes strong taint)
        self.bindings: list[tuple[list[ast.expr], list[ast.expr], bool]] = []
        self.returns: list[ast.expr] = []
        #: (where to report, value, sink kind)
        self.sinks: list[tuple[ast.AST, ast.expr, str]] = []
        self.calls: dict[int, _CallSite] = {}  # by id(node)
        self.awaited: set[int] = set()  # id() of awaited calls
        #: local name -> the value of its last plain assignment
        self.assigned: dict[str, ast.expr] = {}
        self.tags: dict[str, set[str]] = {}

    # -- expression tagging --------------------------------------------
    def expr_tags(self, node: ast.AST, depth: int = 0) -> set[str]:
        if depth > 24:
            return set()
        if isinstance(node, ast.Name):
            return set(self.tags.get(node.id, ()))
        if isinstance(node, ast.Attribute):
            if node.attr in ("x", "y"):
                return {_INTRINSIC}
            return _demote(self.expr_tags(node.value, depth + 1))
        if isinstance(node, ast.Call):
            return self._call_tags(node, depth)
        if isinstance(node, ast.Subscript):
            return _demote(
                self.expr_tags(node.value, depth + 1)
            ) | self.expr_tags(node.slice, depth + 1)
        out: set[str] = set()
        for name in _CARRIERS.get(type(node), ()):
            child = getattr(node, name)
            for part in child if isinstance(child, list) else (child,):
                if part is not None:  # a ``**spread`` has no Dict key
                    out |= self.expr_tags(part, depth + 1)
        return out

    def _call_tags(self, call: ast.Call, depth: int) -> set[str]:
        callee = terminal_name(call.func)
        if callee in TAINT_SOURCE_PRODUCERS:
            return {_INTRINSIC}
        arg_union: set[str] = set()
        for arg in call.args:
            arg_union |= self.expr_tags(arg, depth + 1)
        for keyword in call.keywords:
            arg_union |= self.expr_tags(keyword.value, depth + 1)
        if callee in _PASSTHROUGH_CALLS:
            return arg_union
        if isinstance(call.func, ast.Attribute) and call.func.attr in (
            "format",
            "join",
        ):
            return arg_union | self.expr_tags(call.func.value, depth + 1)
        out: set[str] = set()
        for key in self.calls[id(call)].taint:
            summary = self.flow.functions[key]
            if summary.returns_taint:
                out.add(_INTRINSIC)
            elif summary.returns_weak:
                out.add(_WEAK)
            if summary.param_to_return:
                for index, arg_node in _align_args(summary, call):
                    if index in summary.param_to_return:
                        out |= self.expr_tags(arg_node, depth + 1)
        return out

    # -- the local fixpoint and the two summaries ------------------------
    def summarize_returns(self) -> bool:
        """Run the function against its callees' current return summaries
        and store its own; whether it changed."""
        self.tags = {}
        args = self.record.node.args
        for index, arg in enumerate(args.posonlyargs + args.args):
            seeds = {f"p{index}"}
            annotation = terminal_name(arg.annotation) if arg.annotation else None
            if annotation == "Point" or _names_a_location(arg.arg):
                seeds.add(_INTRINSIC)
            self.tags[arg.arg] = seeds
        changed = True
        while changed:
            changed = False
            for targets, values, extracts in self.bindings:
                tags: set[str] = set()
                for value in values:
                    tags |= self.expr_tags(value)
                changed |= self._bind_targets(
                    targets, _demote(tags) if extracts else tags
                )
        returned: set[str] = set()
        for value in self.returns:
            returned |= self.expr_tags(value)
        record = self.record
        summary = (_INTRINSIC in returned, _WEAK in returned, set(_params(returned)))
        if summary == (
            record.returns_taint, record.returns_weak, record.param_to_return
        ):
            return False
        record.returns_taint, record.returns_weak, record.param_to_return = summary
        return True

    def summarize_sinks(self) -> bool:
        """With the local taint fixed, store the sink hits, the tainted
        arguments into callees' sink parameters and ``param_to_sink``
        against the callees' current ones; whether that changed."""
        record = self.record
        sunk: dict[int, str] = {}
        record.sink_hits = []
        for where, value, kind in self.sinks:
            tags = self.expr_tags(value)
            if {_INTRINSIC, _WEAK} & tags:
                # reported here; flagging callers too would
                # double-report the same leak
                record.sink_hits.append(SinkHit(where, kind, _SINK_DETAIL[kind]))
            else:
                _sink_params(sunk, _params(tags), kind)
        record.call_hits = []
        for site in self.calls.values():
            for key in site.taint:
                callee = self.flow.functions[key]
                if not callee.param_to_sink:
                    continue
                for index, arg in _align_args(callee, site.node):
                    kind = callee.param_to_sink.get(index)
                    if kind is None:
                        continue
                    tags = self.expr_tags(arg)
                    if _INTRINSIC in tags:
                        record.call_hits.append((site.node, callee, kind))
                    else:
                        # passing our parameter into a callee's sink
                        # parameter makes it a sink parameter of ours
                        _sink_params(sunk, _params(tags), kind)
        if sunk == record.param_to_sink:
            return False
        record.param_to_sink = sunk
        return True

    def _bind_targets(self, targets: list[ast.expr], tags: set[str]) -> bool:
        if not tags:
            return False
        changed = False
        for target in targets:
            # ``a, b = tainted_call()`` is element extraction, same as
            # subscripting: the unpacked names get weak taint only
            effective = (
                tags if isinstance(target, ast.Name) else _demote(tags)
            )
            for name_node in _target_names(target):
                current = self.tags.setdefault(name_node, set())
                if not effective <= current:
                    current |= effective
                    changed = True
        return changed


def _target_names(target: ast.AST) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: list[str] = []
        for element in target.elts:
            names += _target_names(element)
        return names
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return []  # attribute/subscript targets escape local tracking


def _align_args(
    summary: FunctionRecord, call: ast.Call
) -> list[tuple[int, ast.AST]]:
    """(parameter index, argument expr) pairs for a call site.

    Method calls through an attribute receiver skip the ``self``
    slot; keyword arguments match by parameter name.
    """
    offset = (
        1
        if summary.is_method and isinstance(call.func, ast.Attribute)
        else 0
    )
    pairs: list[tuple[int, ast.AST]] = []
    for position, arg in enumerate(call.args):
        pairs.append((position + offset, arg))
    names = summary.param_names
    for keyword in call.keywords:
        if keyword.arg is not None and keyword.arg in names:
            pairs.append((names.index(keyword.arg), keyword.value))
    return pairs


def _sink_params(sunk: dict[int, str], indices: list[int], kind: str) -> None:
    """Mark parameters as reaching a ``kind`` sink; of several kinds the
    first in :data:`_SINK_DETAIL` is kept."""
    for index in indices:
        held = sunk.get(index)
        if held is None or _SINK_RANK[kind] < _SINK_RANK[held]:
            sunk[index] = kind


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
_LOG_METHODS = frozenset(
    {"debug", "info", "warning", "error", "critical", "exception", "log"}
)
#: Methods whose arguments become metric labels or span attributes on
#: any receiver: instrument registration, span opening.
_TELEMETRY_METHODS = frozenset(
    {"counter", "gauge", "histogram", "span", "set_attribute"}
)
#: The emit API every instrumented site goes through.  Matched only via
#: the module's import of the runtime, never by bare attribute:
#: ``some_list.count(point)`` is no telemetry call.
_RUNTIME = "repro.observability.runtime"
_RUNTIME_EMITTERS = (
    "count", "observe", "set_gauge", "record_cloak", "phase_scope", "query_scope",
)
#: Every name that puts a value on a wire (frames and their envelopes).
_WIRE_BUILDERS = frozenset({"pack", "encode_frame", "ShardEnvelope"})
#: numpy array-persistence entry points: ``np.save``-family functions
#: (matched only under a numpy-ish receiver so ``snapshot.save(...)``
#: does not fire) plus the ``ndarray.tofile`` method, whose *receiver*
#: is the value that hits disk.
_PERSISTENCE_FUNCS = frozenset(
    {"save", "savetxt", "savez", "savez_compressed"}
)
_NUMPY_RECEIVERS = frozenset({"np", "numpy"})


def runtime_emitters(tree: ast.Module) -> frozenset[str]:
    """The dotted callee names under which a module reaches the emit
    API: ``<alias>.count`` & co. for every name it imports the runtime
    module as, a bare name for every function it imports from it."""
    modules, names = {_RUNTIME}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(
                alias.asname
                for alias in node.names
                if alias.name == _RUNTIME and alias.asname
            )
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                if f"{node.module}.{alias.name}" == _RUNTIME:
                    modules.add(alias.asname or alias.name)
                elif node.module == _RUNTIME and alias.name in _RUNTIME_EMITTERS:
                    names.add(alias.asname or alias.name)
    names.update(f"{m}.{f}" for m in modules for f in _RUNTIME_EMITTERS)
    return frozenset(names)


def is_telemetry_call(call: ast.Call, emitters: frozenset[str]) -> bool:
    """Whether ``call``'s arguments become telemetry, in a module whose
    :func:`runtime_emitters` are ``emitters``."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in _TELEMETRY_METHODS:
        return True
    return dotted_name(func) in emitters


def _sink_of(
    call: ast.Call, module: ModuleInfo, config: LintConfig, emitters: frozenset[str]
) -> str | None:
    """Which sink kind a call site is, if any, for this module."""
    func = call.func
    dotted = dotted_name(func)
    if dotted is not None and (
        dotted.startswith("logging.") or dotted.startswith("logger.")
    ):
        return "logging"
    if is_telemetry_call(call, emitters) and not module.name.startswith(
        "repro.observability"
    ):
        return "telemetry"
    if isinstance(func, ast.Attribute):
        if func.attr in _LOG_METHODS and terminal_name(func.value) in (
            "logger",
            "log",
            "logging",
        ):
            return "logging"
        if func.attr == "tofile":
            return "persistence"
        if (
            func.attr in _PERSISTENCE_FUNCS
            and terminal_name(func.value) in _NUMPY_RECEIVERS
        ):
            return "persistence"
    name = terminal_name(func)
    if name in _WIRE_BUILDERS:
        if not module.in_package(config.codec_modules):
            return "wire"
    return None


# ----------------------------------------------------------------------
# Project driver
# ----------------------------------------------------------------------
def analyze_project(project: Project, config: LintConfig) -> ProjectDataflow:
    """Full dataflow pass over a project, run once per project state."""
    return project.fact("dataflow", config, _analyze)


def _analyze(project: Project, config: LintConfig) -> ProjectDataflow:
    flow = ProjectDataflow()
    bodies = _collect_functions(project, config, flow)
    _propagate_taint(flow, bodies)
    _propagate_blocking(flow, bodies)
    return flow


def _callers(
    bodies: dict[str, _Body], typed: bool
) -> dict[str, dict[str, None]]:
    """Callee key -> its callers' keys (a dict as an ordered set), over
    the typed or the union-by-name candidates."""
    callers: dict[str, dict[str, None]] = {}
    for key, body in bodies.items():
        for site in body.calls.values():
            for target in site.typed if typed else site.taint:
                callers.setdefault(target, {})[key] = None
    return callers


def _worklist(
    keys: Iterable[str],
    callers: dict[str, dict[str, None]],
    step: Callable[[str], bool],
) -> None:
    """Run ``step`` on every function, and again on the callers of each
    one whose summary it changed, until no summary changes."""
    pending = deque(keys)
    queued = set(pending)
    while pending:
        key = pending.popleft()
        queued.discard(key)
        if not step(key):
            continue
        for caller in callers.get(key, ()):
            if caller not in queued:
                queued.add(caller)
                pending.append(caller)


def _propagate_taint(flow: ProjectDataflow, bodies: dict[str, _Body]) -> None:
    """The return summaries to their fixpoint, then ``param_to_sink`` to
    its own.  Each function's last run comes after its callees' last
    change, so its local taint and its hits are final."""
    callers = _callers(bodies, typed=False)
    _worklist(flow.functions, callers, lambda key: bodies[key].summarize_returns())
    _worklist(flow.functions, callers, lambda key: bodies[key].summarize_sinks())


def _propagate_blocking(flow: ProjectDataflow, bodies: dict[str, _Body]) -> None:
    """Transitive blocking over the typed call graph, breadth first from
    the functions that call a primitive; then each async def's
    non-awaited calls of a blocking function."""
    callers = _callers(bodies, typed=True)
    distance = {
        key: 0 for key, record in flow.functions.items() if record.direct_blocking
    }
    frontier = deque(distance)
    while frontier:
        key = frontier.popleft()
        for caller in callers.get(key, ()):
            if caller not in distance:
                distance[caller] = distance[key] + 1
                frontier.append(caller)
    # reasons nearest first: each names its first call one step closer
    # (the least key among that call's candidates)
    for key in sorted(distance, key=distance.__getitem__):
        record = flow.functions[key]
        record.blocking = True
        if not distance[key]:
            record.blocking_reason = record.direct_blocking[0][1]
            continue
        callee = next(
            flow.functions[min(nearer)]
            for site in bodies[key].calls.values()
            if (
                nearer := [
                    target
                    for target in site.typed
                    if distance.get(target) == distance[key] - 1
                ]
            )
        )
        record.blocking_reason = (
            f"calls {callee.qualname}() which {callee.blocking_reason}"
        )
    for record in flow.functions.values():
        if not record.is_async:
            continue
        body = bodies[record.key]
        direct = {id(call) for call, _ in record.direct_blocking}
        for call_id, site in body.calls.items():
            if call_id in body.awaited or call_id in direct:
                continue
            callee = next(
                (flow.functions[k] for k in site.typed if k in distance), None
            )
            if callee is not None:
                record.blocking_calls.append((site.node, callee))
