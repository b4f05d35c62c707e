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

The analysis is intraprocedural per function — a flow-insensitive
fixpoint over the function's assignments — with *call summaries* for
cross-function propagation:

``returns_taint``
    calling the function yields a tainted value (it builds a ``Point``
    or derives from one internally);
``param_to_return``
    parameter indices whose taint flows into the return value;
``param_to_sink``
    parameter indices that flow into a sink inside the function (the
    caller is reported when it passes a tainted argument);
``blocking``
    the function transitively executes a blocking primitive.

Call resolution is deliberately name-based: plain names resolve
through the module's own ``def``s and its ``from x import y`` edges
(reusing :mod:`repro.analysis.imports`); attribute calls resolve
against every same-named method in the project (union semantics:
tainted/blocking if *any* candidate is).  That over-approximates
dynamic dispatch, which is the right polarity for a privacy linter.

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

#: Maximum global summary-propagation rounds (call-chain depth).
_SUMMARY_ROUNDS = 4

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


def _demote(tags: set[str]) -> set[str]:
    """Strong intrinsic taint becomes weak; everything else survives."""
    if _INTRINSIC not in tags:
        return set(tags)
    return (tags - {_INTRINSIC}) | {_WEAK}


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
    """One tainted value reaching a sink inside one function."""

    node: ast.AST  # where to report
    kind: str  # "logging" | "exception" | "telemetry" | "wire" | "persistence"
    tags: frozenset[str]  # which taint tags arrived (``src`` / ``p<N>``)
    detail: str  # human fragment for the message


@dataclass
class FunctionRecord:
    """One analyzed function plus its call summary."""

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
    # per-function analysis products
    sink_hits: list[SinkHit] = field(default_factory=list)
    direct_blocking: list[tuple[ast.Call, str]] = field(default_factory=list)

    @property
    def param_names(self) -> list[str]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args]
        if self.is_method and names:
            pass  # self/cls keeps its index; callers skip it naturally
        return names


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


def _collect_functions(project: Project, flow: ProjectDataflow) -> None:
    for module in project.iter_modules():
        defs: dict[str, str] = {}

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
                    flow.functions[key] = record
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


def _last_local_assignment(
    func: ast.AST, name: str
) -> ast.expr | None:
    assigned: ast.expr | None = None
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    assigned = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if (
                isinstance(node.target, ast.Name)
                and node.target.id == name
            ):
                assigned = node.value
    return assigned


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
        assigned = _last_local_assignment(record.node, expr.id)
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
    if isinstance(func, ast.Name):
        return flow.resolve_call(record.module, call)
    if not isinstance(func, ast.Attribute):
        return []
    base = dotted_name(func.value)
    if base is not None:
        target_mod = flow.module_aliases.get(record.module, {}).get(base)
        if target_mod is not None:
            target = flow.module_defs.get(target_mod, {}).get(func.attr)
            return [target] if target is not None else []
    receiver = _receiver_class(flow, record, func.value, depth)
    if receiver is None:
        return []
    return list(flow.classes.get(receiver, {}).get(func.attr, []))


# ----------------------------------------------------------------------
# Per-function taint analysis
# ----------------------------------------------------------------------
class _TaintPass:
    """Flow-insensitive taint fixpoint over one function body."""

    def __init__(
        self,
        record: FunctionRecord,
        module: ModuleInfo,
        flow: ProjectDataflow,
        config: LintConfig,
    ) -> None:
        self.record = record
        self.module = module
        self.flow = flow
        self.config = config
        self.tags: dict[str, set[str]] = {}
        self._seed_params()

    def _seed_params(self) -> None:
        for index, arg in enumerate(self._positional_args()):
            seeds = {f"p{index}"}
            annotation = terminal_name(arg.annotation) if arg.annotation else None
            if annotation == "Point" or _names_a_location(arg.arg):
                seeds.add(_INTRINSIC)
            self.tags[arg.arg] = seeds

    def _positional_args(self) -> list[ast.arg]:
        args = self.record.node.args
        return list(args.posonlyargs) + list(args.args)

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
        if isinstance(node, ast.JoinedStr):
            out: set[str] = set()
            for value in node.values:
                out |= self.expr_tags(value, depth + 1)
            return out
        if isinstance(node, ast.FormattedValue):
            return self.expr_tags(node.value, depth + 1)
        if isinstance(node, ast.BinOp):
            return self.expr_tags(node.left, depth + 1) | self.expr_tags(
                node.right, depth + 1
            )
        if isinstance(node, (ast.UnaryOp,)):
            return self.expr_tags(node.operand, depth + 1)
        if isinstance(node, ast.BoolOp):
            out = set()
            for value in node.values:
                out |= self.expr_tags(value, depth + 1)
            return out
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = set()
            for element in node.elts:
                out |= self.expr_tags(element, depth + 1)
            return out
        if isinstance(node, ast.Dict):
            out = set()
            for value in node.values:
                if value is not None:
                    out |= self.expr_tags(value, depth + 1)
            return out
        if isinstance(node, ast.Subscript):
            return _demote(
                self.expr_tags(node.value, depth + 1)
            ) | self.expr_tags(node.slice, depth + 1)
        if isinstance(node, ast.IfExp):
            return self.expr_tags(node.body, depth + 1) | self.expr_tags(
                node.orelse, depth + 1
            )
        if isinstance(node, ast.Starred):
            return self.expr_tags(node.value, depth + 1)
        if isinstance(node, ast.Await):
            return self.expr_tags(node.value, depth + 1)
        if isinstance(node, ast.NamedExpr):
            return self.expr_tags(node.value, depth + 1)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self.expr_tags(node.elt, depth + 1)
        return set()

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
        for key in self.flow.resolve_call(self.module.name, call):
            summary = self.flow.functions[key]
            if summary.returns_taint:
                out.add(_INTRINSIC)
            elif summary.returns_weak:
                out.add(_WEAK)
            if summary.param_to_return:
                for index, arg_node in self._align_args(summary, call):
                    if index in summary.param_to_return:
                        out |= self.expr_tags(arg_node, depth + 1)
        return out

    def _align_args(
        self, summary: FunctionRecord, call: ast.Call
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

    # -- the fixpoint ---------------------------------------------------
    def run(self) -> None:
        assignments = [
            node
            for node in ast.walk(self.record.node)
            if isinstance(
                node,
                (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.For,
                 ast.AsyncFor, ast.NamedExpr, ast.withitem),
            )
        ]
        for _ in range(len(assignments) + 2):
            changed = False
            for node in assignments:
                changed |= self._apply_assignment(node)
            if not changed:
                break

    def _apply_assignment(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Assign):
            tags = self.expr_tags(node.value)
            return self._bind_targets(node.targets, tags)
        if isinstance(node, ast.AnnAssign):
            if node.value is None:
                return False
            return self._bind_targets([node.target], self.expr_tags(node.value))
        if isinstance(node, ast.AugAssign):
            return self._bind_targets(
                [node.target],
                self.expr_tags(node.value) | self.expr_tags(node.target),
            )
        if isinstance(node, ast.NamedExpr):
            return self._bind_targets([node.target], self.expr_tags(node.value))
        if isinstance(node, (ast.For, ast.AsyncFor)):
            # iterating extracts elements: strong container taint demotes
            return self._bind_targets(
                [node.target], _demote(self.expr_tags(node.iter))
            )
        if isinstance(node, ast.withitem):
            if node.optional_vars is None:
                return False
            return self._bind_targets(
                [node.optional_vars], self.expr_tags(node.context_expr)
            )
        return False

    def _bind_targets(self, targets: list[ast.AST], tags: set[str]) -> bool:
        if not tags:
            return False
        changed = False
        for target in targets:
            # ``a, b = tainted_call()`` is element extraction, same as
            # subscripting: the unpacked names get weak taint only
            effective = (
                tags if isinstance(target, ast.Name) else _demote(tags)
            )
            for name_node in self._target_names(target):
                current = self.tags.setdefault(name_node, set())
                if not effective <= current:
                    current |= effective
                    changed = True
        return changed

    @staticmethod
    def _target_names(target: ast.AST) -> list[str]:
        if isinstance(target, ast.Name):
            return [target.id]
        if isinstance(target, (ast.Tuple, ast.List)):
            names: list[str] = []
            for element in target.elts:
                names += _TaintPass._target_names(element)
            return names
        if isinstance(target, ast.Starred):
            return _TaintPass._target_names(target.value)
        return []  # attribute/subscript targets escape local tracking


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
#: Every name that puts a value on a wire (frames, envelopes, updates).
_WIRE_BUILDERS = frozenset({"pack", "encode_frame", "ShardEnvelope", "encode_update"})
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


def _scan_sinks(
    record: FunctionRecord,
    module: ModuleInfo,
    taint: _TaintPass,
    config: LintConfig,
    emitters: frozenset[str],
) -> None:
    record.sink_hits = []
    record.param_to_sink = {}
    for node in ast.walk(record.node):
        if isinstance(node, ast.Raise) and node.exc is not None:
            if isinstance(node.exc, ast.Call):
                for arg in [
                    *node.exc.args,
                    *(kw.value for kw in node.exc.keywords),
                ]:
                    tags = taint.expr_tags(arg)
                    if tags:
                        _record_hit(
                            record, node, "exception", tags,
                            "interpolates an exact location into the "
                            "exception message",
                        )
        elif isinstance(node, ast.Call):
            kind = _sink_of(node, module, config, emitters)
            if kind is None:
                continue
            candidates = [*node.args, *(kw.value for kw in node.keywords)]
            if kind == "persistence" and isinstance(node.func, ast.Attribute):
                # ndarray.tofile: the value that hits disk is the
                # *receiver*, not an argument.
                candidates.append(node.func.value)
            for arg in candidates:
                tags = taint.expr_tags(arg)
                if tags:
                    detail = {
                        "logging": "passes an exact location to a log call",
                        "telemetry": "passes an exact location into a "
                        "telemetry label/attribute",
                        "wire": "packs an exact location into a frame "
                        "payload outside the sanctioned codec",
                        "persistence": "writes an exact-location array "
                        "to disk via a numpy persistence call",
                    }[kind]
                    _record_hit(record, arg, kind, tags, detail)


def _record_hit(
    record: FunctionRecord,
    node: ast.AST,
    kind: str,
    tags: set[str],
    detail: str,
) -> None:
    record.sink_hits.append(
        SinkHit(node=node, kind=kind, tags=frozenset(tags), detail=detail)
    )
    if _INTRINSIC in tags or _WEAK in tags:
        # reported inside this function; flagging callers too would
        # double-report the same leak
        return
    for tag in tags:
        if tag.startswith("p"):
            try:
                index = int(tag[1:])
            except ValueError:  # pragma: no cover - tags are p<int>
                continue
            record.param_to_sink.setdefault(index, kind)


# ----------------------------------------------------------------------
# Blocking detection
# ----------------------------------------------------------------------
def _scan_blocking(record: FunctionRecord) -> None:
    awaited: set[int] = set()
    for node in ast.walk(record.node):
        if isinstance(node, ast.Await) and isinstance(node.value, ast.Call):
            awaited.add(id(node.value))
    hits: list[tuple[ast.Call, str]] = []
    for node in ast.walk(record.node):
        if not isinstance(node, ast.Call) or id(node) in awaited:
            continue
        dotted = dotted_name(node.func)
        if dotted in BLOCKING_DOTTED_CALLS:
            hits.append((node, f"calls {dotted}()"))
            continue
        if isinstance(node.func, ast.Attribute):
            if node.func.attr in BLOCKING_METHODS and not isinstance(
                node.func.value, ast.Constant
            ):
                hits.append((node, f"calls .{node.func.attr}()"))
    record.direct_blocking = hits
    if hits:
        record.blocking = True
        record.blocking_reason = hits[0][1]


# ----------------------------------------------------------------------
# Project driver
# ----------------------------------------------------------------------
def analyze_project(project: Project, config: LintConfig) -> ProjectDataflow:
    """Full dataflow pass over a project, run once per project state."""
    return project.fact("dataflow", config, _analyze)


def _analyze(project: Project, config: LintConfig) -> ProjectDataflow:
    flow = ProjectDataflow()
    _collect_functions(project, flow)

    # direct blocking facts never change across rounds
    for record in flow.functions.values():
        _scan_blocking(record)

    emitters = {
        module.name: runtime_emitters(module.tree)
        for module in project.iter_modules()
    }
    # global fixpoint: taint summaries + transitive blocking
    for _ in range(_SUMMARY_ROUNDS):
        changed = False
        for record in flow.functions.values():
            module = project.get(record.module)
            if module is None:  # pragma: no cover - records come from modules
                continue
            previous = (
                record.returns_taint,
                record.returns_weak,
                frozenset(record.param_to_return),
                tuple(sorted(record.param_to_sink.items())),
            )
            taint = _TaintPass(record, module, flow, config)
            taint.run()
            returns_taint = False
            returns_weak = False
            param_to_return: set[int] = set()
            for node in ast.walk(record.node):
                if isinstance(node, ast.Return) and node.value is not None:
                    tags = taint.expr_tags(node.value)
                    if _INTRINSIC in tags:
                        returns_taint = True
                    if _WEAK in tags:
                        returns_weak = True
                    for tag in tags:
                        if tag.startswith("p"):
                            param_to_return.add(int(tag[1:]))
            record.returns_taint = returns_taint
            record.returns_weak = returns_weak
            record.param_to_return = param_to_return
            _scan_sinks(record, module, taint, config, emitters[module.name])
            # transitive: passing our parameter into a callee's sink
            # parameter makes it a sink parameter of ours too
            for node in ast.walk(record.node):
                if not isinstance(node, ast.Call):
                    continue
                for key in flow.resolve_call(record.module, node):
                    callee = flow.functions[key]
                    if not callee.param_to_sink:
                        continue
                    for index, arg_node in taint._align_args(callee, node):
                        if index not in callee.param_to_sink:
                            continue
                        tags = taint.expr_tags(arg_node)
                        if _INTRINSIC in tags:
                            continue  # reported at the call site instead
                        for tag in tags:
                            if tag.startswith("p"):
                                record.param_to_sink.setdefault(
                                    int(tag[1:]),
                                    callee.param_to_sink[index],
                                )
            current = (
                record.returns_taint,
                record.returns_weak,
                frozenset(record.param_to_return),
                tuple(sorted(record.param_to_sink.items())),
            )
            if current != previous:
                changed = True
        # transitive blocking over the call graph (typed resolution:
        # union-by-name would mark every ``x.close()`` blocking)
        for record in flow.functions.values():
            if record.blocking:
                continue
            for node in ast.walk(record.node):
                if not isinstance(node, ast.Call):
                    continue
                for key in resolve_method_call(flow, record, node):
                    callee = flow.functions[key]
                    if callee.blocking:
                        record.blocking = True
                        record.blocking_reason = (
                            f"calls {callee.qualname}() which "
                            f"{callee.blocking_reason or 'blocks'}"
                        )
                        changed = True
                        break
                if record.blocking:
                    break
        if not changed:
            break

    return flow
