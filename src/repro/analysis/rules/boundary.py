"""CSP011 — raw serialization stays behind the wire codec.

The parent↔worker seam moves bytes, and the only sanctioned shapes on
that seam are :class:`repro.messages.ShardEnvelope` frames built by the
wire codec (``sharding/wire.py``).  Raw pickle is how anonymizer
internals would sneak across unframed and un-CRC'd, so:

* **outside** the configured ``pickle_boundary_modules``, importing
  ``pickle``/``marshal``/``dill``/``shelve`` at all is a finding —
  state crosses processes as wire blobs, never as ad-hoc pickles;
* **inside** a boundary module (the worker runtime), every
  ``pickle.dumps`` must flow into a sanctioned blob carrier
  (``response_blob``/``op_install`` — the opaque-blob operations whose
  bytes ride inside CRC'd frames), and every ``pickle.loads`` argument
  must derive from a CRC-verified source: a decoded operation field
  (``op[...]`` from ``decode_op``/``decode_response``) or a flushed
  reply (``flush()`` results).  A loads/dumps that cannot
  be traced to those shapes is flagged;
* **everywhere**, calling ``.send()``/``.recv()`` on a
  pipe/connection/socket-named receiver is flagged: those channels
  pickle implicitly — the framed ``send_bytes`` path is the only
  sanctioned transport.

The derivation check walks the function's assignment map a few levels
deep (``blob = self.flush()[s][-1]; pickle.loads(blob)`` is
sanctioned), which matches how the worker runtime is actually written.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.analysis.config import LintConfig
from repro.analysis.core import ModuleInfo, Project, RawFinding, Rule, register_rule
from repro.analysis.dataflow import dotted_name, terminal_name

__all__ = ["ProcessBoundaryRule"]

_RAW_SERIALIZERS = ("pickle", "marshal", "dill", "shelve")

#: Calls whose argument is the sanctioned destination of a dumps blob.
_BLOB_CARRIERS = frozenset({"response_blob", "op_install"})

#: Call names whose results are CRC-verified before they reach loads.
_VERIFIED_SOURCES = frozenset(
    {"decode_op", "decode_response", "decode_frame", "flush"}
)

#: Receiver-name fragments that mark an implicit-pickle channel.
_CHANNEL_FRAGMENTS = ("conn", "pipe", "sock")


def _is_pickle_call(node: ast.Call, attr: str) -> bool:
    dotted = dotted_name(node.func)
    return dotted is not None and dotted in {
        f"{mod}.{attr}" for mod in _RAW_SERIALIZERS
    }


def _assignment_map(func: ast.AST) -> dict[str, ast.expr]:
    """Last-writer-wins map of local name -> assigned expression."""
    amap: dict[str, ast.expr] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for name in _target_names(target):
                    amap[name] = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            for name in _target_names(node.target):
                amap[name] = node.value
    return amap


def _target_names(target: ast.AST) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: list[str] = []
        for element in target.elts:
            names += _target_names(element)
        return names
    return []


def _derives_from_verified(
    expr: ast.AST, amap: dict[str, ast.expr], depth: int = 0
) -> bool:
    """Does ``expr`` trace back to a CRC-verified wire source?"""
    if depth > 4:
        return False
    if isinstance(expr, ast.Subscript):
        return _derives_from_verified(expr.value, amap, depth + 1)
    if isinstance(expr, ast.Call):
        return terminal_name(expr.func) in _VERIFIED_SOURCES
    if isinstance(expr, ast.Name):
        assigned = amap.get(expr.id)
        if assigned is None:
            return False
        return _derives_from_verified(assigned, amap, depth + 1)
    return False


def _dumps_reaches_carrier(
    dumps: ast.Call, func: ast.AST, amap: dict[str, ast.expr]
) -> bool:
    """Is the dumps result handed to a blob carrier (maybe via a name)?"""
    carriers = [
        node
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and terminal_name(node.func) in _BLOB_CARRIERS
    ]
    for carrier in carriers:
        for arg in carrier.args:
            if arg is dumps:
                return True
            if isinstance(arg, ast.Name) and amap.get(arg.id) is dumps:
                return True
    return False


@register_rule
class ProcessBoundaryRule(Rule):
    code = "CSP011"
    name = "process-boundary"
    description = (
        "only wire-codec blobs cross the parent<->worker seam: no raw "
        "pickle outside the boundary modules, and inside them every "
        "dumps/loads must ride a CRC-verified carrier"
    )
    default_severity = "error"

    def check(
        self, module: ModuleInfo, project: Project, config: LintConfig
    ) -> Iterable[RawFinding]:
        inside = module.in_package(config.pickle_boundary_modules)
        if not inside:
            yield from self._check_imports(module)
        yield from self._check_channels(module)
        if inside:
            yield from self._check_pickle_flow(module)

    def _check_imports(self, module: ModuleInfo) -> Iterator[RawFinding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                root = name.split(".")[0]
                if root in _RAW_SERIALIZERS:
                    yield RawFinding.at(
                        node,
                        f"imports {root!r} outside the pickle boundary "
                        "(pickle_boundary_modules): state crosses the "
                        "process seam as wire blobs, never raw pickles",
                    )

    def _check_channels(self, module: ModuleInfo) -> Iterator[RawFinding]:
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("send", "recv")
                and node.args is not None
            ):
                continue
            receiver = terminal_name(node.func.value)
            if receiver is None:
                continue
            lowered = receiver.lower()
            if any(frag in lowered for frag in _CHANNEL_FRAGMENTS):
                yield RawFinding.at(
                    node,
                    f"calls {receiver}.{node.func.attr}() — an "
                    "implicit-pickle channel; the seam speaks framed "
                    "bytes only (send_bytes of encoded frames)",
                )

    def _check_pickle_flow(self, module: ModuleInfo) -> Iterator[RawFinding]:
        functions = [
            node
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for func in functions:
            amap = _assignment_map(func)
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                if _is_pickle_call(node, "dumps"):
                    if not _dumps_reaches_carrier(node, func, amap):
                        yield RawFinding.at(
                            node,
                            "pickle.dumps result does not flow into a "
                            "sanctioned blob carrier "
                            "(response_blob/op_install); raw pickles "
                            "must ride inside CRC'd frames",
                        )
                elif _is_pickle_call(node, "loads"):
                    if not node.args or not _derives_from_verified(
                        node.args[0], amap
                    ):
                        yield RawFinding.at(
                            node,
                            "pickle.loads argument does not derive from "
                            "a CRC-verified wire source (decoded op "
                            "field or flushed reply) — "
                            "never unpickle unverified bytes",
                        )
