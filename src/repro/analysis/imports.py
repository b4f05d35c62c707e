"""Import extraction and resolution shared by the module-graph rules.

Turns the ``import``/``from ... import`` statements of a parsed module
into :class:`ImportEdge` records with *absolute dotted targets*, which
is what CSP001's taint tracking consumes.  Relative imports are
resolved against the importing module's package so ``from . import
cells`` inside ``repro.anonymizer.basic`` yields the target
``repro.anonymizer.cells``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.core import ModuleInfo, Project

__all__ = ["ImportEdge", "iter_import_edges"]


@dataclass(frozen=True, slots=True)
class ImportEdge:
    """One imported target from one statement.

    ``target`` is the absolute dotted module/package the edge points at.
    ``names`` is non-empty only for ``from target import a, b`` forms
    where the names are *values* (functions/classes) rather than
    submodules; a name that resolves to a project submodule is emitted
    as its own edge with the submodule as ``target`` instead.
    """

    node: ast.Import | ast.ImportFrom
    target: str
    names: tuple[str, ...] = ()

    @property
    def is_star(self) -> bool:
        return self.names == ("*",)


def _resolve_relative(module: ModuleInfo, level: int, base: str | None) -> str | None:
    """Absolute dotted base for a level-N relative import, or None.

    For module ``repro.anonymizer.basic`` level 1 is ``repro.anonymizer``;
    for the *package* ``repro.anonymizer`` (its ``__init__``) level 1 is
    the package itself, so packages keep one extra trailing component.
    """
    parts = module.name.split(".")
    is_package = module.path.endswith("__init__.py")
    drop = level - 1 if is_package else level
    if drop > len(parts):
        return None
    base_parts = parts[: len(parts) - drop] if drop else parts
    if base:
        base_parts = base_parts + base.split(".")
    return ".".join(base_parts) if base_parts else None


def iter_import_edges(module: ModuleInfo, project: Project) -> list[ImportEdge]:
    """Every import edge of ``module``, absolute and submodule-resolved."""
    edges: list[ImportEdge] = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                edges.append(ImportEdge(node=node, target=alias.name))
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _resolve_relative(module, node.level, node.module)
            else:
                base = node.module
            if base is None:
                continue
            value_names: list[str] = []
            for alias in node.names:
                candidate = f"{base}.{alias.name}"
                if alias.name != "*" and candidate in project.modules:
                    # ``from pkg import submodule`` — a module edge.
                    edges.append(ImportEdge(node=node, target=candidate))
                else:
                    value_names.append(alias.name)
            if value_names:
                edges.append(
                    ImportEdge(
                        node=node, target=base, names=tuple(value_names)
                    )
                )
    return edges
