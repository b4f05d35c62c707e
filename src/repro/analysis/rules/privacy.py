"""CSP001 — the privacy boundary of the Casper architecture.

The paper's system model (Figure 1, Sections 3-4) rests on one
architectural invariant: exact user locations exist only on the trusted
side (mobile users + location anonymizer); the location-based database
server and its privacy-aware query processor ever see only
``(k, A_min)``-cloaked regions and public target data.  This rule makes
that invariant mechanical:

* modules under an **untrusted** package (``repro.processor``,
  ``repro.server``) may not import a **tainted** package (anonymizer
  internals, workload/mobility/simulation generators — everything that
  holds exact locations), neither directly nor transitively through
  helper modules;
* the sanctioned channel is a *name-level allowlist*
  (``safe_imports``): ``from repro.anonymizer import CloakedRegion``
  is how a cloak crosses the boundary, and it is the only way.

A justified inline pragma (``# casperlint: ignore[CSP001] reason``)
cuts the taint edge for the whole module graph — that is how the
``Casper`` facade, which deliberately wires *both* sides together,
declares its role.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.analysis.config import LintConfig
from repro.analysis.core import ModuleInfo, Project, RawFinding, Rule, register_rule
from repro.analysis.imports import ImportEdge, iter_import_edges

__all__ = ["PrivacyBoundaryRule"]


def _package_of(target: str, prefixes: tuple[str, ...]) -> str | None:
    """The first prefix that contains ``target``, or None."""
    for prefix in prefixes:
        if target == prefix or target.startswith(prefix + "."):
            return prefix
    return None


def _edge_is_safe(edge: ImportEdge, config: LintConfig) -> bool:
    """True when the edge moves only allowlisted names across the boundary."""
    safe = config.safe_imports.get(edge.target)
    if safe is None or not edge.names or edge.is_star:
        return False
    return all(name in safe for name in edge.names)


@register_rule
class PrivacyBoundaryRule(Rule):
    code = "CSP001"
    name = "privacy-boundary"
    description = (
        "server/processor modules must not reach exact-location code "
        "(anonymizer internals, workload generators) except through the "
        "CloakedRegion/PrivacyProfile allowlist"
    )
    default_severity = "error"

    def check(
        self, module: ModuleInfo, project: Project, config: LintConfig
    ) -> Iterable[RawFinding]:
        if not module.in_package(config.untrusted_packages):
            return
        graph = project.fact("csp001-graph", config, _taint_graph)
        reported: set[str] = set()
        for edge in iter_import_edges(module, project):
            tainted_pkg = _package_of(edge.target, config.tainted_packages)
            if tainted_pkg is not None:
                if _edge_is_safe(edge, config):
                    continue
                detail = (
                    f" (only {sorted(config.safe_imports[edge.target])} may "
                    f"cross the privacy boundary)"
                    if edge.target in config.safe_imports
                    else ""
                )
                what = (
                    f"names {list(edge.names)} from '{edge.target}'"
                    if edge.names
                    else f"'{edge.target}'"
                )
                yield RawFinding.at(
                    edge.node,
                    f"untrusted module '{module.name}' imports {what}: "
                    f"'{tainted_pkg}' holds exact user locations and must "
                    f"stay behind the anonymizer{detail}",
                )
                reported.add(edge.target)
                continue
            # Transitive taint: an import of a *trusted helper* module
            # that itself (transitively) reaches a tainted package.
            if edge.target in reported:
                continue
            chain = _tainted_chain(edge.target, project, config, graph)
            if chain is not None:
                path = " -> ".join([module.name, *chain])
                yield RawFinding.at(
                    edge.node,
                    f"untrusted module '{module.name}' reaches exact-location "
                    f"code transitively: {path}",
                )
                reported.add(edge.target)


def _taint_graph(
    project: Project, config: LintConfig
) -> dict[str, tuple[str, ...]]:
    """Project-internal import edges that can carry taint.

    Edges that are pragma-suppressed for CSP001 or that move only
    allowlisted names are excluded — a justified suppression on the
    importing statement severs the path for every downstream module.
    """
    graph: dict[str, tuple[str, ...]] = {}
    for info in project.iter_modules():
        targets: list[str] = []
        for edge in iter_import_edges(info, project):
            if edge.target not in project.modules:
                continue
            if _edge_is_safe(edge, config):
                continue
            if info.is_suppressed(
                "CSP001",
                edge.node.lineno,
                getattr(edge.node, "end_lineno", None),
            ):
                continue
            targets.append(edge.target)
        graph[info.name] = tuple(dict.fromkeys(targets))
    return graph


def _tainted_chain(
    start: str,
    project: Project,
    config: LintConfig,
    graph: dict[str, tuple[str, ...]],
) -> list[str] | None:
    """Shortest import chain from ``start`` into a tainted package.

    Returns the chain (including ``start`` and the tainted endpoint) or
    None.  Hops through *untrusted* modules are not explored: a tainted
    path that runs through another server/processor module is that
    module's own direct violation and is reported there.
    """
    if start not in project.modules:
        return None
    if _package_of(start, config.untrusted_packages):
        return None
    parents: dict[str, str | None] = {start: None}
    queue = [start]
    while queue:
        current = queue.pop(0)
        for nxt in graph.get(current, ()):
            if nxt in parents:
                continue
            parents[nxt] = current
            if _package_of(nxt, config.tainted_packages):
                chain = [nxt]
                node: str | None = current
                while node is not None:
                    chain.append(node)
                    node = parents[node]
                return list(reversed(chain))
            if _package_of(nxt, config.untrusted_packages):
                continue
            queue.append(nxt)
    return None
