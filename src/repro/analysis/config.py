"""casperlint configuration.

Defaults encode this repository's architecture; everything is
overridable from ``[tool.casperlint]`` in ``pyproject.toml`` and (for
severities and rule selection) from the command line.  The zone model:

``untrusted_packages``
    Modules on the *server side* of the paper's Figure 1 boundary.
    They receive only cloaked regions, so CSP001 forbids them any
    import path that reaches exact user locations.

``tainted_packages``
    Packages whose modules hold or generate exact user locations
    (trusted-side code and workload/mobility generators).

``safe_imports``
    Name-level exceptions: values that are safe to move across the
    boundary (the cloaked-region record itself, the public privacy
    profile).  ``from repro.anonymizer import CloakedRegion`` is the
    sanctioned channel of the whole architecture.

``deterministic_packages``
    Modules whose output must be byte-identical across runs; CSP002
    forbids wall-clock and unseeded/global randomness there.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

__all__ = ["LintConfig", "DEFAULT_SCAN_PATHS"]

DEFAULT_SCAN_PATHS: tuple[str, ...] = ("src/repro", "tools")


def _default_safe_imports() -> dict[str, frozenset[str]]:
    return {
        "repro.anonymizer": frozenset(
            {"CloakedRegion", "PrivacyProfile", "AnonymizerStats", "TelemetryExport"}
        ),
    }


def _default_severities() -> dict[str, str]:
    return {}


@dataclass(frozen=True)
class LintConfig:
    """Immutable configuration for one lint run."""

    # rule selection / severity -----------------------------------------
    select: frozenset[str] | None = None  # None = every registered rule
    severities: dict[str, str] = field(default_factory=_default_severities)

    # CSP001 privacy boundary -------------------------------------------
    untrusted_packages: tuple[str, ...] = ("repro.processor", "repro.server")
    tainted_packages: tuple[str, ...] = (
        "repro.anonymizer",
        "repro.workloads",
        "repro.mobility",
    )
    safe_imports: dict[str, frozenset[str]] = field(
        default_factory=_default_safe_imports
    )

    # CSP002 determinism ------------------------------------------------
    deterministic_packages: tuple[str, ...] = (
        "repro.evaluation",
        "repro.mobility",
        "repro.workloads",
        "tools",
    )
    rng_module: str = "repro.utils.rng"

    # CSP009 coordinate taint -------------------------------------------
    # Modules allowed to build frame payloads from exact coordinates:
    # the wire codec itself and the message/record codecs it rides on.
    codec_modules: tuple[str, ...] = (
        "repro.sharding.wire",
        "repro.messages",
        "repro.server.codec",
    )

    # CSP011 process boundary -------------------------------------------
    # Modules allowed to touch raw pickle at all; inside them, every
    # dumps must flow into a wire-blob carrier and every loads must
    # derive from a CRC-verified source.
    pickle_boundary_modules: tuple[str, ...] = ("repro.sharding.workers",)

    # CSP014 policy encapsulation ---------------------------------------
    # Packages holding CloakingPolicy implementations; inside them, the
    # only sanctioned route to pyramid state is the PyramidEngine /
    # maintenance-mixin API — never another object's underscore
    # attributes.
    policy_modules: tuple[str, ...] = ("repro.anonymizer.policies",)

    # I/O ---------------------------------------------------------------
    scan_paths: tuple[str, ...] = DEFAULT_SCAN_PATHS

    def severity_of(self, code: str, default: str = "error") -> str:
        return self.severities.get(code, default)

    # -- pyproject loading ----------------------------------------------
    @classmethod
    def from_pyproject(cls, root: Path) -> "LintConfig":
        """Defaults merged with ``[tool.casperlint]`` if present."""
        config = cls()
        pyproject = Path(root) / "pyproject.toml"
        if not pyproject.is_file():
            return config
        try:
            import tomllib
        except ModuleNotFoundError:  # pragma: no cover - py<3.11 fallback
            return config
        try:
            data = tomllib.loads(pyproject.read_text())
        except (OSError, tomllib.TOMLDecodeError):  # pragma: no cover
            return config
        table = data.get("tool", {}).get("casperlint", {})
        if not isinstance(table, dict):
            return config
        return config.merged(table)

    def merged(self, table: dict[str, Any]) -> "LintConfig":
        """A copy overridden by a ``[tool.casperlint]``-shaped mapping."""
        updates: dict[str, Any] = {}
        if "select" in table:
            updates["select"] = frozenset(str(c) for c in table["select"])
        if "severity" in table and isinstance(table["severity"], dict):
            merged = dict(self.severities)
            merged.update(
                {str(k): str(v) for k, v in table["severity"].items()}
            )
            updates["severities"] = merged
        for key in (
            "untrusted_packages",
            "tainted_packages",
            "deterministic_packages",
            "scan_paths",
            "codec_modules",
            "pickle_boundary_modules",
            "policy_modules",
        ):
            if key in table:
                updates[key] = tuple(str(v) for v in table[key])
        if "safe_imports" in table and isinstance(table["safe_imports"], dict):
            updates["safe_imports"] = {
                str(pkg): frozenset(str(n) for n in names)
                for pkg, names in table["safe_imports"].items()
            }
        if "rng_module" in table:
            updates["rng_module"] = str(table["rng_module"])
        return replace(self, **updates)
