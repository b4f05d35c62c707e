"""The ``python -m repro lint`` command.

Exit codes:

* ``0`` — no error findings (warnings never fail the run unless
  ``--strict``);
* ``1`` — at least one error finding;
* ``2`` — usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.config import LintConfig
from repro.analysis.core import RULE_REGISTRY, Project, run_lint
from repro.analysis.reporters import render_json, render_sarif, render_text

__all__ = ["add_lint_arguments", "run_from_args", "main"]


def default_root() -> Path:
    """The repository root, inferred from the installed package location.

    ``src/repro/analysis/cli.py`` -> parents[3] is the directory holding
    ``src/`` — the project root when running from a checkout.  Falls
    back to the current directory when the layout does not match (e.g.
    an installed wheel).
    """
    candidate = Path(__file__).resolve().parents[3]
    if (candidate / "src" / "repro").is_dir():
        return candidate
    return Path.cwd()


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        help="paths to scan, relative to --root "
        "(default: src/repro and tools)",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="project root (default: auto-detected from the checkout)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--sarif",
        default=None,
        metavar="PATH",
        help="additionally write a SARIF 2.1.0 report to PATH "
        "(for code-scanning upload), independent of --format",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--severity",
        action="append",
        default=[],
        metavar="CODE=LEVEL",
        help="override a rule's severity, e.g. --severity CSP004=warning",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as failures too",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule and exit",
    )


def _list_rules() -> int:
    from repro.analysis.rules import load_builtin_rules

    load_builtin_rules()
    for code in sorted(RULE_REGISTRY):
        rule = RULE_REGISTRY[code]
        print(f"{code}  {rule.name:<22} [{rule.default_severity}]  "
              f"{rule.description}")
    return 0


def run_from_args(args: argparse.Namespace) -> int:
    if args.list_rules:
        return _list_rules()

    root = Path(args.root).resolve() if args.root else default_root()
    config = LintConfig.from_pyproject(root)

    if args.select:
        codes = frozenset(c.strip() for c in args.select.split(",") if c.strip())
        config = config.merged({"select": codes})
    overrides = {}
    for spec in args.severity:
        code, sep, level = spec.partition("=")
        if not sep or level not in ("error", "warning"):
            print(
                f"bad --severity {spec!r}; expected CODE=error|warning",
                file=sys.stderr,
            )
            return 2
        overrides[code.strip()] = level
    if overrides:
        config = config.merged({"severity": overrides})

    scan_paths = tuple(args.paths) or config.scan_paths
    try:
        project = Project.load(root, scan_paths)
    except OSError as exc:
        print(f"cannot scan {scan_paths}: {exc}", file=sys.stderr)
        return 2
    result = run_lint(project, config)

    renderers = {
        "text": render_text,
        "json": render_json,
        "sarif": render_sarif,
    }
    print(renderers[args.format](result))
    if args.sarif:
        sarif_path = Path(args.sarif)
        if not sarif_path.is_absolute():
            sarif_path = root / sarif_path
        sarif_path.write_text(render_sarif(result) + "\n")
        print(f"wrote SARIF report to {sarif_path}", file=sys.stderr)

    failing = result.findings if args.strict else result.errors
    return 1 if failing else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="casperlint: privacy- and determinism-invariant "
        "static analysis for the Casper reproduction",
    )
    add_lint_arguments(parser)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
