#!/usr/bin/env python
"""casperlint runner that works without an installed package.

Equivalent to ``PYTHONPATH=src python -m repro lint``; see
``docs/static-analysis.md`` for the rule catalogue.

Usage::

    python tools/lint.py [paths...] [--format json] [--select CODES]
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
