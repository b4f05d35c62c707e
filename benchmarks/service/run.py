#!/usr/bin/env python3
"""The command ``BENCHMARK.json`` names.

Runs from the root of any checkout without ``PYTHONPATH``: it puts the
checkout's ``src/`` (the program under test) and root (this package) on
``sys.path`` itself, in place of the script directory, so no benchmark
module can shadow a standard-library one.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit("benchmarks/service measures src/repro of its own checkout; there is none")
sys.path[0] = str(ROOT / "src")
sys.path.insert(1, str(ROOT))

from benchmarks.service.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
