"""``PYTHONPATH=src python -m benchmarks.service`` entry point."""

import sys

from benchmarks.service.cli import main

if __name__ == "__main__":
    sys.exit(main())
