"""End-to-end service benchmark for the Casper pipeline.

Four named workloads price every hop of the pipeline from outside the
program (see ``README.md``): ``query_static``,
``update_frontdoor_workers``, ``commuter_service`` and
``anonymizer_tick``.  ``BENCHMARK.json`` at the repository root is the
contract; ``run.py`` is the one command it names.
"""
