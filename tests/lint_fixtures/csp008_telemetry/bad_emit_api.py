# module: app.processor.bad_emit_api
"""Violates CSP008 through the emit API every real site uses — three
findings on the two ``count`` lines (both coordinate reads of the
first, the one of the second); a list's ``count`` is not a sink."""
from repro.observability import runtime as _telemetry


def leak_labels(point, visited):
    _telemetry.count("casper_server_requests_total", f"{point.x},{point.y}")
    _telemetry.count("casper_cloak_cache_events_total", "hit", str(point.x))
    return visited.count(point)
