# module: app.anonymizer.leaky_emit
"""CSP009 through the emit API: a value derived from a coordinate, under
a name CSP008's syntactic screen cannot see through, becomes a label."""
from repro.observability.runtime import observe


def observe_position(uid):
    where = f"{locate(uid).x:.3f}"
    observe("casper_candidate_list_size", 1.0, where)  # telemetry sink
