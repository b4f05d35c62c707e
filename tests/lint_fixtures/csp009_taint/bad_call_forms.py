# module: app.anonymizer.forms
"""CSP009: call forms the summaries must align with the callee.

Two findings: a tainted keyword argument bound to a sink parameter by
its name, and a tainted argument to a helper called through a module
alias (``import app.sinks as sinks``).
"""
import app.sinks as sinks


def describe(uid, label=""):
    raise ValueError(f"user {uid}: {label}")


def keyword_leak():
    p = Point(3.0, 4.0)
    describe(7, label=str(p))  # keyword aligned to the sink parameter


def alias_leak():
    p = Point(3.0, 4.0)
    sinks.reject(str(p))  # module-alias call
