# module: app.sinks
"""Support module for the CSP009 fixtures: a helper reached through a
module alias, whose parameter flows into an exception message."""


def reject(label):
    raise ValueError(f"rejected {label}")
