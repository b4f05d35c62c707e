# module: app.anonymizer.deep
"""CSP009: a coordinate handed down a chain of five helpers.

One finding, at the call that hands the tainted string to the chain.
The helpers are written caller-first, so each summary is complete only
after its callee's: a summary pass capped at a few rounds misses it.
"""


def leak():
    p = Point(1.0, 2.0)
    first(str(p))  # call-site finding


def first(label):
    second(label)


def second(label):
    third(label)


def third(label):
    fourth(label)


def fourth(label):
    fifth(label)


def fifth(label):
    raise ValueError(f"cannot place {label}")
