# module: app.anonymizer.recursive
"""CSP009 through call cycles.

``retry`` calls itself and ``ping``/``pong`` call each other; each
raises a message that turns tainted only once ``where``, defined after
them, is summarized.  Those two raises are the findings in the cycles:
the parameters carried round a cycle reach no sink, so the tainted
arguments handed to the cycles are not findings.  ``countdown`` is a
cycle whose parameter does reach a log call, so the argument handed to
it is one.  Three findings.
"""


def retry(label):
    retry(label)
    raise ValueError(f"{label} at {where()}")  # finding


def ping(label):
    pong(label)
    raise ValueError(f"{label} at {where()}")  # finding


def pong(label):
    ping(label)


def countdown(label, n):
    if n:
        return countdown(label, n - 1)
    logger.info(label)


def where():
    return Point(1.0, 2.0)


def callers(point):
    retry(str(point))
    pong(str(point))
    countdown(str(point), 3)  # call-site finding
