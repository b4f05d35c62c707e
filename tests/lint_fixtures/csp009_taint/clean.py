# module: app.anonymizer.tidy
"""CSP009 clean fixture: coordinates are used, never leaked.

Building a cloaked region from coordinates declassifies (the region is
the sanctioned product); untainted values may reach any sink.
"""
import logging

import numpy as np

logger = logging.getLogger("tidy")


def cloak(point):
    # a non-Point constructor consumes the coordinates: declassified
    return Rect(point.x - 1.0, point.y - 1.0, point.x + 1.0, point.y + 1.0)


def complain(uid):
    raise KeyError(f"unknown user {uid!r}")  # uid is not a coordinate


def decode_op(payload):
    return ("move", Point(payload[1], payload[2]), payload[0])


def route(payload):
    op = decode_op(payload)
    # ``op[2]`` is an element of a tainted tuple (a user id): weak taint
    # stays out of the call, though ``complain`` sinks its parameter
    complain(op[2])


def log_count(count):
    logger.info(f"cloaked {count} users")


def dump_histogram(counts):
    # persisting *aggregates* is fine: per-cell counts carry no exact
    # coordinates, so the array is untainted
    np.save("histogram.npy", counts)
