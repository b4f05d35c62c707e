# module: svc.deep
"""CSP010: an event loop blocked six sync helpers down.

One finding, at the coroutine's call into the chain.  The helpers are
written caller-first, so each summary is complete only after its
callee's: a summary pass capped at a few rounds misses it.
"""


async def serve(conn):
    return step1(conn)  # transitively blocking


def step1(conn):
    return step2(conn)


def step2(conn):
    return step3(conn)


def step3(conn):
    return step4(conn)


def step4(conn):
    return step5(conn)


def step5(conn):
    return step6(conn)


def step6(conn):
    return conn.recv_bytes()  # blocking, but fine in a sync def
