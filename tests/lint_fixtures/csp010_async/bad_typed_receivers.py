# module: svc.typed
"""CSP010: blocking methods reached through receivers whose class resolves.

Three findings, one per way a receiver's class is determined: an
annotated parameter, a local assigned from a project constructor, and
the result of a call whose callee declares its return class.
"""


class Pipe:
    def __init__(self, conn):
        self._conn = conn

    def read(self):
        return self._conn.recv_bytes()  # blocking, but fine in a sync def


def open_pipe(conn) -> Pipe:
    return Pipe(conn)


async def annotated(pipe: Pipe):
    return pipe.read()


async def constructed(conn):
    pipe = Pipe(conn)
    return pipe.read()


async def returned(conn):
    return open_pipe(conn).read()
