# module: svc.calm
"""CSP010 clean fixture: awaited primitives and benign method calls."""
import asyncio


class Channel:
    def __init__(self, conn):
        self._conn = conn

    def close(self):
        self._conn.recv_bytes()  # drains the peer: blocking, fine in a sync def


async def tick():
    await asyncio.sleep(0.5)  # awaited: the fix, not the bug


async def shutdown(server):
    # ``close`` on an undeterminable receiver must not be blamed for
    # ``Channel``'s blocking close()
    server.close()
    await server.wait_closed()
