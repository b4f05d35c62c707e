"""Asyncio socket front door for the shard wire protocol.

The process pool speaks frames over multiprocessing pipes; this module
serves the *same* frames over a TCP socket, making the transport
pluggable: a remote client (or another anonymizer runtime) can drive a
local anonymizer with exactly the byte format, CRC discipline and
stop-and-wait semantics the workers use — one
:class:`~repro.sharding.wire.FrameDecoder` per connection reassembles
frames out of arbitrary TCP segmentation, and each connection is one
:class:`~repro.sharding.workers.FrameEndpoint`, the same server role a
worker runs over its pipe (a repeated sequence number replays the
cached reply instead of re-applying the batch).

The front door serves the **data plane only** (see the op table,
:data:`repro.sharding.wire.OPS`).  The anonymizer is the trusted third
party that alone holds every exact location, so the control plane —
serialized snapshot/install/stats blobs, invariant sweeps, chaos hangs,
shutdown — stays between a parent and the workers it spawned: a TCP
peer that sends a control opcode gets an ``RE_ERROR`` envelope, and
nothing is decoded, deserialized or slept on.  (User ids are not
authenticated; that is outside this model.)

All connections share one backing anonymizer.  The event loop
serializes request handling (operations apply between awaits, never
concurrently), so the single-threaded anonymizers need no locking.
A stream that desynchronizes — bad magic, corrupt CRC — is answered
with one ``NACK`` frame and the connection is closed: ordered stream
transports recover by reconnecting, not by hunting for a resync point.
"""

from __future__ import annotations

import asyncio

from repro.sharding.wire import KIND_NACK, FrameDecoder, WireError, encode_frame
from repro.sharding.workers import FrameEndpoint

__all__ = ["ShardFrontDoor"]


class ShardFrontDoor:
    """Serve an anonymizer's shard operations on a TCP socket.

    Parameters
    ----------
    anonymizer:
        Any sharded (or parallel) anonymizer exposing the standard
        interface; it is shared by every connection.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`address` after :meth:`start`).
    """

    def __init__(
        self, anonymizer, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self._anonymizer = anonymizer
        self._host = host
        self._port = port
        self._server: asyncio.AbstractServer | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("front door is not serving")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self._host, self._port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "ShardFrontDoor":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        decoder = FrameDecoder()
        endpoint = FrameEndpoint(self._anonymizer)
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    return
                try:
                    frames = decoder.feed(data)
                except WireError:
                    writer.write(encode_frame(KIND_NACK, 0, []))
                    await writer.drain()
                    return
                for frame in frames:
                    reply = endpoint.step(frame)
                    if reply is not None:
                        writer.write(reply)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
