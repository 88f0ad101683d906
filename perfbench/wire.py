"""The benchmark's own JSON-lines client for the serving protocol.

Deliberately independent of ``repro.serve.client``/``loadgen``: a change
to those modules must not move the yardstick. One :class:`Conn` per TCP
connection multiplexes requests by ``id``; :func:`closed_loop` keeps a
fixed number of requests in flight and sends the next one only when a
reply has come back.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from typing import Any, Awaitable, Callable

#: the service's protocol line cap, so large replies still fit.
LINE_LIMIT = 16 * 1024 * 1024 + 1024


def encode(message: dict) -> bytes:
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


class Conn:
    """One multiplexed connection; replies are matched on ``id``."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.reader, self.writer = reader, writer
        self._ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._pump = asyncio.ensure_future(self._read_replies())

    @classmethod
    async def open(cls, port: int) -> "Conn":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=LINE_LIMIT)
        return cls(reader, writer)

    async def _read_replies(self) -> None:
        try:
            while line := await self.reader.readline():
                t = time.perf_counter()
                reply = json.loads(line)
                fut = self._pending.pop(reply.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result((reply, t))
        finally:
            for fut in self._pending.values():
                if not fut.done():
                    fut.set_exception(ConnectionError("connection closed"))

    async def call(self, message: dict) -> tuple[dict, float, float]:
        """``(reply, t_sent, t_received)`` for one request."""
        rid = next(self._ids)
        fut = asyncio.get_running_loop().create_future()
        self._pending[rid] = fut
        t0 = time.perf_counter()
        self.writer.write(encode({**message, "id": rid}))
        reply, t1 = await fut
        return reply, t0, t1

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        await asyncio.gather(self._pump, return_exceptions=True)


async def closed_loop(conns: list[Conn], depth: int, count: int,
                      issue: Callable[[Conn, int], Awaitable[Any]]) -> None:
    """Run ``issue(conn, k)`` for ``k = 0 .. count - 1`` with exactly
    *depth* calls in flight (spread round-robin over *conns*) until the
    ops run out. Op indices are handed out in order."""
    ops = iter(range(count))

    async def worker(conn: Conn) -> None:
        for k in ops:
            await issue(conn, k)

    await asyncio.gather(*(worker(conns[i % len(conns)])
                           for i in range(depth)))
