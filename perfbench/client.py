"""A minimal keep-alive HTTP/1.1 client on asyncio streams.

One :class:`Connection` is one TCP connection carrying one request at a
time, which is what a closed-loop client and a paced probe each need.
Bodies are returned as raw bytes; decoding waits until after the timed
window.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Tuple


class Connection:
    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _ensure(self) -> None:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )

    async def request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        timeout: float = 30.0,
    ) -> Tuple[int, bytes]:
        """Send one request and read its response: ``(status, body)``.

        A timeout drops the connection (its late response would
        otherwise be read as the answer to the next request) and
        re-raises :class:`asyncio.TimeoutError`.
        """
        try:
            return await asyncio.wait_for(
                self._exchange(method, path, body), timeout
            )
        except (asyncio.TimeoutError, OSError, asyncio.IncompleteReadError):
            await self.close()
            raise

    async def _exchange(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, bytes]:
        await self._ensure()
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        self._writer.write(head + body)
        await self._writer.drain()
        raw = await self._reader.readuntil(b"\r\n\r\n")
        lines = raw.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        closing = False
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection":
                closing = value.strip().lower() == "close"
        payload = await self._reader.readexactly(length)
        if closing:
            await self.close()
        return status, payload

    async def close(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass  # the peer already went away
