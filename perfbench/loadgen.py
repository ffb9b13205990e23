"""Open-loop HTTP load on keep-alive connections, timed from due times.

Each :class:`Stream` is one subscriber's seeded send schedule on one
keep-alive connection.  Requests are written at their due times whether
or not earlier answers have arrived (HTTP/1.1 pipelining), so a stall in
the server shows up as latency of every request due during it.  Latency
runs from the due time to the last body byte; lateness, how long after
its due time a request was actually written, measures the generator
itself.  The parser here is the generator's own, independent of
``repro.proxy``.
"""

from __future__ import annotations

import asyncio
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

from measure import lateness

_CHUNK = 64 * 1024
#: How long a stream's conforming requests get to be answered after its
#: last send; a flooder's backlog is cut off at once.
DRAIN_S = 2.0
#: The common start lies this far after ``drive`` is called, so every
#: stream has connected before its first send is due.
LEAD_S = 0.05
#: How far, in periods, the seed may move each paced send either way.
_JITTER = 0.4


def paced_schedule(rate: float, duration_s: float, rng: random.Random) -> List[float]:
    """Due offsets (s) one period apart, each moved by up to ``_JITTER`` periods."""
    if rate <= 0:
        return []
    period = 1.0 / rate
    due = [(k + 0.5 + rng.uniform(-_JITTER, _JITTER)) * period for k in range(int(duration_s * rate))]
    return sorted(due)


@dataclass
class Request:
    """One scheduled request and what became of it (loop-clock seconds)."""

    due: float
    sent: Optional[float] = None
    done: Optional[float] = None
    #: None until answered; stays None for a request never answered.
    status: Optional[int] = None
    body_ok: bool = False
    #: The connection failed while this request waited for its answer.
    lost: bool = False


@dataclass
class Stream:
    """One subscriber's schedule on one keep-alive connection."""

    host: str
    path: str
    body_bytes: int
    offsets: List[float]
    conforming: bool
    #: Writes held back while this many requests are unanswered (None:
    #: never).  Bounds the pipeline of a flooder the server throttles.
    max_outstanding: Optional[int] = None
    requests: List[Request] = field(default_factory=list)
    #: Due sends skipped because ``max_outstanding`` was reached.
    held: int = 0

    def latencies_ms(self) -> List[float]:
        return [(r.done - r.due) * 1e3 for r in self.requests if r.done is not None and r.status == 200]

    def lateness_ms(self) -> List[float]:
        sent = [r for r in self.requests if r.sent is not None]
        return [late * 1e3 for late in lateness([r.due for r in sent], [r.sent for r in sent])]

    def outstanding_at(self, when: float) -> int:
        """Requests sent by ``when`` and not answered by then."""
        return sum(1 for r in self.requests if r.sent is not None and r.sent <= when
                   and (r.done is None or r.done > when))


async def _read_response(reader: asyncio.StreamReader):
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    remaining = length
    while remaining > 0:
        chunk = await reader.read(min(_CHUNK, remaining))
        if not chunk:
            raise asyncio.IncompleteReadError(b"", remaining)
        remaining -= len(chunk)
    return status, length


async def _run_stream(port: int, stream: Stream, start: float) -> None:
    loop = asyncio.get_running_loop()
    message = "GET {} HTTP/1.1\r\nhost: {}\r\nconnection: keep-alive\r\n\r\n".format(
        stream.path, stream.host).encode("latin-1")
    pending: Deque[Request] = deque()
    connection = {}

    async def receive(reader: asyncio.StreamReader) -> None:
        try:
            while True:
                status, length = await _read_response(reader)
                request = pending.popleft()
                request.done, request.status = loop.time(), status
                request.body_ok = status != 200 or length == stream.body_bytes
        except (asyncio.IncompleteReadError, ConnectionError, IndexError):
            for request in pending:  # the server closed or broke the connection
                request.lost = True
        finally:
            pending.clear()

    async def connect() -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        connection["writer"] = writer
        connection["receiver"] = asyncio.ensure_future(receive(reader))

    await connect()
    try:
        for offset in stream.offsets:
            due = start + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if stream.max_outstanding is not None and len(pending) >= stream.max_outstanding:
                stream.held += 1
                continue
            if connection["receiver"].done():
                await connect()
            request = Request(due=due, sent=loop.time())
            stream.requests.append(request)
            pending.append(request)
            connection["writer"].write(message)
        # What a flooder has held back when it is cut off is not lost.
        deadline = loop.time() + (DRAIN_S if stream.conforming else 0.0)
        while pending and loop.time() < deadline:
            await asyncio.sleep(0.005)
    finally:
        connection["writer"].close()
        receiver = connection["receiver"]
        receiver.cancel()
        await asyncio.gather(receiver, return_exceptions=True)


async def drive(port: int, streams: List[Stream]) -> float:
    """Run every stream's schedule from a common start; return that start."""
    start = asyncio.get_running_loop().time() + LEAD_S
    await asyncio.gather(*(_run_stream(port, stream, start) for stream in streams))
    return start
