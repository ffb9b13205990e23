"""Byte-stream splicing for the asyncio deployment.

The userspace analogue of the paper's TCP connection splicing: once the
front end has classified a request and chosen a back end, the two sockets
are joined by relaying bytes.  (In-kernel Gage rewrites sequence numbers
so the back end answers the client directly; from userspace the bytes
must flow through the proxy — the known fidelity cost of this
deployment, documented in DESIGN.md.)

Zero-copy primitives (used by the relay paths and the back-end server):

- :func:`vectored_write` — writes a head + body piece list with one
  direct ``socket.sendmsg`` syscall when the destination transport's
  write buffer is empty (so ordering cannot be violated), falling back
  to buffered ``writelines`` otherwise;
- :func:`sendfile_exactly` — pushes a file-backed body with
  ``os.sendfile`` via ``loop.sendfile`` (kernel-to-kernel, no userspace
  copy), with a chunked read/write fallback for loops or destinations
  that cannot do it.

Both record what they did into :data:`splice_stats` so benchmarks and
tests can assert which path actually ran.

Two relay paths exist:

- :func:`splice_exactly` — the fast path.  It swaps an
  :class:`asyncio.Protocol` onto the *source* transport for the duration
  of one bounded body copy, so every ``data_received`` chunk goes
  straight to the destination transport without passing through a
  ``StreamReader`` buffer, and backpressure is transport flow control:
  when the destination's write buffer crosses its high-water mark the
  source is ``pause_reading()``-ed until the destination drains back
  under its low-water mark.  No per-chunk ``drain()``.
- :func:`relay_exactly` — the stream fallback (used under test doubles
  or non-transport readers).  Since the data plane rework it also drains
  only when the destination's write buffer exceeds its high-water mark,
  and refuses to write into a transport that is already closing.
"""

from __future__ import annotations

import asyncio
import os
import socket
from typing import BinaryIO, List, Optional, Sequence, Union

#: Relay buffer size, bytes (stream fallback path).
RELAY_CHUNK = 64 * 1024

#: Destination write-buffer watermarks, bytes.  ``drain()``/
#: ``pause_reading()`` engage above HIGH and release below LOW; sized
#: well above one relay chunk so steady-state relaying never stalls on
#: flow control.
WRITE_HIGH_WATER = 256 * 1024
WRITE_LOW_WATER = 64 * 1024

#: Kernel socket send/receive buffer request, bytes.
SOCKET_BUFFER_BYTES = 256 * 1024

#: One buffer piece as accepted by ``sendmsg``/``writelines``.
Piece = Union[bytes, bytearray, memoryview]


class SpliceStats:
    """Process-wide counters for which write path actually ran.

    Purely observational (no control-flow reads them): benchmarks stamp
    these into ``perf_`` keys and the integration tests assert the
    zero-copy paths really engaged rather than silently falling back.
    """

    __slots__ = (
        "sendmsg_writes",
        "sendmsg_bytes",
        "sendfile_writes",
        "sendfile_bytes",
        "buffered_writes",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.sendmsg_writes = 0
        self.sendmsg_bytes = 0
        self.sendfile_writes = 0
        self.sendfile_bytes = 0
        self.buffered_writes = 0

    def snapshot(self) -> dict:
        return {
            "sendmsg_writes": self.sendmsg_writes,
            "sendmsg_bytes": self.sendmsg_bytes,
            "sendfile_writes": self.sendfile_writes,
            "sendfile_bytes": self.sendfile_bytes,
            "buffered_writes": self.buffered_writes,
        }

    def __repr__(self) -> str:
        return "<SpliceStats {}>".format(self.snapshot())


#: The process-wide instance (per worker process; workers do not share it).
splice_stats = SpliceStats()


def tune_transport(transport) -> None:
    """Throughput-tune one TCP transport.

    ``TCP_NODELAY`` (no Nagle stalls on head-then-body writes), larger
    kernel socket buffers, and write-buffer watermarks matched to the
    relay's flow-control thresholds.  Best-effort: a transport or OS
    that refuses any knob keeps its defaults.
    """
    if transport is None:
        return
    sock = transport.get_extra_info("socket")
    if sock is not None and sock.family in (socket.AF_INET, socket.AF_INET6):
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, SOCKET_BUFFER_BYTES)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, SOCKET_BUFFER_BYTES)
        except OSError:
            pass
    try:
        transport.set_write_buffer_limits(
            high=WRITE_HIGH_WATER, low=WRITE_LOW_WATER
        )
    except (AttributeError, NotImplementedError):
        pass


def _transport_of(writer):
    return getattr(writer, "transport", None)


def destination_closing(writer) -> bool:
    """Whether the writer's transport is already shutting down."""
    transport = _transport_of(writer)
    return transport is not None and transport.is_closing()


def over_high_water(writer) -> bool:
    """Whether the writer's transport buffer is past its high-water mark.

    Unknown transports (test doubles) report True so the stream relay
    falls back to draining conservatively.
    """
    transport = _transport_of(writer)
    if transport is None:
        return True
    try:
        high = transport.get_write_buffer_limits()[1]
        return transport.get_write_buffer_size() > high
    except (AttributeError, NotImplementedError):
        return True


def _direct_socket(writer) -> Optional[socket.socket]:
    """The destination's raw TCP socket, when writing to it directly is safe.

    Safe means: a real transport, not closing, not TLS, and — critically —
    an **empty** transport write buffer, so bytes pushed straight into the
    socket cannot overtake bytes the transport already queued.
    """
    transport = _transport_of(writer)
    if transport is None or transport.is_closing():
        return None
    try:
        if transport.get_write_buffer_size() != 0:
            return None
        if transport.get_extra_info("sslcontext") is not None:
            return None
        sock = transport.get_extra_info("socket")
    except (AttributeError, NotImplementedError):
        return None
    if sock is None:
        return None
    try:
        if sock.family not in (socket.AF_INET, socket.AF_INET6):
            return None
    except AttributeError:
        return None
    return sock


def _tail_after(pieces: List[Piece], sent: int) -> List[Piece]:
    """The piece views remaining after ``sent`` bytes went out."""
    remainder: List[Piece] = []
    skipped = 0
    for piece in pieces:
        length = len(piece)
        if skipped + length <= sent:
            skipped += length
            continue
        start = sent - skipped if skipped < sent else 0
        remainder.append(memoryview(piece)[start:] if start else piece)
        skipped += length
    return remainder


def vectored_write(writer, pieces: Sequence[Piece]) -> int:
    """Write a head+body piece list, preferring one ``sendmsg`` syscall.

    When the transport's write buffer is empty the whole piece list goes
    out with a single vectored ``socket.sendmsg`` — no per-piece copies
    into the transport buffer, no extra syscalls.  Any unsent tail (short
    write on a full socket buffer) and every unsafe case falls back to
    buffered ``writelines``; either way all bytes are accepted, with
    backpressure still signalled by the transport's watermarks.  Returns
    the number of bytes that went out directly (0 = fully buffered).
    """
    pieces = [piece for piece in pieces if len(piece)]
    if not pieces:
        return 0
    sock = _direct_socket(writer)
    if sock is not None:
        try:
            # Real sockets expose sendmsg; asyncio's TransportSocket
            # wrapper (3.9+) strips the I/O methods, so go through the
            # fd with writev — the identical vectored syscall without
            # ancillary data.
            sendmsg = getattr(sock, "sendmsg", None)
            if sendmsg is not None:
                sent = sendmsg(pieces)
            else:
                sent = os.writev(sock.fileno(), pieces)
        except (BlockingIOError, InterruptedError, ValueError):
            sent = 0
        except OSError:
            # A hard socket error: hand the bytes to the transport, which
            # owns failure detection and will surface it to the caller.
            sent = 0
        if sent:
            splice_stats.sendmsg_writes += 1
            splice_stats.sendmsg_bytes += sent
            remainder = _tail_after(pieces, sent)
            if remainder:
                splice_stats.buffered_writes += 1
                writer.writelines(remainder)
            return sent
    splice_stats.buffered_writes += 1
    writer.writelines(pieces)
    return 0


async def sendfile_exactly(
    writer: asyncio.StreamWriter,
    file_obj: BinaryIO,
    count: int,
    offset: int = 0,
) -> int:
    """Send exactly ``count`` bytes of ``file_obj`` from ``offset``.

    Uses ``loop.sendfile`` (``os.sendfile`` under the hood on the native
    path: the kernel moves page-cache bytes straight to the socket) with
    asyncio's own chunked fallback; test doubles without a real transport
    get a plain read/write loop.  The caller must not share ``file_obj``
    with concurrent senders — the fallback paths seek it.

    Raises ``IncompleteReadError`` if the file ends early and
    ``ConnectionResetError`` if the destination goes away.
    """
    if count <= 0:
        return 0
    if destination_closing(writer):
        raise ConnectionResetError("destination closed during sendfile")
    transport = _transport_of(writer)
    loop = asyncio.get_event_loop()
    if transport is not None and hasattr(loop, "sendfile"):
        try:
            sent = await loop.sendfile(
                transport, file_obj, offset=offset, count=count, fallback=True
            )
        except RuntimeError as exc:
            raise ConnectionResetError(
                "destination closed during sendfile"
            ) from exc
        splice_stats.sendfile_writes += 1
        splice_stats.sendfile_bytes += sent
        if sent != count:
            raise asyncio.IncompleteReadError(partial=b"", expected=count - sent)
        return sent
    splice_stats.buffered_writes += 1
    file_obj.seek(offset)
    remaining = count
    while remaining > 0:
        chunk = file_obj.read(min(RELAY_CHUNK, remaining))
        if not chunk:
            raise asyncio.IncompleteReadError(partial=b"", expected=remaining)
        if destination_closing(writer):
            raise ConnectionResetError("destination closed during sendfile")
        writer.write(chunk)
        remaining -= len(chunk)
        if remaining and over_high_water(writer):
            await writer.drain()
    return count


async def relay_exactly(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, nbytes: int
) -> int:
    """Copy exactly ``nbytes`` from ``reader`` to ``writer`` (stream path).

    Returns the number of bytes copied; raises ``IncompleteReadError`` if
    the source ends early, ``ConnectionResetError`` if the destination
    transport closes mid-copy.  Drains only past the high-water mark;
    the caller owns the final flush.
    """
    remaining = nbytes
    copied = 0
    while remaining > 0:
        chunk = await reader.read(min(RELAY_CHUNK, remaining))
        if not chunk:
            raise asyncio.IncompleteReadError(partial=b"", expected=remaining)
        if destination_closing(writer):
            raise ConnectionResetError("destination closed during relay")
        writer.write(chunk)
        copied += len(chunk)
        remaining -= len(chunk)
        if remaining and over_high_water(writer):
            await writer.drain()
    return copied


class _SpliceProtocol(asyncio.Protocol):
    """Installed on the source transport for one bounded body copy.

    Chunks go from ``data_received`` straight into the destination
    transport; bytes past the body boundary (keep-alive pipelining) are
    stashed in ``overflow`` for the caller to push back into the
    source's ``StreamReader``.
    """

    def __init__(self, src_transport, dst_writer, nbytes: int) -> None:
        self._src = src_transport
        self._dst_writer = dst_writer
        self._dst = dst_writer.transport
        try:
            self._dst_high = self._dst.get_write_buffer_limits()[1]
        except (AttributeError, NotImplementedError):
            self._dst_high = WRITE_HIGH_WATER
        self._remaining = nbytes
        self.copied = 0
        self.overflow = bytearray()
        self.saw_eof = False
        self.lost = False
        self.lost_exc: Optional[BaseException] = None
        self._loop = asyncio.get_event_loop()
        self.done: asyncio.Future = self._loop.create_future()
        self._drainer: Optional[asyncio.Task] = None

    # -- protocol callbacks -------------------------------------------------

    def data_received(self, data: bytes) -> None:
        if self.done.done() or self._remaining <= 0:
            self.overflow += data
            return
        if len(data) > self._remaining:
            view = memoryview(data)
            take = view[: self._remaining]
            self.overflow += view[self._remaining:]
        else:
            take = data
        if self._dst.is_closing():
            self._finish(ConnectionResetError("destination closed during splice"))
            return
        self._dst.write(take)
        self.copied += len(take)
        self._remaining -= len(take)
        if self._remaining == 0:
            self._finish(None)
        elif self._dst.get_write_buffer_size() > self._dst_high:
            # Destination backpressure: stop reading the source until the
            # destination's write buffer falls back under its low-water
            # mark (its FlowControlMixin wakes the drain below).
            self._src.pause_reading()
            self._drainer = self._loop.create_task(self._drain_destination())

    def eof_received(self) -> bool:
        self.saw_eof = True
        if self._remaining > 0:
            self._finish(
                asyncio.IncompleteReadError(partial=b"", expected=self._remaining)
            )
        else:
            self._finish(None)
        # Keep the transport open: the caller restores the stream
        # protocol and forwards the EOF to its reader.
        return True

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.lost = True
        self.lost_exc = exc
        if self._remaining > 0:
            self._finish(
                exc
                if exc is not None
                else asyncio.IncompleteReadError(
                    partial=b"", expected=self._remaining
                )
            )
        else:
            self._finish(None)

    # -- internals ----------------------------------------------------------

    def _finish(self, exc: Optional[BaseException]) -> None:
        if self.done.done():
            return
        if exc is None:
            self.done.set_result(self.copied)
        else:
            self.done.set_exception(exc)

    async def _drain_destination(self) -> None:
        try:
            await self._dst_writer.drain()
        except (ConnectionError, RuntimeError) as exc:
            self._finish(exc)
            return
        if not self.done.done():
            self._src.resume_reading()

    def detach(self) -> None:
        """Cancel any in-flight drain waiter (called on protocol restore)."""
        if self._drainer is not None and not self._drainer.done():
            self._drainer.cancel()
        self._drainer = None
        if not self.done.done():
            self.done.cancel()


def _stream_buffer_len(reader) -> Optional[int]:
    """Bytes sitting in the StreamReader's internal buffer (None if opaque)."""
    buffer = getattr(reader, "_buffer", None)
    return len(buffer) if buffer is not None else None


async def splice_exactly(
    src_reader: asyncio.StreamReader,
    src_writer: asyncio.StreamWriter,
    dst_writer: asyncio.StreamWriter,
    nbytes: int,
    prefix: Optional[bytes] = None,
) -> int:
    """Copy exactly ``nbytes`` from the source connection to ``dst_writer``.

    ``prefix`` (a rendered message head) is written ahead of the body in
    the same vectored write as the first chunk, cutting a syscall per
    message.  Bytes already parsed into the source ``StreamReader``'s
    buffer are flushed first; the remainder is relayed transport-to-
    transport via :class:`_SpliceProtocol`.  Falls back to the stream
    relay when either side lacks a real transport.  The caller owns the
    final ``drain()`` of ``dst_writer``.
    """
    src_transport = _transport_of(src_writer)
    dst_transport = _transport_of(dst_writer)
    buffered = _stream_buffer_len(src_reader)
    if (
        src_transport is None
        or dst_transport is None
        or buffered is None
        or not hasattr(src_transport, "set_protocol")
    ):
        if prefix:
            dst_writer.write(prefix)
        if nbytes <= 0:
            return 0
        return await relay_exactly(src_reader, dst_writer, nbytes)

    # Phase 1: whatever the head parse already pulled into the reader's
    # buffer goes out vectored together with the prefix.
    pieces = [prefix] if prefix else []
    copied = 0
    remaining = nbytes
    while remaining > 0 and (_stream_buffer_len(src_reader) or 0) > 0:
        chunk = await src_reader.read(min(RELAY_CHUNK, remaining))
        if not chunk:
            raise asyncio.IncompleteReadError(partial=b"", expected=remaining)
        pieces.append(chunk)
        copied += len(chunk)
        remaining -= len(chunk)
    if pieces:
        if destination_closing(dst_writer):
            raise ConnectionResetError("destination closed during splice")
        vectored_write(dst_writer, pieces)
    if remaining <= 0:
        return copied
    if src_reader.at_eof():
        raise asyncio.IncompleteReadError(partial=b"", expected=remaining)
    if over_high_water(dst_writer):
        await dst_writer.drain()

    # Phase 2: transport-to-transport relay under flow control.
    original = src_transport.get_protocol()
    protocol = _SpliceProtocol(src_transport, dst_writer, remaining)
    src_transport.set_protocol(protocol)
    try:
        src_transport.resume_reading()
    except (AttributeError, RuntimeError):
        pass
    try:
        copied += await protocol.done
    finally:
        protocol.detach()
        src_transport.set_protocol(original)
        try:
            src_transport.resume_reading()
        except (AttributeError, RuntimeError):
            pass
        if protocol.overflow:
            src_reader.feed_data(bytes(protocol.overflow))
        if protocol.lost:
            # The stream protocol never saw the loss; forward it so
            # later reads fail fast instead of hanging.
            original.connection_lost(protocol.lost_exc)
        elif protocol.saw_eof:
            src_reader.feed_eof()
    return copied
