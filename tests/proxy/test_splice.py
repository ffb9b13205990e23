"""Tests for the asyncio byte relay."""

import asyncio

import pytest

from repro.proxy.splice import (
    destination_closing,
    over_high_water,
    relay_exactly,
    splice_exactly,
)


class SinkWriter:
    """A StreamWriter stand-in collecting written bytes."""

    def __init__(self):
        self.data = bytearray()

    def write(self, chunk):
        self.data.extend(chunk)

    async def drain(self):
        pass


def feed(data: bytes, eof=True) -> asyncio.StreamReader:
    """Build a pre-filled StreamReader (call from inside a running loop)."""
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    if eof:
        reader.feed_eof()
    return reader


def test_relay_exactly_copies_n_bytes():
    async def main():
        sink = SinkWriter()
        copied = await relay_exactly(feed(b"abcdefgh"), sink, 5)
        return copied, bytes(sink.data)

    copied, data = asyncio.run(main())
    assert copied == 5
    assert data == b"abcde"


def test_relay_exactly_large_payload_chunked():
    payload = b"z" * 300_000

    async def main():
        sink = SinkWriter()
        copied = await relay_exactly(feed(payload), sink, len(payload))
        return copied, bytes(sink.data)

    copied, data = asyncio.run(main())
    assert copied == 300_000
    assert data == payload


def test_relay_exactly_short_source_raises():
    async def main():
        sink = SinkWriter()
        await relay_exactly(feed(b"abc"), sink, 10)

    with pytest.raises(asyncio.IncompleteReadError):
        asyncio.run(main())


def test_relay_zero_bytes():
    async def main():
        sink = SinkWriter()
        return await relay_exactly(feed(b""), sink, 0)

    assert asyncio.run(main()) == 0


def test_helpers_are_conservative_for_test_doubles():
    # A SinkWriter has no transport: not closing, but treated as always
    # over the high-water mark so the stream relay drains every chunk.
    sink = SinkWriter()
    assert not destination_closing(sink)
    assert over_high_water(sink)


async def _socket_pair():
    """Client-side (reader, writer) plus the server-side peer and server."""
    accepted = asyncio.get_event_loop().create_future()

    def on_connect(reader, writer):
        if not accepted.done():
            accepted.set_result((reader, writer))

    server = await asyncio.start_server(on_connect, host="127.0.0.1", port=0)
    port = server.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    peer = await accepted
    return reader, writer, peer, server


async def _cleanup(*pairs):
    for _reader, writer, (peer_reader, peer_writer), server in pairs:
        writer.close()
        peer_writer.close()
        server.close()
        await server.wait_closed()


async def _read_all(reader):
    data = bytearray()
    while True:
        chunk = await reader.read(65536)
        if not chunk:
            return bytes(data)
        data.extend(chunk)


def test_splice_exactly_over_real_sockets_with_prefix():
    payload = b"p" * 200_000

    async def main():
        src = await _socket_pair()
        dst = await _socket_pair()
        try:
            src[2][1].write(payload)  # the "back end" sends the body
            src[2][1].write_eof()
            collector = asyncio.ensure_future(_read_all(dst[2][0]))
            copied = await splice_exactly(
                src[0], src[1], dst[1], len(payload), prefix=b"HEAD\r\n\r\n"
            )
            await dst[1].drain()
            dst[1].write_eof()
            received = await collector
            return copied, received
        finally:
            await _cleanup(src, dst)

    copied, received = asyncio.run(main())
    assert copied == len(payload)
    assert received == b"HEAD\r\n\r\n" + payload


def test_splice_exactly_leaves_pipelined_bytes_readable():
    # Bytes past the requested body (the next pipelined request) must
    # stay on the source reader, not leak into the destination.
    async def main():
        src = await _socket_pair()
        dst = await _socket_pair()
        try:
            src[2][1].write(b"BODYBYTES" + b"NEXTREQ")
            src[2][1].write_eof()
            collector = asyncio.ensure_future(_read_all(dst[2][0]))
            copied = await splice_exactly(src[0], src[1], dst[1], len(b"BODYBYTES"))
            await dst[1].drain()
            dst[1].write_eof()
            received = await collector
            leftover = await _read_all(src[0])
            return copied, received, leftover
        finally:
            await _cleanup(src, dst)

    copied, received, leftover = asyncio.run(main())
    assert copied == 9
    assert received == b"BODYBYTES"
    assert leftover == b"NEXTREQ"


def test_splice_exactly_eof_mid_body_raises():
    async def main():
        src = await _socket_pair()
        dst = await _socket_pair()
        try:
            src[2][1].write(b"short")
            src[2][1].write_eof()
            drain = asyncio.ensure_future(_read_all(dst[2][0]))
            try:
                with pytest.raises(asyncio.IncompleteReadError):
                    await splice_exactly(src[0], src[1], dst[1], 1000)
            finally:
                dst[1].write_eof()
                await drain
        finally:
            await _cleanup(src, dst)

    asyncio.run(main())


def test_splice_exactly_large_body_flow_controlled():
    # Big enough to overrun every buffer in the chain: forces the
    # protocol's pause/resume path while the peer reads concurrently.
    payload = bytes(range(256)) * 8192  # 2 MiB

    async def main():
        src = await _socket_pair()
        dst = await _socket_pair()
        try:
            async def pump():
                src[2][1].write(payload)
                await src[2][1].drain()
                src[2][1].write_eof()

            pumper = asyncio.ensure_future(pump())
            collector = asyncio.ensure_future(_read_all(dst[2][0]))
            copied = await splice_exactly(src[0], src[1], dst[1], len(payload))
            await dst[1].drain()
            dst[1].write_eof()
            received = await collector
            await pumper
            return copied, received
        finally:
            await _cleanup(src, dst)

    copied, received = asyncio.run(main())
    assert copied == len(payload)
    assert received == payload


def test_relay_exactly_to_closing_destination_raises():
    async def main():
        dst = await _socket_pair()
        try:
            dst[1].close()
            with pytest.raises(ConnectionResetError):
                await relay_exactly(feed(b"x" * 100), dst[1], 100)
        finally:
            await _cleanup(dst)

    asyncio.run(main())
