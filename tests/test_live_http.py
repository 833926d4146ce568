"""Hostile input against the live master's HTTP front end.

An over-long request line, too many header lines or too many header
bytes each get a 4xx that says ``Connection: close`` and a closed
connection, with no exception left to the event loop, and the master
keeps serving fresh connections.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.live.master import MAX_HEADER_BYTES, MAX_HEADER_LINES, MasterServer


async def _read_response(reader: asyncio.StreamReader):
    """(status, body, Connection header) of one response."""
    status = int((await reader.readline()).split()[1])
    length, connection = 0, None
    while (line := await reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.partition(b":")
        if name.lower() == b"content-length":
            length = int(value)
        elif name.lower() == b"connection":
            connection = value.strip().decode()
    return status, await reader.readexactly(length), connection


async def _send(master: MasterServer, data: bytes):
    """Send ``data`` on a fresh connection: (status and Connection header
    of the first response, whatever arrives after it until the connection
    closes)."""
    reader, writer = await asyncio.open_connection(master.host,
                                                   master.http_port)
    try:
        writer.write(data)
        await writer.drain()
        status, _, connection = await asyncio.wait_for(
            _read_response(reader), 10.0)
        try:
            rest = await asyncio.wait_for(reader.read(), 10.0)
        except ConnectionResetError:        # the unread request's tail
            rest = b""
        return status, connection, rest
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _keep_alive_statuses(master: MasterServer):
    """Two GETs on one fresh keep-alive connection: (status, Connection
    header) of each."""
    reader, writer = await asyncio.open_connection(master.host,
                                                   master.http_port)
    try:
        statuses = []
        for _ in range(2):
            writer.write(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            status, _, connection = await asyncio.wait_for(
                _read_response(reader), 10.0)
            statuses.append((status, connection))
        return statuses
    finally:
        writer.close()
        await writer.wait_closed()


def _run_hostile(data: bytes):
    """Boot a one-node master, send ``data``, then a normal keep-alive
    exchange; returns (status, Connection header, rest, keep-alive
    statuses, loop errors)."""

    async def scenario():
        errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context))
        master = MasterServer(node_id=0, num_nodes=1, workers=1,
                              traced=False)
        await master.start()
        try:
            status, connection, rest = await _send(master, data)
            kept = await _keep_alive_statuses(master)
        finally:
            await master.stop()
        return status, connection, rest, kept, errors

    return asyncio.run(scenario())


def _request(headers):
    return (b"GET /healthz HTTP/1.1\r\n"
            + b"".join(h + b"\r\n" for h in headers) + b"\r\n")


def test_over_long_request_line_gets_400_and_a_closed_connection():
    data = b"GET /" + b"a" * 100_000 + b" HTTP/1.1\r\nHost: t\r\n\r\n"
    status, connection, rest, kept, errors = _run_hostile(data)
    assert status == 400 and rest == b""
    assert connection == "close"
    assert errors == []
    assert kept == [(200, "keep-alive")] * 2


@pytest.mark.parametrize("headers", [
    [b"X-H%d: v" % i for i in range(1000)],
    [b"X-H%d: " % i + b"v" * 1024 for i in range(MAX_HEADER_BYTES // 1024)],
    [b"X-Long: " + b"v" * 100_000],
], ids=["1000 lines", "too many bytes", "one over-long line"])
def test_header_block_past_a_cap_gets_431_and_a_closed_connection(headers):
    status, connection, rest, kept, errors = _run_hostile(_request(headers))
    assert status == 431 and rest == b""
    assert connection == "close"
    assert errors == []
    assert kept == [(200, "keep-alive")] * 2


def test_header_block_at_the_caps_is_served():
    headers = [b"X-H%d: v" % i for i in range(MAX_HEADER_LINES - 1)]
    headers.append(b"X-Pad: " + b"v" * (
        MAX_HEADER_BYTES - sum(len(h) + 2 for h in headers) - 9))
    assert sum(len(h) + 2 for h in headers) == MAX_HEADER_BYTES
    status, connection, rest, kept, errors = _run_hostile(
        _request(headers) + _request([b"Connection: close"]))
    assert status == 200 and connection == "keep-alive"
    # The second request asked for close: its reply says so, then EOF.
    assert rest.startswith(b"HTTP/1.1 200 OK\r\n")
    assert b"\r\nConnection: close\r\n" in rest
    assert rest.endswith(b"}")
    assert errors == []


@pytest.mark.parametrize("data", [
    b"NOT-A-REQUEST-LINE\r\n\r\n",
    b"POST /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
], ids=["bad request line", "not GET"])
def test_refused_request_gets_400_with_connection_close(data):
    status, connection, rest, kept, errors = _run_hostile(data)
    assert status == 400 and rest == b""
    assert connection == "close"
    assert errors == []
    assert kept == [(200, "keep-alive")] * 2
