"""Hostile input against the live master's HTTP front end.

An over-long request line, too many header lines or too many header
bytes each get a 4xx that says ``Connection: close`` and a closed
connection, with no exception left to the event loop, and the master
keeps serving fresh connections.  Fuzzed request lines, header blocks
and ``/req`` parameters each end in a 4xx, a 200/503 JSON reply or a
closed connection, and leave the request ledger balanced.
"""

from __future__ import annotations

import asyncio
import json
from urllib.parse import urlencode

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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


# -- fuzzing the parser ---------------------------------------------------

FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

#: Parameter names ``/req`` reads, and arbitrary ones.
_KEYS = st.sampled_from(["id", "kind", "cpu", "io", "type"]) | st.text(
    max_size=6)
#: Parameter values: numbers, words the parser treats specially, and
#: arbitrary text.
_VALUES = st.one_of(
    st.floats(min_value=0.0, max_value=0.002).map(repr),
    st.integers(-2 ** 70, 2 ** 70).map(str),
    st.sampled_from(["", "nan", "inf", "-inf", "1e400", "-0.0", "0x10",
                     "1_000", " 5 ", "static", "dynamic", "cgi", "1"]),
    st.text(max_size=12))
_PARAMS = st.lists(st.tuples(_KEYS, _VALUES), max_size=6)
_QUERIES = st.one_of(
    _PARAMS.map(urlencode),
    _PARAMS.map(lambda kv: "&".join(f"{k}={v}" for k, v in kv)),
    st.text(max_size=40))
_PATHS = st.sampled_from(["/req", "/healthz", "/control/stats",
                          "/control/spans", "/", ""]) | st.text(max_size=20)
_TARGETS = st.one_of(
    st.tuples(_PATHS, _QUERIES).map(lambda pq: f"{pq[0]}?{pq[1]}"),
    _PATHS,
    st.sampled_from(["http://[::1", "//[", "http://h:port/req?id=1",
                     "*", "%", "/req#frag"]))
_METHODS = st.sampled_from(["GET", "get", "POST", "HEAD", ""]) | st.text(
    max_size=6)
_VERSIONS = st.sampled_from(["HTTP/1.1", "HTTP/1.0", ""]) | st.text(
    max_size=10)
_REQUEST_LINES = st.one_of(
    st.tuples(_METHODS, _TARGETS, _VERSIONS).map(
        lambda mtv: " ".join(mtv).encode("utf-8", "surrogatepass")),
    st.binary(max_size=80))
_HEADERS = st.lists(
    st.sampled_from([b"Host: t", b"Connection: close",
                     b"Connection: keep-alive", b"CONNECTION: CLOSE",
                     b":", b""]) | st.binary(max_size=60),
    max_size=8)


async def _stub_run(cpu_seconds, io_seconds, on_start=None):
    """The pool's ``run`` without the burn: a fuzzed demand costs no time."""
    if on_start is not None:
        on_start()
    return cpu_seconds, io_seconds


async def _exchange(master: MasterServer, data: bytes, tasks: int):
    """Send ``data`` on a fresh connection and read the first reply:
    (status, Content-Type, body), or None if the connection closed without
    one.  Returns once the master's handler for the connection is done,
    that is, once the loop is back to ``tasks`` tasks besides this one."""
    reader, writer = await asyncio.open_connection(master.host,
                                                   master.http_port)
    try:
        writer.write(data)
        await writer.drain()
        reply = await asyncio.wait_for(_read_reply(reader), 10.0)
    except ConnectionError:
        reply = None
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    deadline = asyncio.get_running_loop().time() + 10.0
    while len(asyncio.all_tasks()) > tasks + 1:
        assert asyncio.get_running_loop().time() < deadline, \
            "a connection handler did not finish"
        await asyncio.sleep(0.001)
    return reply


async def _read_reply(reader: asyncio.StreamReader):
    status_line = await reader.readline()
    if not status_line:
        return None
    status = int(status_line.split()[1])
    length, ctype = 0, None
    while (line := await reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.partition(b":")
        if name.lower() == b"content-length":
            length = int(value)
        elif name.lower() == b"content-type":
            ctype = value.strip().decode()
    return status, ctype, await reader.readexactly(length)


def _strict_json(text):
    """``text`` parsed as JSON proper: NaN and Infinity are refused."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def _check_reply(reply) -> None:
    """A 4xx, a 200/503 JSON reply, or a closed connection (None)."""
    if reply is None:
        return
    status, ctype, body = reply
    if 400 <= status < 500:
        return
    assert status in (200, 503), reply
    if ctype == "text/plain":       # /control/spans: JSON lines
        for line in body.decode().splitlines():
            _strict_json(line)
    else:
        assert ctype == "application/json", reply
        _strict_json(body)


def _fuzz(messages, *regressions: bytes) -> None:
    """Send every example of ``messages``, the ``regressions`` first, to
    one in-process master with no slaves.  After each exchange the loop's
    exception handler has not been called and the master's ledger
    balances."""
    loop = asyncio.new_event_loop()
    errors: list = []
    loop.set_exception_handler(lambda _loop, context: errors.append(context))
    master = MasterServer(node_id=0, num_nodes=1, workers=1)
    master.pool.run = _stub_run

    def check(data):
        errors.clear()
        _check_reply(loop.run_until_complete(_exchange(master, data, tasks)))
        assert errors == []
        assert master.conservation()["balance"] == 0

    exchange = given(data=messages)(check)
    for data in regressions:
        exchange = example(data=data)(exchange)
    try:
        loop.run_until_complete(master.start())
        tasks = len(asyncio.all_tasks(loop))
        FUZZ(exchange)()
    finally:
        loop.run_until_complete(master.stop())
        loop.close()


def test_fuzzed_req_parameters():
    named = st.fixed_dictionaries(
        {"id": st.integers(-2 ** 70, 2 ** 70).map(str)},
        optional={key: _VALUES for key in ("kind", "cpu", "io", "type")})
    params = st.tuples(named, _PARAMS).map(
        lambda parts: list(parts[0].items()) + parts[1])
    _fuzz(params.map(lambda kv: _request_bytes(
        b"GET /req?" + urlencode(kv).encode() + b" HTTP/1.1", [])),
        # Non-finite demands were served: inf holds a worker forever and
        # NaN turned the ledger's stretch NaN (JSON without a value).
        b"GET /req?id=0&io=nan HTTP/1.1\r\n\r\n",
        b"GET /req?id=1&cpu=inf HTTP/1.1\r\n\r\n",
        b"GET /req?id=2&cpu=1e400 HTTP/1.1\r\n\r\n")


def test_fuzzed_request_lines_and_queries():
    _fuzz(st.tuples(_REQUEST_LINES, _HEADERS).map(
        lambda lh: _request_bytes(*lh)),
        # urlsplit raised ValueError ("Invalid IPv6 URL") out of the
        # connection handler, and the client got no reply.
        b"GET http://[::1 HTTP/1.1\r\n\r\n",
        b"GET //[ HTTP/1.1\r\n\r\n")


def test_fuzzed_header_blocks():
    _fuzz(st.tuples(_TARGETS, _HEADERS).map(
        lambda th: _request_bytes(
            b"GET " + th[0].encode("utf-8", "surrogatepass")
            + b" HTTP/1.1", th[1])))


def _request_bytes(line: bytes, headers) -> bytes:
    return line + b"\r\n" + b"".join(h + b"\r\n" for h in headers) + b"\r\n"
