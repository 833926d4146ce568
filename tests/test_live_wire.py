"""Malformed wire input against the live cluster's codecs and endpoints.

Frames and heartbeats come off the network: whatever bytes arrive, the
frame decoder, ``decode_message``, ``decode_heartbeat`` and the load
table must either accept them or refuse them in their documented way
(``ProtocolError``, ``None``, a count in ``rejected``), never raise
anything else into a read loop or a datagram callback.  The properties
run derandomized so every run draws the same examples.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live import protocol
from repro.live.loadd import HeartbeatReceiver
from repro.live.master import MasterServer, PeerError
from repro.sim.monitor import LoadTable
from repro.workload.request import Request, RequestKind

FUZZ = settings(max_examples=200, deadline=None, derandomize=True)

#: Brackets nested past the interpreter's recursion limit.
NESTED = (b"[" * 2000, b'{"a":' * 2000, b'{"op":' + b"[" * 5000)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=4)),
    max_leaves=12)

hostile_bytes = (st.binary(max_size=256)
                 | st.builds(lambda n, chunk: chunk * n,
                             st.integers(0, 3000),
                             st.sampled_from([b"[", b'{"a":', b"1"]))
                 | st.sampled_from(NESTED))


# -- frames -------------------------------------------------------------------


@FUZZ
@given(payloads=st.lists(st.binary(max_size=300), max_size=8),
       cuts=st.lists(st.integers(0, 4000), max_size=12))
def test_any_chunking_yields_the_same_frames(payloads, cuts):
    stream = b"".join(protocol.encode_frame(p) for p in payloads)
    bounds = sorted({0, len(stream), *(c % (len(stream) + 1) for c in cuts)})
    dec = protocol.FrameDecoder()
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        out.extend(dec.feed(stream[lo:hi]))
    assert out == payloads
    assert dec.pending_bytes == 0


@FUZZ
@given(data=hostile_bytes)
def test_decode_message_returns_a_message_or_raises_protocol_error(data):
    try:
        msg = protocol.decode_message(data)
    except protocol.ProtocolError:
        return
    assert isinstance(msg, dict) and "op" in msg


@pytest.mark.parametrize("data", NESTED, ids=["list", "object", "op"])
def test_deep_nesting_is_a_protocol_error(data):
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_message(data)
    assert protocol.decode_heartbeat(data) is None


# -- heartbeats ---------------------------------------------------------------


@FUZZ
@given(data=hostile_bytes)
def test_arbitrary_datagram_bytes_never_raise(data):
    msg = protocol.decode_heartbeat(data)
    assert msg is None or isinstance(msg, dict)
    receiver = HeartbeatReceiver(LoadTable(2))
    accepted = receiver.observe_datagram(data, 1.0)
    assert receiver.heartbeats + receiver.rejected == 1
    assert accepted == (receiver.heartbeats == 1)


@FUZZ
@given(msg=st.dictionaries(
    st.sampled_from(["node", "seq", "cpu_idle", "disk_avail", "active",
                     "op"]),
    json_values, max_size=6))
def test_arbitrary_heartbeat_dicts_never_raise(msg):
    data = json.dumps(msg).encode()
    receiver = HeartbeatReceiver(LoadTable(2))
    receiver.observe_datagram(data, 1.0)
    assert receiver.heartbeats + receiver.rejected == 1


@pytest.mark.parametrize("fields", [
    {"seq": 1e300}, {"seq": 2 ** 63}, {"seq": 1, "active": 1e300},
    {"seq": 1, "active": -(2 ** 64)}, {"seq": 1, "cpu_idle": 10 ** 400},
], ids=["seq 1e300", "seq 2**63", "active 1e300", "active -2**64",
        "cpu_idle 10**400"])
def test_heartbeat_field_past_int64_is_rejected(fields):
    receiver = HeartbeatReceiver(LoadTable(1))
    assert not receiver.observe_datagram(
        json.dumps({"node": 0, **fields}).encode(), 1.0)
    assert (receiver.rejected, receiver.heartbeats) == (1, 0)
    assert receiver.last_seq[0] == -1       # nothing was half-applied
    assert receiver.observe_datagram(
        json.dumps({"node": 0, "seq": 1}).encode(), 1.0)


# -- endpoints ----------------------------------------------------------------


def test_hostile_frames_and_datagrams_end_cleanly_at_the_master():
    """Nested JSON on the master's CGI port, its heartbeat port and from a
    peer it dialled: each connection ends, the datagram is rejected, and
    no exception reaches the event loop."""

    async def scenario():
        loop = asyncio.get_running_loop()
        errors = []
        loop.set_exception_handler(lambda _loop, ctx: errors.append(ctx))
        master = MasterServer(node_id=0, num_nodes=2, workers=1)

        async def hostile_peer(reader, writer):
            await protocol.expect_hello(reader)
            protocol.send_message(writer, protocol.hello(1))
            writer.write(protocol.encode_frame(NESTED[0]))
            await writer.drain()
            await reader.read()
            writer.close()

        peer_server = await asyncio.start_server(hostile_peer,
                                                 "127.0.0.1", 0)
        await master.start()
        try:
            # A frame from a peer master into this node's CGI service.
            reader, writer = await asyncio.open_connection(
                master.host, master.cgi_port)
            protocol.send_message(writer, protocol.hello(1))
            await protocol.expect_hello(reader)
            writer.write(protocol.encode_frame(NESTED[0]))
            await writer.drain()
            assert await asyncio.wait_for(reader.read(), 10.0) == b""
            writer.close()
            # A datagram into the heartbeat port.
            transport, _ = await loop.create_datagram_endpoint(
                asyncio.DatagramProtocol,
                remote_addr=(master.host, master.udp_port))
            rejected = master.receiver.rejected
            transport.sendto(NESTED[0])
            for _ in range(200):
                if master.receiver.rejected > rejected:
                    break
                await asyncio.sleep(0.01)
            transport.close()
            # A frame from a node this master dialled.
            port = peer_server.sockets[0].getsockname()[1]
            await master.connect_peer(1, "127.0.0.1", port)
            for _ in range(200):
                if not master.peers[1].connected:
                    break
                await asyncio.sleep(0.01)
            peer_connected = master.peers[1].connected
            table_rejected = master.receiver.rejected - rejected
            node_dead = not master.table.alive[1]
        finally:
            await master.stop()
            peer_server.close()
            await peer_server.wait_closed()
        return errors, table_rejected, peer_connected, node_dead

    errors, rejected, peer_connected, node_dead = asyncio.run(scenario())
    assert errors == []
    assert rejected == 1
    assert not peer_connected and node_dead


def test_malformed_peer_frames_are_counted_and_the_channel_serves_on():
    """A peer frame with an unhashable ``id`` or a non-numeric ``seq`` is
    dropped and counted; a ``done`` frame with a non-numeric ``cpu`` fails
    that call alone.  The channel then completes the next call, and
    ``MasterServer.stop()`` returns cleanly."""

    async def odd_peer(reader, writer):
        await protocol.expect_hello(reader)
        protocol.send_message(writer, protocol.hello(1))
        for frame in ({"op": "admit", "id": [1]},
                      {"op": "done", "id": {"a": 1}},
                      {"op": "role_ok", "role": "master", "seq": "x"},
                      {"op": "role_ok", "role": "master", "seq": [2]}):
            protocol.send_message(writer, frame)
        first = await protocol.read_message(reader)
        protocol.send_message(writer, {"op": "done", "id": first["id"],
                                       "cpu": "fast", "io": 0.0})
        second = await protocol.read_message(reader)
        protocol.send_message(writer, {"op": "done", "id": second["id"],
                                       "cpu": 0.001, "io": 0.0})
        await writer.drain()
        await reader.read()
        writer.close()

    async def scenario():
        loop = asyncio.get_running_loop()
        errors = []
        loop.set_exception_handler(lambda _loop, ctx: errors.append(ctx))
        master = MasterServer(node_id=0, num_nodes=2, workers=1)
        server = await asyncio.start_server(odd_peer, "127.0.0.1", 0)
        await master.start()
        try:
            await master.connect_peer(
                1, "127.0.0.1", server.sockets[0].getsockname()[1])
            peer = master.peers[1]
            bad = peer.submit(Request(7, 0.0, RequestKind.DYNAMIC,
                                      0.001, 0.0))
            with pytest.raises(PeerError, match="malformed"):
                await asyncio.wait_for(bad.future, 10.0)
            good = peer.submit(Request(8, 0.0, RequestKind.DYNAMIC,
                                       0.001, 0.0))
            used = await asyncio.wait_for(good.future, 10.0)
            state = (peer.connected, peer.malformed, peer.completed,
                     master.role_acks)
        finally:
            await master.stop()
            server.close()
            await server.wait_closed()
        return errors, used, state

    errors, used, state = asyncio.run(scenario())
    assert errors == []
    assert used == (0.001, 0.0)
    assert state == (True, 5, 1, [])


def test_cgi_frame_without_an_integer_id_is_refused_and_serving_goes_on():
    """On a node's CGI port, a ``cgi`` frame with no ``id`` or an
    unhashable one is answered with an ``error`` frame; the connection
    then still serves a well-formed call from admit to done."""

    async def scenario():
        loop = asyncio.get_running_loop()
        errors = []
        loop.set_exception_handler(lambda _loop, ctx: errors.append(ctx))
        master = MasterServer(node_id=0, num_nodes=2, workers=1)
        await master.start()
        try:
            reader, writer = await asyncio.open_connection(
                master.host, master.cgi_port)
            protocol.send_message(writer, protocol.hello(1))
            await protocol.expect_hello(reader)
            for frame in ({"op": "cgi"},
                          {"op": "cgi", "id": [1], "cpu": 0.001},
                          {"op": "cgi", "id": 5, "cpu": 0.001, "io": 0.0}):
                protocol.send_message(writer, frame)
            await writer.drain()
            replies = []
            while not replies or replies[-1].get("op") != "done":
                msg = await asyncio.wait_for(
                    protocol.read_message(reader), 10.0)
                assert msg is not None, f"connection dropped after {replies}"
                replies.append(msg)
            # Let the handler see EOF and close before the service stops.
            writer.write_eof()
            assert await asyncio.wait_for(reader.read(), 10.0) == b""
            writer.close()
        finally:
            await master.stop()
        return errors, replies

    errors, replies = asyncio.run(scenario())
    assert errors == []
    assert [(m["op"], m["id"]) for m in replies] == [
        ("error", None), ("error", None),
        ("admit", 5), ("start", 5), ("done", 5)]
