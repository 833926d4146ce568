"""Wire protocol of the live cluster: length-prefixed JSON frames.

The paper ships remote CGI work between nodes over persistent TCP
connections because "the overhead of passing a request to another node is
small" only when connection setup is amortised.  The live cluster does the
same: every master keeps one long-lived connection per peer node and
multiplexes request frames over it.

A *frame* is a 4-byte big-endian unsigned length followed by that many
payload bytes.  Payloads are compact JSON objects ("messages") with an
``op`` field.  The codec layer (:func:`encode_frame`,
:class:`FrameDecoder`) is pure and synchronous so it can be unit-tested
without sockets; thin asyncio helpers (:func:`read_frame`,
:func:`send_message`) adapt it to stream pairs.

Message vocabulary
------------------
master -> node:

``{"op": "hello", "proto": 1, "sender": <node_id>}``
    Connection handshake; the peer answers with its own hello.
``{"op": "cgi", "id": R, "cpu": s, "io": s, "mem": pages, "type": key}``
    Execute one dynamic request: burn ``cpu`` seconds of CPU and ``io``
    seconds of simulated disk, then report back.
``{"op": "ping", "id": N}``
    Liveness probe; answered by ``pong``.
``{"op": "role", "node": N, "role": "master"|"slave", "seq": K}``
    Control-plane role transition (repro.control): the node is told it
    has been promoted to master or demoted to slave.  Execution
    semantics are unchanged — the node keeps serving whatever CGI
    frames it is sent (a demoted master finishes its in-flight work,
    the graceful-drain principle applied to the role) — the frame keeps
    the node's own records in step and is acknowledged with
    ``role_ok``.  Nodes predating this op ignore it (unknown ops are
    skipped for forward compatibility), which is exactly the right
    degraded behaviour: roles are enforced master-side by the dispatch
    policy.

node -> master (all tagged with the request id they concern):

``{"op": "admit", "id": R}``
    The request was accepted and queued behind the worker pool.
``{"op": "start", "id": R}``
    A worker began executing the request.
``{"op": "done", "id": R, "cpu": s, "io": s}``
    Execution finished; ``cpu``/``io`` are the *measured* seconds, which
    the master feeds back into its online demand sampler.
``{"op": "error", "id": R, "reason": str}``
    Execution failed; the master aborts the request.
``{"op": "pong", "id": N}``
``{"op": "role_ok", "node": N, "role": str, "seq": K}``
    Acknowledges a ``role`` frame; the master records it as a CONTROL
    span so the trace shows the node observed its transition.

TCP preserves per-connection order, so a request's ``admit`` frame always
arrives before its ``start``, and ``start`` before ``done`` — the master
records observability spans in frame-arrival order and the stream stays
lifecycle-consistent for ``repro trace --audit``.

Heartbeat datagram
------------------
Load reports travel beside the frames, one UDP datagram per heartbeat
(JSON, no length prefix; :func:`encode_heartbeat` /
:func:`decode_heartbeat`)::

    {"node": 3, "seq": 17, "cpu_idle": 0.93, "disk_avail": 0.71, "active": 2}

Sequence numbers are per-node monotonic; the receiving load table drops
reordered or replayed packets (UDP may duplicate and reorder even on
loopback).
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import List, Optional

#: Protocol version exchanged in the hello handshake.
PROTO_VERSION = 1

#: Frame length prefix: 4-byte big-endian unsigned.
_LEN = struct.Struct(">I")

#: Upper bound on a single frame's payload.  Control messages are tiny;
#: anything larger is a corrupt stream (e.g. a peer speaking HTTP at us).
MAX_FRAME = 1 << 20


class ProtocolError(ValueError):
    """A malformed frame or message was received."""


def encode_frame(payload: bytes) -> bytes:
    """Prefix ``payload`` with its 4-byte big-endian length.

    >>> encode_frame(b"ab")
    b'\\x00\\x00\\x00\\x02ab'
    """
    if len(payload) > MAX_FRAME:
        raise ProtocolError(f"frame too large: {len(payload)} > {MAX_FRAME}")
    return _LEN.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental frame parser: feed arbitrary byte chunks, get frames.

    >>> dec = FrameDecoder()
    >>> dec.feed(encode_frame(b"hi")[:3])   # partial prefix: nothing yet
    []
    >>> dec.feed(encode_frame(b"hi")[3:])
    [b'hi']
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> List[bytes]:
        """Consume ``data``; return every frame completed by it, in order."""
        self._buf.extend(data)
        frames: List[bytes] = []
        while True:
            if len(self._buf) < _LEN.size:
                return frames
            (length,) = _LEN.unpack_from(self._buf)
            if length > MAX_FRAME:
                raise ProtocolError(
                    f"frame length {length} exceeds MAX_FRAME {MAX_FRAME}")
            end = _LEN.size + length
            if len(self._buf) < end:
                return frames
            frames.append(bytes(self._buf[_LEN.size:end]))
            del self._buf[:end]

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buf)


# -- message layer ------------------------------------------------------------


def encode_message(msg: dict) -> bytes:
    """Serialise a message dict into one ready-to-send frame."""
    if "op" not in msg:
        raise ProtocolError(f"message without op: {msg!r}")
    return encode_frame(
        json.dumps(msg, separators=(",", ":")).encode("utf-8"))


#: What ``json.loads`` raises on hostile bytes: ``ValueError`` covers bad
#: text or JSON (``UnicodeDecodeError``, ``JSONDecodeError``) and integers
#: too long to convert; nesting past the recursion limit raises
#: ``RecursionError``.
_UNDECODABLE = (ValueError, RecursionError)


def decode_message(payload: bytes) -> dict:
    """Parse one frame payload into a message dict (validates ``op``)."""
    try:
        msg = json.loads(payload)
    except _UNDECODABLE as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from None
    if not isinstance(msg, dict) or "op" not in msg:
        raise ProtocolError(f"frame is not an op message: {msg!r}")
    return msg


def hello(sender: int) -> dict:
    return {"op": "hello", "proto": PROTO_VERSION, "sender": sender}


# -- asyncio adapters ---------------------------------------------------------


async def read_frame(reader: asyncio.StreamReader) -> Optional[bytes]:
    """Read one frame payload; ``None`` on clean EOF at a frame boundary."""
    try:
        prefix = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("EOF inside a frame length prefix") from None
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME:
        raise ProtocolError(
            f"frame length {length} exceeds MAX_FRAME {MAX_FRAME}")
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("EOF inside a frame body") from None


async def read_message(reader: asyncio.StreamReader) -> Optional[dict]:
    """Read one message; ``None`` on clean EOF."""
    payload = await read_frame(reader)
    return None if payload is None else decode_message(payload)


def send_message(writer: asyncio.StreamWriter, msg: dict) -> None:
    """Queue one message on ``writer`` (no await; a frame is appended to
    the transport buffer atomically, so concurrent senders cannot
    interleave partial frames)."""
    writer.write(encode_message(msg))


async def expect_hello(reader: asyncio.StreamReader) -> dict:
    """Read and validate the handshake message."""
    msg = await read_message(reader)
    if msg is None:
        raise ProtocolError("peer closed before hello")
    if msg.get("op") != "hello" or msg.get("proto") != PROTO_VERSION:
        raise ProtocolError(f"bad hello: {msg!r}")
    return msg


def encode_heartbeat(node_id: int, seq: int, cpu_idle: float,
                     disk_avail: float, active: int) -> bytes:
    return json.dumps(
        {"node": node_id, "seq": seq, "cpu_idle": cpu_idle,
         "disk_avail": disk_avail, "active": active},
        separators=(",", ":")).encode("utf-8")


def decode_heartbeat(data: bytes) -> Optional[dict]:
    """Parse one datagram; ``None`` for garbage (UDP is unauthenticated)."""
    try:
        msg = json.loads(data)
    except _UNDECODABLE:
        return None
    if not isinstance(msg, dict) or "node" not in msg or "seq" not in msg:
        return None
    return msg
