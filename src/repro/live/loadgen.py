"""Open-loop asynchronous load generator for the live cluster.

Replays a :mod:`repro.workload` trace against a master's HTTP port the
way the paper's experiments replay logs against the testbed: arrivals are
fired at their trace timestamps regardless of completions (open loop — a
slow server builds a backlog instead of throttling the offered load).
Each request is one HTTP ``GET /req`` carrying its identity, class, and
demand split; the response reports where the scheduler placed it and the
measured server-side response time.

The generator aggregates both views: client-observed latency (connect +
queue + service) and the server's own report, plus a client-side stretch
factor computed exactly like the simulator's metric (``mean(t_i/d_i)``
over completed requests).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.stretch import stretch_factor
from repro.workload.request import Request, RequestKind

#: Concurrent client connections cap (loopback fd hygiene).
_MAX_CONNECTIONS = 64


def request_target(request: Request) -> str:
    """The ``GET`` target encoding one trace request.

    >>> from repro.workload.request import Request, RequestKind
    >>> request_target(Request(req_id=7, arrival_time=0.0,
    ...                        kind=RequestKind.DYNAMIC, cpu_demand=0.004,
    ...                        io_demand=0.03, type_key="cgi:catalog"))
    '/req?id=7&kind=dynamic&cpu=0.004&io=0.03&type=cgi:catalog'
    """
    kind = "dynamic" if request.kind is RequestKind.DYNAMIC else "static"
    return (f"/req?id={request.req_id}&kind={kind}"
            f"&cpu={request.cpu_demand!r}&io={request.io_demand!r}"
            f"&type={request.type_key}")


async def http_get(host: str, port: int, target: str,
                   timeout: float = 60.0) -> Tuple[int, bytes]:
    """Minimal HTTP/1.1 GET over a fresh connection; returns (status, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write((f"GET {target} HTTP/1.1\r\nHost: {host}\r\n"
                      f"Connection: close\r\n\r\n").encode("latin-1"))
        await writer.drain()
        status_line = await asyncio.wait_for(reader.readline(), timeout)
        parts = status_line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ConnectionError(f"malformed status line {status_line!r}")
        status = int(parts[1])
        length: Optional[int] = None
        while True:
            header = await asyncio.wait_for(reader.readline(), timeout)
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        if length is not None:
            body = await asyncio.wait_for(reader.readexactly(length), timeout)
        else:
            body = await asyncio.wait_for(reader.read(), timeout)
        return status, body
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


@dataclass
class LoadGenResult:
    """Aggregate outcome of one load-generation run."""

    submitted: int = 0
    ok: int = 0
    denied: int = 0
    errors: int = 0
    #: Wall time from first fire to last completion, seconds.
    elapsed: float = 0.0
    #: (req_id, client_latency, server_response, demand, remote, on_master)
    completions: List[Tuple[int, float, float, float, bool, bool]] = (
        field(default_factory=list))
    error_messages: List[str] = field(default_factory=list)

    @property
    def client_stretch(self) -> float:
        """Client-observed stretch over completed requests."""
        if not self.completions:
            return float("nan")
        return stretch_factor([c[1] for c in self.completions],
                              [c[3] for c in self.completions])

    @property
    def server_stretch(self) -> float:
        """Server-reported stretch over completed requests."""
        if not self.completions:
            return float("nan")
        return stretch_factor([c[2] for c in self.completions],
                              [c[3] for c in self.completions])

    @property
    def remote_fraction(self) -> float:
        if not self.completions:
            return 0.0
        return sum(1 for c in self.completions if c[4]) / len(self.completions)

    def summary(self) -> dict:
        return {
            "submitted": self.submitted,
            "ok": self.ok,
            "denied": self.denied,
            "errors": self.errors,
            "elapsed": self.elapsed,
            "client_stretch": self.client_stretch,
            "server_stretch": self.server_stretch,
            "remote_fraction": self.remote_fraction,
        }


async def run_loadgen(host: str, port: int, trace: Sequence[Request],
                      time_scale: float = 1.0,
                      timeout: float = 60.0) -> LoadGenResult:
    """Replay ``trace`` open-loop against one master's HTTP endpoint.

    ``time_scale`` stretches (>1) or compresses (<1) the inter-arrival
    gaps — handy for running a virtual-seconds trace slower on a small
    host without regenerating it.
    """
    loop = asyncio.get_running_loop()
    result = LoadGenResult()
    sem = asyncio.Semaphore(_MAX_CONNECTIONS)
    ordered = sorted(trace, key=lambda q: q.arrival_time)
    if not ordered:
        return result
    base_arrival = ordered[0].arrival_time
    t0 = loop.time()

    async def fire(request: Request) -> None:
        async with sem:
            sent = loop.time()
            try:
                status, body = await http_get(
                    host, port, request_target(request), timeout=timeout)
            except (OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError) as exc:
                result.errors += 1
                result.error_messages.append(
                    f"req {request.req_id}: {exc!r}")
                return
            latency = loop.time() - sent
            if status == 200:
                payload = json.loads(body)
                result.ok += 1
                result.completions.append(
                    (request.req_id, latency,
                     float(payload.get("response", latency)),
                     request.demand, bool(payload.get("remote")),
                     bool(payload.get("on_master"))))
            elif status == 503:
                result.denied += 1
            else:
                result.errors += 1
                result.error_messages.append(
                    f"req {request.req_id}: HTTP {status}")

    tasks = []
    for request in ordered:
        due = t0 + (request.arrival_time - base_arrival) * time_scale
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        result.submitted += 1
        tasks.append(loop.create_task(fire(request)))
    if tasks:
        await asyncio.gather(*tasks)
    result.elapsed = loop.time() - t0
    return result


def class_counts(trace: Sequence[Request]) -> Dict[str, int]:
    """Static/dynamic split of a trace (for run banners).

    >>> from repro.workload.request import Request, RequestKind
    >>> class_counts([Request(req_id=0, arrival_time=0.0,
    ...                       kind=RequestKind.STATIC, cpu_demand=1e-3,
    ...                       io_demand=0.0)])
    {'static': 1, 'dynamic': 0}
    """
    dyn = sum(1 for q in trace if q.kind is RequestKind.DYNAMIC)
    return {"static": len(trace) - dyn, "dynamic": dyn}
