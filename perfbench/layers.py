"""Per-layer metrics: their units, and the profile map from source module
to layer.

Layers are named after the program's modules. A profile frame is mapped
by the file it lives in; interpreter built-ins and NumPy get layers of
their own, so the share left unmapped is what no layer claims.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

#: Per-layer metric name -> unit, grouped by layer in print order.
PER_LAYER = {
    # workload generation + cluster build
    "setup.trace_s": "s",
    "setup.build_s": "s",
    "setup.boot_s": "s",
    # sim.engine
    "engine.events": "count",
    "engine.events_per_req": "ratio",
    "engine.self_frac": "ratio",
    # sim.cpu
    "cpu.self_frac": "ratio",
    "cpu.switches": "count",
    "cpu.preemptions": "count",
    "cpu.busy_frac_master": "ratio",
    "cpu.busy_frac_slave": "ratio",
    # sim.node + sim.process
    "node.self_frac": "ratio",
    "node.backlog_wait_ms": "ms",
    "node.backlog_admit_frac": "ratio",
    # sim.disk
    "disk.self_frac": "ratio",
    "disk.busy_frac": "ratio",
    "disk.slices": "count",
    # sim.memory
    "memory.self_frac": "ratio",
    "memory.faults": "count",
    "memory.refaults": "count",
    "memory.steals": "count",
    # dispatch: core.policies, core.reservation, core.rsrc, core.sampling
    "dispatch.self_frac": "ratio",
    "dispatch.route_us": "us",
    "dispatch.remote_frac": "ratio",
    "dispatch.master_dyn_frac": "ratio",
    "dispatch.theta_cap": "ratio",
    "dispatch.denied": "count",
    # sim.cluster + sim.monitor
    "cluster.self_frac": "ratio",
    # control
    "control.self_frac": "ratio",
    "control.ticks": "count",
    "control.actions": "count",
    # sim.metrics + interpreter
    "metrics.self_frac": "ratio",
    "builtins.self_frac": "ratio",
    "numpy.self_frac": "ratio",
    "py.calls_per_req": "ratio",
    "profile.mapped_frac": "ratio",
    # the benchmark's own load generator
    "gen.late_p99_ms": "ms",
    "gen.conns": "count",
    # live.master event loop
    "loop.lag_p99_ms": "ms",
    # live.master HTTP front end
    "http.overhead_p50_ms": "ms",
    "http.overhead_p99_ms": "ms",
    # live.loadd
    "loadd.heartbeats": "count",
    "loadd.rejected": "count",
    "loadd.suspect_max": "count",
    # live.node WorkerPool
    "pool.static_wait_p99_ms": "ms",
    "pool.dynamic_wait_p99_ms": "ms",
    "pool.backlog_admit_frac": "ratio",
    # live.kernel
    "exec.cpu_overshoot_frac": "ratio",
    "exec.io_overshoot_frac": "ratio",
    # peer hop: live.protocol, PeerConnection, CGIService
    "peer.admit_hop_p50_ms": "ms",
    "peer.return_hop_p50_ms": "ms",
    # request ledger
    "ledger.completed": "count",
    "ledger.balance": "count",
    # tracing
    "trace.overhead_frac": "ratio",
}

#: Profile layer -> source files (relative to the ``repro`` package).
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "engine": ("sim/engine.py",),
    "cpu": ("sim/cpu.py",),
    "node": ("sim/node.py", "sim/process.py"),
    "disk": ("sim/disk.py",),
    "memory": ("sim/memory.py",),
    "dispatch": ("core/policies.py", "core/reservation.py",
                 "core/rsrc.py", "core/sampling.py"),
    "cluster": ("sim/cluster.py", "sim/monitor.py"),
    "control": ("control/",),
    "metrics": ("sim/metrics.py",),
}

#: Layers whose self-time share is reported, with the ``*.self_frac`` name.
SELF_FRAC_LAYERS = tuple(LAYER_MODULES) + ("builtins", "numpy")


def layer_of(filename: str, funcname: str) -> str:
    """The layer a profile frame belongs to (``"other"`` if none).

    >>> layer_of("/x/src/repro/sim/cpu.py", "dispatch")
    'cpu'
    >>> layer_of("~", "<method 'append' of 'list' objects>")
    'builtins'
    >>> layer_of("~", "<method 'reduce' of 'numpy.ufunc' objects>")
    'numpy'
    """
    path = filename.replace("\\", "/")
    if path == "~":
        return "numpy" if "numpy" in funcname else "builtins"
    if "/numpy/" in path:
        return "numpy"
    marker = path.rfind("/repro/")
    if marker >= 0:
        rel = path[marker + len("/repro/"):]
        for layer, modules in LAYER_MODULES.items():
            if any(rel.startswith(m) for m in modules):
                return layer
    return "other"


def self_fractions(entries: Iterable[Tuple[str, str, float]]
                   ) -> Dict[str, float]:
    """Share of total self-time per layer from ``(file, func, self_s)``."""
    totals: Dict[str, float] = {}
    for filename, funcname, self_s in entries:
        layer = layer_of(filename, funcname)
        totals[layer] = totals.get(layer, 0.0) + self_s
    grand = sum(totals.values()) or 1.0
    return {layer: t / grand for layer, t in totals.items()}
