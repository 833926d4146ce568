"""repro.live: the paper's master/slave cluster on real sockets.

Where :mod:`repro.sim` replays the SPAA'99 scheduler inside a
discrete-event model, ``repro.live`` runs the *same* scheduler objects —
:class:`~repro.core.policies.FrontEndMSPolicy` with its reservation
controller and demand sampler, fed through the
:class:`~repro.core.policies.LoadView` protocol — as an actual asyncio
serving cluster on localhost:

* :mod:`~repro.live.kernel` — calibrated CPU-burn / sleep realisation of
  request demands, plus the busy-time meter and the heartbeat daemon
  that reports it;
* :mod:`~repro.live.protocol` — length-prefixed JSON framing for the
  persistent remote-CGI connections, and the UDP heartbeat datagram;
* :mod:`~repro.live.loadd` — the master-side heartbeat endpoint, which
  decodes each node's heartbeat into a sample of the simulator's own
  :class:`~repro.sim.monitor.LoadTable` (rstat()-style smoothing,
  probation and staleness, judged on the master's clock), read by the
  policy through the one :class:`~repro.sim.monitor.LoadView` adapter;
* :mod:`~repro.live.node` — per-node worker pool, the framed CGI
  service, and the slave process entry point;
* :mod:`~repro.live.master` — the HTTP front end running the scheduler,
  emitting auditable ``repro.obs`` spans;
* :mod:`~repro.live.cluster` — loopback cluster orchestration (master
  in-process, slaves as subprocesses);
* :mod:`~repro.live.loadgen` — open-loop trace replay over HTTP;
* :mod:`~repro.live.validate` — live-vs-simulated stretch
  cross-validation.
"""

from repro._lazy import lazy_exports

# Exported names by defining module, resolved on first access (see
# repro._lazy): a slave process imports this package on its way to
# repro.live.slave and must not pay for numpy or the simulator.
_EXPORTS = {
    "repro.live.cluster": ("LiveCluster", "LiveClusterConfig"),
    "repro.live.kernel": (
        "BusyMeter", "LiveClock", "LoadReporter", "burn_cpu", "calibrate"),
    "repro.live.loadd": ("HeartbeatReceiver",),
    "repro.live.loadgen": ("LoadGenResult", "run_loadgen"),
    "repro.live.master": ("MasterServer", "PeerConnection"),
    "repro.live.node": ("CGIService", "WorkerPool", "run_slave"),
    "repro.live.validate": ("TOLERANCE", "ValidationResult", "validate"),
    # One load table and view serve both substrates.
    "repro.sim.monitor": ("LoadTable", "LoadView"),
}
__getattr__, __all__ = lazy_exports(__name__, _EXPORTS)
