"""repro — reproduction of "Scheduling Optimization for Resource-Intensive
Web Requests on Server Clusters" (Zhu, Smith & Yang, SPAA 1999).

Subpackages
-----------
``repro.core``
    The paper's contribution: the stretch-factor metric, the multi-class
    queuing models for the flat and master/slave architectures, Theorem 1
    (master sizing and the theta bounds), RSRC cost prediction, offline
    demand sampling, the adaptive reservation controller, and the dispatch
    policies (M/S and its ablations).
``repro.sim``
    The trace-driven cluster simulator: event engine, BSD-style CPU
    scheduler, round-robin disk, demand-paged VM, nodes, load monitor,
    cluster assembly and metrics.
``repro.workload``
    Table-1 trace specs, SPECweb96 file mix, CGI demand profiles, synthetic
    trace generation, the replay entry point (every simulated run drains
    through ``Cluster.replay``) and the noise model — background jobs and
    demand jitter — that ``replay(..., noise=...)`` adds to stand in for
    the paper's 6-node Sun cluster (Table 3 validation).
``repro.analysis``
    Experiment harnesses regenerating every table and figure.

Quickstart
----------
>>> from repro import Workload, optimal_masters
>>> w = Workload.from_ratios(lam=750, a=0.25, mu_h=1200, r=1/40, p=32)
>>> design = optimal_masters(w)
>>> design.m >= 1
True
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

# Exported names by defining module, resolved on first access (see
# repro._lazy): ``import repro`` stays cheap for processes that need only
# a corner of the package, such as the live slaves.
_EXPORTS = {
    # core
    "repro.core.policies": (
        "Policy", "Route", "FlatPolicy", "RoundRobinPolicy",
        "LeastActivePolicy", "DNSAffinityPolicy",
        "MSPolicy", "MSPrimePolicy", "RedirectMSPolicy", "HeteroMSPolicy",
        "make_ms", "make_ms_ns", "make_ms_nr", "make_ms_1", "make_policy"),
    "repro.core.caching": ("CGICache", "CachingMSPolicy"),
    "repro.core.queuing": (
        "Workload", "MSStretch", "flat_stretch", "ms_stretch",
        "msprime_stretch", "best_msprime"),
    "repro.core.theorem": (
        "MSDesign", "optimal_masters", "theta_bounds", "theta_opt",
        "min_masters", "reservation_ratio"),
    "repro.core.hetero": (
        "HeteroDesign", "optimal_masters_hetero", "hetero_ms_stretch",
        "hetero_flat_stretch", "hetero_reservation_ratio"),
    "repro.core.rsrc": ("rsrc_cost", "select_min_rsrc"),
    "repro.core.sampling": ("DemandSampler",),
    "repro.core.reservation": (
        "ReservationGate", "ReservationController", "ReservationConfig"),
    "repro.core.stretch": (
        "stretch_factor", "combine_stretch", "improvement_percent"),
    "repro.analysis.planner": (
        "ClusterPlan", "size_cluster", "max_sustainable_rate", "headroom"),
    # sim
    "repro.sim.cluster": ("Cluster",),
    "repro.sim.config": (
        "SimConfig", "ConnectionConfig", "paper_sim_config",
        "testbed_sim_config"),
    "repro.sim.metrics": ("MetricsReport",),
    "repro.sim.failures": (
        "FailurePolicy", "FailureInjector", "RecruitmentSchedule"),
    # workload
    "repro.workload.request": ("Request", "RequestKind"),
    "repro.workload.generator": ("generate_trace", "trace_statistics"),
    "repro.workload.replay": ("replay", "ReplayResult", "pretrain_sampler"),
    "repro.workload.io": ("save_trace", "load_trace"),
    "repro.workload.clf": ("import_clf", "CLFImportOptions"),
    "repro.workload.sessions": ("sessionize", "SessionConfig"),
    "repro.workload.traces": (
        "TRACES", "EXPERIMENT_TRACES", "DEC", "UCB", "KSU", "ADL",
        "get_trace"),
}
__getattr__, __all__ = lazy_exports(__name__, _EXPORTS)
__all__ += ["__version__"]
