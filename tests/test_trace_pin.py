"""Exact pin of every synthetic trace generator.

Each trace is hashed field by field: every :class:`Request` field of every
request contributes its Python type name and its ``repr`` (so a float is
pinned to the last bit and a numpy scalar where a Python number belongs
changes the digest).  The digests were recorded before the generators were
rewritten to construct requests from whole numpy columns; a change here is
a change to the generated workload, not to how fast it is made.
"""

import dataclasses
import hashlib

import pytest

from repro.analysis.experiments import DriftPhase, drift_trace, iso_load_rate
from repro.analysis.validation import exponential_trace
from repro.workload.generator import generate_trace
from repro.workload.noise import jitter_demands
from repro.workload.request import Request, RequestKind
from repro.workload.traces import ADL, KSU, UCB

MU_H = 1200.0
R = 1.0 / 40
_FIELDS = tuple(f.name for f in dataclasses.fields(Request))


def trace_digest(requests) -> str:
    """sha256 over the type and ``repr`` of every field of every request."""
    h = hashlib.sha256()
    for req in requests:
        for name in _FIELDS:
            value = getattr(req, name)
            h.update(f"{type(value).__name__}:{value!r};".encode())
        h.update(b"\n")
    return h.hexdigest()


def _drift():
    phases = [DriftPhase(pct_cgi=44.3, utilization=0.85, duration=4.0),
              DriftPhase(pct_cgi=20.0, utilization=0.85, duration=4.0)]
    return drift_trace(ADL, phases, MU_H, 1.0 / 80, 8, seed=3)


TRACES = {
    "ucb_by_n": lambda: generate_trace(
        UCB, rate=iso_load_rate(UCB, MU_H, R, 32, 0.75), n=6000,
        mu_h=MU_H, r=R, seed=1),
    "adl_by_duration": lambda: generate_trace(
        ADL, rate=400.0, duration=10.0, mu_h=MU_H, r=1.0 / 80, seed=2,
        start=1.5),
    "ksu_cacheable": lambda: generate_trace(
        KSU, rate=300.0, n=4000, mu_h=MU_H, r=R, seed=4,
        cacheable_fraction=0.3, distinct_queries=50),
    "ucb_uniform": lambda: generate_trace(
        UCB, rate=250.0, n=3000, mu_h=MU_H, r=R, seed=5,
        arrival="uniform"),
    "adl_drift": _drift,
    "ucb_jitter": lambda: jitter_demands(
        generate_trace(UCB, rate=500.0, n=3000, mu_h=MU_H, r=R, seed=6),
        0.15, seed=7),
    "exponential_static": lambda: exponential_trace(
        lam=200.0, mean_demand=0.002, duration=10.0, seed=8),
    "exponential_dynamic": lambda: exponential_trace(
        lam=50.0, mean_demand=0.02, duration=10.0, seed=9,
        kind=RequestKind.DYNAMIC, start_id=10_000),
}

#: Recorded on the per-element generators; see the module docstring.
EXPECTED = {
    "ucb_by_n":
        "cbcad56afd03b139050b47ffc5e7b363a6878b5110cce0f99be80a3f1d939749",
    "adl_by_duration":
        "780407ff659b70001251e4796bb4f459c392e310ccf1b22f3c0e19d673de6731",
    "ksu_cacheable":
        "1b6c7c304a63c3881bad17c91289fbef27ab808f7ae5b4019aa5ba3e3aae3bfa",
    "ucb_uniform":
        "fddac49100aefa5a3f7a380f83fccd7b9d329a374fbca9efbcb4f246aa757584",
    "adl_drift":
        "8d69445d7d64d017c9d264faa5da0de72542879d2ace3cb166026428b86c9576",
    "ucb_jitter":
        "f9630bf274d69745494b363bdc32189d93480a1468809b4a6cf5177641605829",
    "exponential_static":
        "878270419c14292da463f42c947a42b7d7af4f46d4dfd7bfeb5469702b8f2cf1",
    "exponential_dynamic":
        "dde91c0fa9710fe77174fc0a3389374c5393d6075262de6bc39db90ca8a0b1c6",
}


@pytest.mark.parametrize("name", sorted(TRACES))
def test_trace_is_bit_identical(name):
    assert trace_digest(TRACES[name]()) == EXPECTED[name]


def test_digest_sees_types_and_last_bits():
    req = Request(0, 1.0, RequestKind.STATIC, 0.001, 0.0)
    base = trace_digest([req])
    nudged = dataclasses.replace(req, cpu_demand=0.001 + 2 ** -62)
    assert nudged.cpu_demand != req.cpu_demand
    assert trace_digest([nudged]) != base
    assert trace_digest([dataclasses.replace(req, mem_pages=False)]) != base


if __name__ == "__main__":  # pragma: no cover - re-record helper
    for key in sorted(TRACES):
        print(f'    "{key}": "{trace_digest(TRACES[key]())}",')
