"""The list-based RSRC dispatch reproduces the numpy formula bit for bit.

Dynamic dispatch ranks nodes by Equation 5 on idle ratios discounted by
``HERDING_DISCOUNT ** outstanding``.  The policies compute this on plain
float lists, with one cached discount per node refreshed through numpy's
array ``power`` kernel.  The reference here is the array formula the
lists replaced — ``idle * 0.5 ** outstanding`` over every node, then
``rsrc_cost``, ``argmin`` and the ``TIE_TOLERANCE`` tie set drawn with
``Generator.integers`` — and every node choice, traced ``rsrc_cost``
and final generator state must equal it.
"""

import numpy as np
import pytest

from repro.core.draws import BlockStream
from repro.core.policies import (HERDING_DISCOUNT, HeteroMSPolicy, MSPolicy,
                                 make_ms)
from repro.core.rsrc import (IDLE_FLOOR, TIE_TOLERANCE, rsrc_cost,
                             select_min_rsrc)
from repro.core.sampling import DemandSampler
from tests.conftest import make_cgi, make_static
from tests.test_policies import FakeView

P = 8
SPEEDS = [1.0, 2.0, 0.5, 1.0, 3.0, 1.0, 0.75, 2.0]


def numpy_ties(w, cpu, disk, candidates):
    """Indices into ``candidates`` of the tie set, first minimum first."""
    costs = rsrc_cost(w, cpu, disk)[np.asarray(candidates, dtype=np.intp)]
    first = int(costs.argmin())
    return (costs <= costs[first] + TIE_TOLERANCE).nonzero()[0]


def numpy_select(w, cpu, disk, candidates, rng):
    """Min-RSRC choice on arrays; ``rng`` is a Generator, drawn from only
    on a tie."""
    cand = np.asarray(candidates, dtype=np.intp)
    ties = numpy_ties(w, cpu, disk, candidates)
    if len(ties) > 1:
        return int(cand[ties[int(rng.integers(len(ties)))]])
    return int(cand[ties[0]])


class NumpyFormula:
    """Mixin: effective idle ratios and the min-RSRC pick computed on
    arrays, recomputing every node's discount on every dispatch."""

    def _effective_idle(self, view):
        g = HERDING_DISCOUNT
        return (self._cpu_scale() * view.cpu_idle_array()
                * g ** np.array(self._outstanding_cpu),
                self._disk_scale() * view.disk_avail_array()
                * g ** np.array(self._outstanding_disk))

    def _cpu_scale(self):
        return 1.0

    def _disk_scale(self):
        return 1.0


class NumpyMS(NumpyFormula, MSPolicy):
    pass


class NumpyHetero(NumpyFormula, HeteroMSPolicy):
    # Hetero ranks by (speed * idle) * discount.
    def _cpu_scale(self):
        return self.cpu_speeds

    def _disk_scale(self):
        return self.disk_speeds


def _loads(rng, quantized):
    """Idle ratios with exact zeros (clamped by IDLE_FLOOR) and, when
    ``quantized``, values on a 0.25 grid so costs tie exactly."""
    cpu = rng.uniform(0.0, 1.0, P)
    disk = rng.uniform(0.0, 1.0, P)
    if quantized:
        cpu, disk = cpu.round(0) * 0.5 + 0.5, (disk * 4).round() / 4
    cpu[rng.random(P) < 0.1] = 0.0
    disk[rng.random(P) < 0.1] = 0.0
    return cpu, disk


def _trained_sampler(rng):
    sampler = DemandSampler()
    for family in range(5):
        for _ in range(3):
            sampler.observe(f"cgi:{family}", float(rng.uniform(0, 0.05)),
                            float(rng.uniform(0, 0.05)))
    return sampler


def _drive(policy, seed, quantized):
    """Route a mixed stream under drifting loads, completing some
    requests so outstanding work rises and falls; returns every
    decision with its traced verdict."""
    rng = np.random.default_rng(seed)
    policy.trace_decisions = True
    out, in_flight = [], []
    for step in range(60):
        view = FakeView(P, *_loads(rng, quantized))
        for j in range(10):
            req_id = step * 10 + j
            req = (make_cgi(req_id=req_id, type_key=f"cgi:{req_id % 5}")
                   if j % 2 else make_static(req_id=req_id))
            policy.last_decision = None
            route = policy.route(req, view)
            out.append((route.node_id, route.remote, policy.last_decision))
            if j % 2:
                in_flight.append((req, route.node_id))
        # Complete a random third of the in-flight work.
        keep = []
        for req, node in in_flight:
            if rng.random() < 0.33:
                policy.on_complete(req, 0.01, False, node)
            else:
                keep.append((req, node))
        in_flight = keep
    return out


def _numpy_select_on_generator(w, cpu, disk, candidates, rng):
    # The pre-list dispatch drew ties from the generator itself.
    if isinstance(rng, BlockStream):
        rng = rng.generator
    return numpy_select(w, cpu, disk, candidates, rng)


POLICIES = {
    "ms-sampled": lambda cls, s: cls(
        P, 3, sampler=_trained_sampler(np.random.default_rng(s)), seed=s),
    "ms-w0": lambda cls, s: cls(P, 3, use_sampling=False, default_w=0.0,
                                seed=s),
    "ms-w1": lambda cls, s: cls(P, 3, use_sampling=False, default_w=1.0,
                                seed=s),
    "ms-1": lambda cls, s: cls(P, P, use_sampling=False, seed=s),
}


@pytest.mark.parametrize("quantized", [False, True])
@pytest.mark.parametrize("name", sorted(POLICIES) + ["hetero"])
def test_policy_dispatch_matches_numpy_formula(name, quantized,
                                               monkeypatch):
    seed = 21
    if name == "hetero":
        def build(cls):
            return cls(P, 3, cpu_speeds=SPEEDS,
                       disk_speeds=SPEEDS[::-1],
                       sampler=_trained_sampler(np.random.default_rng(seed)),
                       seed=seed)
        new, ref = build(HeteroMSPolicy), build(NumpyHetero)
    else:
        new = POLICIES[name](MSPolicy, seed)
        ref = POLICIES[name](NumpyMS, seed)
    got = _drive(new, 5, quantized)
    monkeypatch.setattr("repro.core.policies.select_min_rsrc",
                        _numpy_select_on_generator)
    want = _drive(ref, 5, quantized)
    assert got == want
    assert new.rng.bit_generator.state == ref.rng.bit_generator.state
    assert new._outstanding_cpu == ref._outstanding_cpu
    assert any(new._outstanding_cpu + new._outstanding_disk)


@pytest.mark.parametrize("w", [0.0, 1.0, 0.37, 0.5])
def test_select_matches_numpy_formula(w):
    rng = np.random.default_rng(11)
    tied = 0
    for trial in range(400):
        cpu, disk = _loads(rng, quantized=trial % 2 == 0)
        size = int(rng.integers(1, P + 1))
        cand = rng.permutation(P)[:size].tolist()
        seed = int(rng.integers(2**32))
        stream = BlockStream(np.random.default_rng(seed))
        stream.integers(3)      # hold a block, as the policy's stream does
        plain = np.random.default_rng(seed)
        plain.integers(3)
        got = select_min_rsrc(w, cpu.tolist(), disk.tolist(), cand, stream)
        assert got == numpy_select(w, cpu, disk, cand, plain)
        assert (stream.generator.bit_generator.state
                == plain.bit_generator.state)
        ties = numpy_ties(w, cpu, disk, cand)
        tied += len(ties) > 1
        # Without a generator the first minimum wins, as argmin picks it.
        assert select_min_rsrc(w, cpu, disk, cand) == cand[ties[0]]
    assert tied >= 20


def test_floor_clamps_zero_idle():
    cpu = [0.0, IDLE_FLOOR / 2, 1.0]
    disk = [0.0, 0.0, 0.0]
    assert select_min_rsrc(1.0, cpu, disk, [0, 1]) == 0
    assert select_min_rsrc(0.5, cpu, disk, [0, 1, 2]) == 2


def test_discount_cache_uses_array_kernel():
    """A cached discount equals the element numpy's array ``power``
    computes for the whole outstanding vector — which, on some inputs,
    is not what Python's ``**`` returns."""
    rng = np.random.default_rng(3)
    policy = make_ms(P, 2, seed=0)
    for _ in range(500):
        node = int(rng.integers(P))
        policy._outstanding_cpu[node] = float(rng.uniform(0, 6))
        policy._outstanding_disk[node] = float(rng.uniform(0, 6))
        policy._refresh_discount(node)
    full_cpu = (HERDING_DISCOUNT
                ** np.array(policy._outstanding_cpu)).tolist()
    full_disk = (HERDING_DISCOUNT
                 ** np.array(policy._outstanding_disk)).tolist()
    assert policy._discount_cpu == full_cpu
    assert policy._discount_disk == full_disk
