"""Unit tests for the demand-paged virtual-memory manager."""

import pytest

from repro.sim.config import MemoryConfig
from repro.sim.memory import MemoryManager
from repro.sim.process import CPU_BURST, SimProcess
from tests.conftest import make_cgi


def make_mm(**overrides):
    cfg = MemoryConfig(**overrides)
    cfg.validate()
    return MemoryManager(cfg)


def proc(pages, rid=0):
    req = make_cgi(req_id=rid, mem_pages=pages)
    return SimProcess(req, 0, [(CPU_BURST, 0.01)], admit_time=0.0)


class TestAdmitRelease:
    def test_admit_grants_working_set(self):
        mm = make_mm(total_pages=1024, reserved_pages=0)
        p = proc(100)
        mm.admit(p)
        assert p.resident_pages == 100
        assert mm.free_pages == 924
        assert mm.used_pages == 100

    def test_release_returns_pages(self):
        mm = make_mm(total_pages=1024, reserved_pages=0)
        p = proc(100)
        mm.admit(p)
        mm.release(p)
        assert mm.free_pages == 1024
        assert p.resident_pages == 0

    def test_release_is_idempotent(self):
        mm = make_mm(total_pages=1024, reserved_pages=0)
        p = proc(100)
        mm.admit(p)
        mm.release(p)
        mm.release(p)
        assert mm.free_pages == 1024

    def test_zero_pages_needs_nothing(self):
        mm = make_mm()
        p = proc(0)
        assert mm.admit(p) == 0
        assert p.resident_pages == 0

    def test_paging_disabled_grants_nothing(self):
        mm = make_mm(enable_paging=False)
        p = proc(500)
        assert mm.admit(p) == 0
        assert mm.free_pages == mm.cfg.total_pages - mm.cfg.reserved_pages

    def test_coldstart_faults_proportional(self):
        mm = make_mm(total_pages=1024, reserved_pages=0,
                     coldstart_fraction=0.25)
        cold = mm.admit(proc(100))
        assert cold == 25
        assert mm.faults == 25


class TestStealing:
    def test_steal_from_largest_resident(self):
        mm = make_mm(total_pages=1000, reserved_pages=0,
                     refault_fraction=0.5)
        big = proc(600, rid=1)
        small = proc(200, rid=2)
        mm.admit(big)
        mm.admit(small)
        newcomer = proc(300, rid=3)
        mm.admit(newcomer)
        # Shortfall of 100 pages stolen from the biggest resident.
        assert big.resident_pages == 500
        assert newcomer.resident_pages == 300
        assert mm.steals == 100
        assert big.pending_fault_pages == 50

    def test_collect_refaults_drains(self):
        mm = make_mm(total_pages=1000, reserved_pages=0)
        victim = proc(800, rid=1)
        mm.admit(victim)
        mm.admit(proc(400, rid=2))
        pending = victim.pending_fault_pages
        assert pending > 0
        assert mm.collect_refaults(victim) == pending
        assert victim.pending_fault_pages == 0
        assert mm.collect_refaults(victim) == 0

    def test_oversubscription_grants_what_exists(self):
        mm = make_mm(total_pages=100, reserved_pages=0)
        p = proc(500)
        mm.admit(p)
        assert p.resident_pages == 100
        assert mm.free_pages == 0

    def test_pressure_range(self):
        mm = make_mm(total_pages=1000, reserved_pages=200)
        assert mm.pressure == pytest.approx(0.0)
        mm.admit(proc(400))
        assert mm.pressure == pytest.approx(0.5)


class TestFileCache:
    def test_miss_probability_grows_with_pressure(self):
        mm = make_mm(total_pages=1000, reserved_pages=0,
                     static_miss_base=0.02, static_miss_max=0.95)
        low = mm.static_miss_probability()
        mm.admit(proc(800))
        high = mm.static_miss_probability()
        assert low == pytest.approx(0.02)
        assert high > low
        assert high == pytest.approx(0.02 + 0.93 * 0.8)

    def test_miss_probability_bounded(self):
        mm = make_mm(total_pages=100, reserved_pages=0)
        mm.admit(proc(100))
        assert 0.0 <= mm.static_miss_probability() <= 0.95 + 1e-12


class TestConfigValidation:
    def test_bad_reserved(self):
        with pytest.raises(ValueError):
            MemoryConfig(total_pages=100, reserved_pages=100).validate()

    def test_bad_miss_ordering(self):
        with pytest.raises(ValueError):
            MemoryConfig(static_miss_base=0.9, static_miss_max=0.1).validate()

    def test_bad_coldstart(self):
        with pytest.raises(ValueError):
            MemoryConfig(coldstart_fraction=1.5).validate()
