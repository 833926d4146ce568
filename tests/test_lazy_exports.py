"""The package ``__init__`` modules export lazily (PEP 562): every name
resolves on first access to the object its defining module holds."""

from __future__ import annotations

import importlib
import subprocess
import sys

import pytest

import repro
import repro.live


@pytest.mark.parametrize("package", [repro, repro.live],
                         ids=["repro", "repro.live"])
def test_exports_resolve_to_defining_module_objects(package):
    exported = []
    for module, names in package._EXPORTS.items():
        # Import the defining module first: the package must keep the
        # export bound even over a same-named submodule
        # (repro.live.validate).
        source = importlib.import_module(module)
        for name in names:
            assert getattr(package, name) is getattr(source, name), name
            exported.append(name)
    assert sorted(set(package.__all__) - {"__version__"}) == sorted(exported)
    assert len(exported) == len(set(exported))


def test_star_import_and_unknown_names():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    for package in (repro, repro.live):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            getattr(package, "nope")
    with pytest.raises(ImportError):
        exec("from repro.live import nope", {})
    # Submodules not in the export table still import as attributes.
    from repro.live import protocol
    assert protocol is sys.modules["repro.live.protocol"]


def test_package_imports_load_nothing_until_used():
    code = ("import sys, repro, repro.live; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.') "
            "and m != 'repro.live' or m == 'numpy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "['repro._lazy']"


def test_cli_parser_leaves_the_simulator_harness_unloaded():
    """``repro serve`` builds the whole parser; that alone must not import
    the experiment harness or the simulator's replay."""
    heavy = ("repro.analysis.experiments", "repro.analysis.sweep",
             "repro.workload.replay", "repro.sim.cluster")
    code = ("import sys; from repro.analysis.cli import build_parser; "
            f"build_parser(); print([m for m in {heavy!r} "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_live_master_leaves_the_simulator_unloaded():
    """The live master shares the simulator's load table, but booting it
    must not import the event engine, the node model or the cluster."""
    heavy = ("repro.sim.engine", "repro.sim.node", "repro.sim.cluster")
    code = ("import sys; import repro.live.master; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
