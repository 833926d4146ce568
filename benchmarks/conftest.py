"""Shared benchmark configuration.

Every experiment benchmark prints the regenerated table/figure via
``emit()`` so ``pytest benchmarks/ --benchmark-only -s`` doubles as the
paper-reproduction report.  Scale is controlled by ``REPRO_BENCH_SCALE``:

* ``quick`` (default) — minutes: trimmed grids, 32-node clusters.
* ``full``  — the whole DESIGN.md §4 grid including 128-node clusters.

A bad ``REPRO_BENCH_SCALE`` is reported through ``pytest.UsageError``
(clean one-line error, exit code 4) rather than an import-time traceback:
raising here at import would abort collection with an INTERNALERROR-style
dump and, under ``-p no:cacheprovider``-less runs, poison the cache.
"""

from __future__ import annotations

import os

import pytest

_VALID_SCALES = ("quick", "full")

_RAW_SCALE = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()

#: Validated in :func:`pytest_configure`; benchmarks importing ``FULL``
#: before then see the quick-scale fallback, but no test runs with it —
#: a bad value aborts the session first.
SCALE = _RAW_SCALE if _RAW_SCALE in _VALID_SCALES else "quick"

FULL = SCALE == "full"


def pytest_configure(config: pytest.Config) -> None:
    if _RAW_SCALE not in _VALID_SCALES:
        raise pytest.UsageError(
            f"REPRO_BENCH_SCALE must be one of {'|'.join(_VALID_SCALES)}, "
            f"got {_RAW_SCALE!r}")
    if SCALE == "quick":
        # Quick-scale benches double as correctness smoke: run every
        # replay traced+audited (see src/repro/obs).  Full-scale runs
        # stay untraced — a 128-node Figure-4 grid would hold hundreds
        # of millions of spans.
        os.environ.setdefault("REPRO_AUDIT", "1")


def emit(text: str) -> None:
    """Print a rendered experiment artifact into the bench output."""
    print()
    print(text)


@pytest.fixture(scope="session")
def scale() -> str:
    return SCALE
