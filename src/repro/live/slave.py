"""Subprocess entry point: ``python -m repro.live.slave``.

Kept separate from :mod:`repro.live.node` so ``runpy`` never re-executes
a module that something already imported.  Its import path — ``repro``,
``repro.live``, :mod:`repro.live.node` — loads neither numpy nor the
simulator (both package ``__init__`` modules export lazily), so a slave
process is ready a fraction of a second after it is spawned.
"""

from repro.live.node import main

if __name__ == "__main__":   # pragma: no cover - subprocess entry
    raise SystemExit(main())
