"""Pausing the cyclic garbage collector around allocation-heavy work.

Building a trace allocates tens of thousands of ``Request`` objects, and a
replay churns through event tuples; none of them form reference cycles,
so they die by reference counting alone.  The cyclic collector only adds
scan passes, set off by the allocation count, that find nothing to free.
:func:`gc_paused` suspends it for a block.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def gc_paused() -> Iterator[None]:
    """Suspend the cyclic collector for the ``with`` block.

    The collector is re-enabled on exit, also when the block raises.  If
    it was already disabled (by the caller, or by an enclosing
    ``gc_paused``), it stays disabled.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
