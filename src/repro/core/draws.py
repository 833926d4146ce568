"""Block-drawn random streams: numpy's scalar draws, served from arrays.

A scalar ``Generator.integers(m)`` or ``Generator.random()`` call costs
about a microsecond of call overhead, and the simulator makes one or two
per request.  numpy fills arrays with the same per-element routine it
uses for a scalar, so ``integers(m, size=N)`` yields the same values,
and leaves the generator in the same state, as ``N`` scalar
``integers(m)`` calls; ``random(N)`` likewise matches ``N`` calls of
``random()``.  :class:`BlockStream` pre-draws such a block and hands the
values out one at a time.

The stream serves one kind of draw from a block at a time: integers of
one modulus, or doubles (``random()`` and ``uniform(lo, hi, size)``,
the latter as ``lo + (hi - lo) * u`` exactly as numpy computes it).  Any
other draw — a different modulus, a different kind, or anything done
through :attr:`BlockStream.generator` — first *re-syncs*: the generator
state saved before the block was drawn is restored and the values handed
out so far are drawn again, which leaves the generator exactly where the
scalar calls would have left it.  The foreign draw is then made as a
scalar.  Values and final generator state therefore match a plain
``Generator`` making the same calls, in any interleaving.
"""

from __future__ import annotations

from typing import Any, Dict, List, Union

import numpy as np

#: Values pre-drawn per block.
BLOCK = 256

#: Block kind of a doubles block (integer blocks are keyed by modulus).
_DOUBLES = "doubles"


class BlockStream:
    """Scalar draws from a :class:`numpy.random.Generator`, served from
    pre-drawn blocks (see the module docstring)."""

    __slots__ = ("_gen", "_kind", "_block", "_pos", "_state")

    def __init__(self, generator: np.random.Generator):
        self._gen = generator
        #: Modulus of the current integer block, ``_DOUBLES`` for a
        #: doubles block, ``None`` when no block is held.
        self._kind: Union[int, str, None] = None
        self._block: List[Any] = []
        self._pos = 0
        #: Generator state from just before the current block was drawn.
        self._state: Dict[str, Any] = {}

    @property
    def generator(self) -> np.random.Generator:
        """The underlying generator, positioned as if every value handed
        out so far had been drawn by a scalar call."""
        self._resync()
        return self._gen

    def integers(self, m: int) -> int:
        """Same value as ``generator.integers(m)``."""
        pos = self._pos
        if self._kind == m:
            if pos < BLOCK:
                self._pos = pos + 1
                return self._block[pos]
        elif self._kind is not None:
            # A foreign modulus: serve it as a scalar draw.
            self._resync()
            return int(self._gen.integers(m))
        self._refill(m)
        self._pos = 1
        return self._block[0]

    def random(self) -> float:
        """Same value as ``generator.random()``."""
        pos = self._pos
        if self._kind == _DOUBLES:
            if pos < BLOCK:
                self._pos = pos + 1
                return self._block[pos]
        elif self._kind is not None:
            self._resync()
            return self._gen.random()
        self._refill(_DOUBLES)
        self._pos = 1
        return self._block[0]

    def uniform(self, lo: float, hi: float, size: int) -> List[float]:
        """Same values as ``generator.uniform(lo, hi, size=size)``, as a
        list."""
        kind = self._kind
        if size > BLOCK or (kind is not None and kind != _DOUBLES):
            self._resync()
            return self._gen.uniform(lo, hi, size=size).tolist()
        pos = self._pos
        if kind is None or pos + size > BLOCK:
            self._resync()
            self._refill(_DOUBLES)
            pos = 0
        self._pos = pos + size
        scale = hi - lo
        return [lo + scale * u for u in self._block[pos:pos + size]]

    def _refill(self, kind: Union[int, str]) -> None:
        """Draw a fresh block.  The generator must stand at the stream's
        current point: no block held, or the held one used up."""
        gen = self._gen
        state = gen.bit_generator.state
        block = (gen.random(BLOCK) if isinstance(kind, str)
                 else gen.integers(kind, size=BLOCK))
        self._block = block.tolist()
        self._state = state
        self._kind = kind
        self._pos = 0

    def _resync(self) -> None:
        """Drop the current block, if any, leaving the generator where the
        values handed out so far would have left it."""
        kind = self._kind
        if kind is None:
            return
        gen = self._gen
        pos = self._pos
        if pos < BLOCK:
            gen.bit_generator.state = self._state
            if isinstance(kind, str):
                gen.random(pos)
            else:
                gen.integers(kind, size=pos)
        self._kind = None
        self._block = []
        self._pos = 0
        self._state = {}
